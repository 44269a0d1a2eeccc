import numpy as np
import pytest

from lssbalred import (
    GrammianPair,
    balance,
    check_membership,
    check_quadratic_stability,
    random_stable_model,
    reduce_model,
    singular_values,
    truncate,
)
from lssbalred.balred import admissible_orders, compute_pair
from lssbalred.grammians import pair_margin
from lssbalred.realization import is_minimal


class TestBalance:
    def test_example1_already_balanced(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        bal = balance(example1, pair)
        np.testing.assert_allclose(np.abs(bal.transform.S), np.eye(3), atol=1e-8)
        np.testing.assert_allclose(bal.sigmas, [2.0, 1.0, 0.5], atol=1e-12)
        # balanced model carries Lambda as both grammians
        lam = np.diag(bal.sigmas)
        assert check_membership(bal.balanced_model, lam, "O").member()
        assert check_membership(bal.balanced_model, lam, "C").member()

    def test_identity_pair_gives_orthogonal_transform(self, example1):
        pair = GrammianPair(np.eye(3), np.eye(3), "manual")
        bal = balance(example1, pair)
        np.testing.assert_allclose(bal.sigmas, np.ones(3), atol=1e-12)
        S = bal.transform.S
        np.testing.assert_allclose(S @ S.T, np.eye(3), atol=1e-10)

    def test_balancing_transforms_pair_to_lambda(self):
        model = random_stable_model("continuous", 4, 2, kind="quadratic", seed=2)
        pair = compute_pair(model, source="lmi", tighten=False)
        bal = balance(model, pair)
        S = bal.transform.S
        lam = np.diag(bal.sigmas)
        np.testing.assert_allclose(S @ pair.P_ctrl @ S.T, lam, atol=1e-8)
        Sinv = bal.transform.inv
        np.testing.assert_allclose(Sinv.T @ pair.Q_obs @ Sinv, lam, atol=1e-8)
        assert check_membership(bal.balanced_model, lam, "O").worst < 0
        assert check_membership(bal.balanced_model, lam, "C").worst < 0

    def test_sigmas_match_singular_values(self):
        from lssbalred import singular_values
        model = random_stable_model("discrete", 4, 2, kind="quadratic", seed=3)
        pair = compute_pair(model, source="lmi", tighten=False)
        bal = balance(model, pair)
        np.testing.assert_allclose(bal.sigmas, singular_values(pair).values, atol=1e-8)

    def test_ill_conditioned_grammian_rejected(self, example1):
        P = np.diag([1.0, 1e-14, 1.0])
        pair = GrammianPair(P, np.eye(3), "manual")
        with pytest.raises(ValueError, match="ill-conditioned"):
            balance(example1, pair)

    def test_asymmetric_grammian_rejected_like_singular_values(self, example1):
        Q = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        pair = GrammianPair(np.diag([2.0, 1.0, 0.5]), Q, "manual")
        for run in (singular_values, lambda p: balance(example1, p),
                    lambda p: reduce_model(example1, order=2, pair=p)):
            with pytest.raises(ValueError, match="observability grammian is not symmetric"):
                run(pair)


class TestTruncate:
    def test_example1_golden_order_two(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        bal = balance(example1, pair)
        res = truncate(bal, 2)
        np.testing.assert_allclose(res.reduced_model.A[0], [[-2.0, 0.0], [0.0, -1.0]], atol=1e-12)
        np.testing.assert_allclose(res.reduced_model.B[0], [[1.0], [0.0]], atol=1e-12)
        np.testing.assert_allclose(res.reduced_model.C[0], [[1.0, 1.0]], atol=1e-12)
        assert res.apriori_bound == pytest.approx(1.0, abs=1e-12)
        assert res.apriori_bound == 2.0 * float(np.sum(res.discarded_sigmas))
        assert not is_minimal(res.reduced_model)

    def test_tie_blocks_truncation(self, example1):
        pair = GrammianPair(np.eye(3), np.eye(3), "manual")
        bal = balance(example1, pair)
        with pytest.raises(ValueError, match="tied"):
            truncate(bal, 2)
        res = truncate(bal, 2, force_ties=True)
        assert res.retained == 2

    def test_out_of_range_order(self, example1, example1_lambda):
        bal = balance(example1, GrammianPair(example1_lambda, example1_lambda, "manual"))
        with pytest.raises(ValueError):
            truncate(bal, 0)
        with pytest.raises(ValueError):
            truncate(bal, 4)

    @pytest.mark.parametrize("r, force_ties", [(2.7, False), (2.0, True)])
    def test_non_integer_order_is_rejected(self, r, force_ties):
        model = random_stable_model("discrete", 4, 2, kind="strong", seed=1)
        bal = balance(model, compute_pair(model, "nice"))
        with pytest.raises(ValueError, match="must be an integer"):
            truncate(bal, r, force_ties=force_ties)

    def test_full_order_keeps_model(self, example1, example1_lambda):
        bal = balance(example1, GrammianPair(example1_lambda, example1_lambda, "manual"))
        res = truncate(bal, 3)
        assert res.apriori_bound == 0.0
        assert res.reduced_model.n == 3

    def test_dt_lambda1_inequality_chain(self):
        # after truncating a balanced DT model, Lambda_1 is again a grammian
        model = random_stable_model("discrete", 4, 2, kind="quadratic", seed=5)
        pair = compute_pair(model, source="lmi", tighten=False)
        bal = balance(model, pair)
        for r in admissible_orders(bal.sigmas):
            res = truncate(bal, r)
            lam1 = res.lambda1
            red = res.reduced_model
            for A, B, C in zip(red.A, red.B, red.C):
                ctrl = A @ lam1 @ A.T + B @ B.T - lam1
                obs = A.T @ lam1 @ A + C.T @ C - lam1
                assert np.linalg.eigvalsh(ctrl)[-1] <= 1e-9
                assert np.linalg.eigvalsh(obs)[-1] <= 1e-9

    def test_strict_pair_gives_quadratically_stable_reduction(self):
        model = random_stable_model("continuous", 4, 2, kind="quadratic", seed=6)
        pair = compute_pair(model, source="lmi", tighten=False)
        assert pair_margin(model, pair) > 0
        bal = balance(model, pair)
        r = admissible_orders(bal.sigmas)[0]
        res = truncate(bal, r)
        assert res.strict_pair
        assert check_quadratic_stability(res.reduced_model) is not None

    def test_monotone_bound(self):
        model = random_stable_model("discrete", 5, 2, kind="quadratic", seed=7)
        pair = compute_pair(model, source="lmi", tighten=False)
        bal = balance(model, pair)
        bounds = [truncate(bal, r, force_ties=True).apriori_bound for r in range(1, 6)]
        assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


class TestReduce:
    def test_example1_by_order(self, example1):
        # trace tightening separates the sigmas (the untightened solver is
        # free to return the same matrix for both families, tying them all)
        res = reduce_model(example1, compute_pair(example1, "lmi"), order=2)
        assert res.retained == 2
        assert res.reduced_model.n == 2
        assert res.apriori_bound == pytest.approx(2.0 * np.sum(res.sigmas[2:]))

    def test_example1_by_bound_budget(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        res = reduce_model(example1, bound_budget=1.0, pair=pair)
        # 2 * 0.5 = 1.0 <= 1.0 at r = 2; 2 * 1.5 = 3 > 1 at r = 1
        assert res.retained == 2
        assert res.apriori_bound == pytest.approx(1.0)

    def test_bound_budget_skips_tied_orders(self, example1):
        lam = np.diag([1.0, 1.0, 0.1])
        res = reduce_model(example1, bound_budget=2.5, pair=GrammianPair(lam, lam, "manual"))
        # r = 1 would meet the budget (bound 2.2) but splits the tied sigma_1 = sigma_2
        assert res.retained == 2
        assert res.apriori_bound == pytest.approx(0.2)

    def test_bound_budget_too_small_keeps_everything(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        res = reduce_model(example1, bound_budget=0.1, pair=pair)
        assert res.retained == 3
        assert res.apriori_bound == 0.0

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_negative_or_nan_bound_budget_is_rejected(self, example1, example1_lambda, budget):
        # such a budget used to keep every state and report apriori_bound 0.0
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        with pytest.raises(ValueError, match="bound budget"):
            reduce_model(example1, pair, bound_budget=budget)

    def test_requires_exactly_one_target(self, example1):
        pair = compute_pair(example1, "lmi")
        with pytest.raises(ValueError):
            reduce_model(example1, pair)
        with pytest.raises(ValueError):
            reduce_model(example1, pair, order=2, bound_budget=1.0)

    @pytest.mark.parametrize("order", [2.7, 2.0])
    def test_non_integer_order_is_rejected(self, order):
        # 2.7 used to keep 2 states
        model = random_stable_model("discrete", 4, 2, kind="strong", seed=1)
        with pytest.raises(ValueError, match="integer"):
            reduce_model(model, compute_pair(model, "nice"), order=order)

    def test_nice_source_requires_discrete(self, example1):
        with pytest.raises(ValueError):
            compute_pair(example1, "nice")

    def test_nice_source_on_strong_model(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=9)
        res = reduce_model(model, compute_pair(model, "nice"), order=2, force_ties=True)
        assert res.balancing.pair.provenance == "nice"
        assert res.reduced_model.n == 2

    def test_pair_dimension_mismatch_rejected(self, example1):
        pair = GrammianPair(np.eye(2), np.eye(2), "manual")
        with pytest.raises(ValueError, match="does not match"):
            reduce_model(example1, order=1, pair=pair)

    def test_observability_grammian_size_is_checked(self, example1):
        # a Q of the wrong size is refused up front, not inside a matmul
        pair = GrammianPair(np.eye(3), np.eye(2), "manual")
        with pytest.raises(ValueError, match="does not match"):
            reduce_model(example1, pair, order=1)


def test_balanced_fixed_point_has_identity_transform():
    model = random_stable_model("continuous", 4, 2, kind="quadratic", seed=11)
    pair = compute_pair(model, source="lmi", tighten=False)
    bal = balance(model, pair)
    lam = np.diag(bal.sigmas)
    again = balance(bal.balanced_model, GrammianPair(lam, lam, "manual"))
    if np.min(np.diff(bal.sigmas[::-1])) > 1e-8:  # all sigmas distinct
        np.testing.assert_allclose(np.abs(again.transform.S), np.eye(4), atol=1e-8)
