import numpy as np
import pytest

from lssbalred import (
    GrammianPair,
    InfeasibleError,
    Isomorphism,
    apply_isomorphism,
    averaged_grammians,
    check_membership,
    check_quadratic_stability,
    check_strong_stability,
    compute_pair,
    dual_system,
    lmi_grammian,
    minimize_with_pair,
    nice_grammians,
    random_stable_model,
    singular_values,
    transport_pair,
)
from lssbalred.grammians import pair_margin
from lssbalred.model import pad_with_dead_states
from lssbalred.realization import is_minimal, reachable_subspace, unobservable_subspace
from conftest import scalar_model, scalar_two_mode
from residual_oracles import (
    averaged_residuals,
    nice_grammian_series_oracle,
    truncated_hankel_square_sum,
)

# Frozen oracle values for example1 with P = Q = diag(2, 1, 0.5): max
# eigenvalues of the hand-assembled residual matrices
#   [[-7, 1, 0], [1, -1, 1], [0, 1, -3]]  (observability)
#   [[-7, 0, 1], [0, -2, 0.5], [1, 0.5, -2]]  (controllability)
EXAMPLE1_OBS_RESIDUAL = -0.4543922915251883
EXAMPLE1_CTRL_RESIDUAL = -1.4027532635088598


class TestMembership:
    def test_example1_lambda_in_O(self, example1, example1_lambda):
        rep = check_membership(example1, example1_lambda, "O")
        assert rep.member()
        assert rep.worst == pytest.approx(EXAMPLE1_OBS_RESIDUAL, abs=1e-10)

    def test_example1_lambda_in_C(self, example1, example1_lambda):
        rep = check_membership(example1, example1_lambda, "C")
        assert rep.member()
        assert rep.worst == pytest.approx(EXAMPLE1_CTRL_RESIDUAL, abs=1e-10)

    def test_identity_not_stability_member_for_expanding_scalar(self):
        model = scalar_model("discrete", 1.5)
        rep = check_membership(model, np.eye(1), "S")
        assert not rep.member()
        assert rep.worst == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("gamma", [None, float("nan")])
    def test_gain_set_requires_gamma(self, example1, gamma):
        with pytest.raises(ValueError, match="gamma"):
            check_membership(example1, np.eye(3), "G", gamma)


class TestLmiGrammian:
    def test_scalar_ct_tightens_to_half(self, ct_scalar):
        for kind in ("controllability", "observability"):
            G = lmi_grammian(ct_scalar, kind)
            assert 0.5 <= float(G[0, 0]) <= 0.55

    def test_example1_membership_of_solver_output(self, example1):
        P = lmi_grammian(example1, "controllability", tighten=False)
        Q = lmi_grammian(example1, "observability", tighten=False)
        assert check_membership(example1, P, "C").worst < 0
        assert check_membership(example1, Q, "O").worst < 0

    def test_expanding_scalar_has_no_grammian(self):
        model = scalar_model("discrete", 1.5)
        with pytest.raises(InfeasibleError, match="no .* grammian|grammian"):
            lmi_grammian(model, "controllability", tighten=False)


class TestNiceGrammians:
    def test_scalar_two_mode_closed_form(self, dt_two_mode):
        pair = nice_grammians(dt_two_mode)
        np.testing.assert_allclose(pair.P_ctrl, [[8.0 / 3.0]], rtol=1e-12)
        np.testing.assert_allclose(pair.Q_obs, [[8.0 / 3.0]], rtol=1e-12)

    def test_scalar_single_mode_closed_form(self, dt_scalar):
        pair = nice_grammians(dt_scalar)
        np.testing.assert_allclose(pair.P_ctrl, [[4.0 / 3.0]], rtol=1e-12)
        np.testing.assert_allclose(pair.Q_obs, [[4.0 / 3.0]], rtol=1e-12)

    def test_matches_series_oracle(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=2,
                                    strong_radius=0.2)
        pair = nice_grammians(model)
        # Kronecker radius 0.2: the depth-12 tail is below 0.2^13 / 0.8 < 1e-9
        oracle = nice_grammian_series_oracle(model, 12)
        np.testing.assert_allclose(pair.P_ctrl, oracle.P_ctrl, atol=1e-8)
        np.testing.assert_allclose(pair.Q_obs, oracle.Q_obs, atol=1e-8)

    def test_series_oracle_depth_zero(self, dt_two_mode):
        pair = nice_grammian_series_oracle(dt_two_mode, 0)
        np.testing.assert_allclose(pair.P_ctrl, [[2.0]])
        np.testing.assert_allclose(pair.Q_obs, [[2.0]])

    def test_series_partial_sum_scalar(self, dt_scalar):
        pair = nice_grammian_series_oracle(dt_scalar, 3)
        np.testing.assert_allclose(pair.P_ctrl, [[1.328125]], rtol=1e-15)

    def test_series_is_monotone_in_depth(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=3)
        prev = None
        for depth in range(4):
            pair = nice_grammian_series_oracle(model, depth)
            if prev is not None:
                assert np.linalg.eigvalsh(pair.P_ctrl - prev)[0] >= -1e-12
            prev = pair.P_ctrl

    def test_series_budget_guard(self, dt_two_mode):
        with pytest.raises(ValueError, match="budget"):
            nice_grammian_series_oracle(dt_two_mode, 40)

    def test_continuous_model_rejected(self, example1):
        with pytest.raises(ValueError, match="discrete"):
            nice_grammians(example1)

    def test_not_strongly_stable_rejected(self):
        with pytest.raises(InfeasibleError):
            nice_grammians(scalar_two_mode("discrete", 0.8, 0.8))

    def test_nice_grammians_are_grammians(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=5)
        pair = nice_grammians(model)
        assert check_membership(model, pair.P_ctrl, "C").worst <= 1e-10
        assert check_membership(model, pair.Q_obs, "O").worst <= 1e-10

    def test_pd_iff_minimal(self):
        minimal = random_stable_model("discrete", 3, 2, kind="strong", seed=6)
        assert is_minimal(minimal)
        pair = nice_grammians(minimal)
        assert np.linalg.eigvalsh(pair.P_ctrl)[0] > 0
        assert np.linalg.eigvalsh(pair.Q_obs)[0] > 0
        padded = pad_with_dead_states(minimal, 1, seed=7)
        # the padding keeps strong stability (decoupled contraction block)
        pair2 = nice_grammians(padded)
        assert np.linalg.eigvalsh(pair2.P_ctrl)[0] < 1e-10
        assert np.linalg.eigvalsh(pair2.Q_obs)[0] < 1e-10

    def test_large_model_solves_both_stein_equations(self):
        # n = 64: the Kronecker matrix of the operator would be 4096 x 4096
        model = random_stable_model("discrete", 64, 2, kind="strong", seed=1)
        assert check_strong_stability(model) < 1.0
        pair = nice_grammians(model)
        P, Q = pair.P_ctrl, pair.Q_obs
        RP = sum(A @ P @ A.T + B @ B.T for A, B in zip(model.A, model.B)) - P
        RQ = sum(A.T @ Q @ A + C.T @ C for A, C in zip(model.A, model.C)) - Q
        assert np.linalg.norm(RP) <= 1e-12 * np.linalg.norm(P)
        assert np.linalg.norm(RQ) <= 1e-12 * np.linalg.norm(Q)


class TestTraceIdentity:
    def test_truncated_sum_matches_exact_trace(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=8,
                                    strong_radius=0.6)
        pair = nice_grammians(model)
        exact = float(np.trace(pair.P_ctrl @ pair.Q_obs))
        approx, depth = truncated_hankel_square_sum(model, tol=1e-10)
        assert abs(exact - approx) < 1e-7
        assert depth >= 1

    def test_layer_recursion_equals_word_enumeration(self, dt_two_mode):
        # brute-force double word sum for small depth
        from lssbalred.realization import hankel_block
        from itertools import product
        depth = 4
        brute = 0.0
        for ls in range(depth + 1):
            for lv in range(depth + 1):
                for s in product(range(2), repeat=ls):
                    for v in product(range(2), repeat=lv):
                        H = hankel_block(dt_two_mode, s, v)
                        brute += float(np.sum(H**2))
        pairP = nice_grammian_series_oracle(dt_two_mode, depth)
        layered = float(np.trace(pairP.P_ctrl @ pairP.Q_obs))
        assert brute == pytest.approx(layered, rel=1e-12)


class TestAveraged:
    def test_strongly_stable_membership(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=9)
        pair = averaged_grammians(model)
        RP, RQ = averaged_residuals(model, pair.P_ctrl, pair.Q_obs)
        assert np.linalg.eigvalsh(RP)[-1] < 0
        assert np.linalg.eigvalsh(RQ)[-1] < 0
        # summed feasibility implies plain per-mode membership
        assert check_membership(model, pair.P_ctrl, "C").worst < 0
        assert check_membership(model, pair.Q_obs, "O").worst < 0

    def test_compute_pair_uses_the_computed_margin(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=9)
        pair = compute_pair(model, "averaged")
        ref = averaged_grammians(model)
        np.testing.assert_array_equal(pair.P_ctrl, ref.P_ctrl)
        np.testing.assert_array_equal(pair.Q_obs, ref.Q_obs)
        # the strict margin c, worked out from the largest entry of the A_q,
        # makes both summed residuals -c I
        scale = max(float(np.max(np.abs(A))) for A in model.A)
        c = max(1e-7 * max(1.0, scale) ** 2 * 2.0, 1e-9)
        for R in averaged_residuals(model, pair.P_ctrl, pair.Q_obs):
            assert np.max(np.abs(R + c * np.eye(3))) <= 1e-5 * c

    @pytest.mark.parametrize("source", ["nice", "averaged"])
    def test_untightened_routes_reject_tighten(self, source):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=1)
        with pytest.raises(ValueError, match="tighten"):
            compute_pair(model, source, tighten=False)

    def test_expanding_pair_infeasible(self):
        model = scalar_two_mode("discrete", 0.8, 0.8)
        with pytest.raises(InfeasibleError):
            averaged_grammians(model)

    def test_continuous_rejected(self, example1):
        with pytest.raises(ValueError, match="discrete"):
            averaged_grammians(example1)


class TestSingularValues:
    def test_diagonal_pair(self, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        np.testing.assert_allclose(singular_values(pair).values, [2.0, 1.0, 0.5])

    def test_identity_pair(self):
        pair = GrammianPair(np.eye(4), np.eye(4), "manual")
        np.testing.assert_allclose(singular_values(pair).values, np.ones(4))

    def test_matches_product_eigenvalues(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            M1 = rng.standard_normal((4, 4))
            M2 = rng.standard_normal((4, 4))
            P = M1 @ M1.T + 0.1 * np.eye(4)
            Q = M2 @ M2.T + 0.1 * np.eye(4)
            sv = singular_values(GrammianPair(P, Q, "manual")).values
            brute = np.sqrt(np.sort(np.linalg.eigvals(P @ Q).real)[::-1])
            np.testing.assert_allclose(sv, brute, atol=1e-10)

    def test_rejects_non_pd(self):
        with pytest.raises(ValueError):
            singular_values(GrammianPair(np.diag([1.0, 0.0]), np.eye(2), "manual"))


class TestTransport:
    def test_identity_transport(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        out = transport_pair(pair, Isomorphism(np.eye(3)))
        np.testing.assert_allclose(out.P_ctrl, pair.P_ctrl)
        np.testing.assert_allclose(out.Q_obs, pair.Q_obs)

    def test_diagonal_transport_keeps_membership_and_sigmas(self, example1, example1_lambda):
        iso = Isomorphism(np.diag([2.0, 1.0, 1.0]))
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        mapped_model = apply_isomorphism(example1, iso)
        mapped_pair = transport_pair(pair, iso)
        assert check_membership(mapped_model, mapped_pair.P_ctrl, "C").member()
        assert check_membership(mapped_model, mapped_pair.Q_obs, "O").member()
        np.testing.assert_allclose(
            singular_values(mapped_pair).values, [2.0, 1.0, 0.5], atol=1e-8
        )

    def test_random_transport_preserves_sigmas(self):
        rng = np.random.default_rng(12)
        model = random_stable_model("continuous", 4, 2, kind="quadratic", seed=14)
        P = lmi_grammian(model, "controllability", tighten=False)
        Q = lmi_grammian(model, "observability", tighten=False)
        pair = GrammianPair(P, Q, "lmi")
        S = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        iso = Isomorphism(S)
        mapped = transport_pair(pair, iso)
        np.testing.assert_allclose(
            singular_values(mapped).values, singular_values(pair).values, atol=1e-8
        )
        mapped_model = apply_isomorphism(model, iso)
        assert check_membership(mapped_model, mapped.P_ctrl, "C").worst < 0
        assert check_membership(mapped_model, mapped.Q_obs, "O").worst < 0

    def test_stability_and_gain_sets_transport(self):
        model = random_stable_model("discrete", 3, 2, kind="quadratic", seed=15)
        cert = check_quadratic_stability(model)
        rng = np.random.default_rng(16)
        S = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        iso = Isomorphism(S)
        mapped_model = apply_isomorphism(model, iso)
        moved = iso.inv.T @ cert.P @ iso.inv
        assert check_membership(mapped_model, moved, "S").member()
        gamma = 50.0
        rep = check_membership(model, cert.P, "G", gamma=gamma)
        if rep.member():
            rep2 = check_membership(mapped_model, moved, "G", gamma=gamma)
            assert rep2.member()


class TestPositivityAndDuality:
    def test_solver_grammians_pd_on_minimal_models(self):
        model = random_stable_model("continuous", 3, 2, kind="quadratic", seed=18)
        assert is_minimal(model)
        P = lmi_grammian(model, "controllability", tighten=False)
        assert np.linalg.eigvalsh(P)[0] > 0

    def test_reachability_defect_admits_singular_psd_solution(self):
        base = random_stable_model("continuous", 2, 2, kind="quadratic", seed=20)
        padded = pad_with_dead_states(base, 1, seed=21, feed_output=True)
        assert reachable_subspace(padded).shape[1] == 2
        assert unobservable_subspace(padded).shape[1] == 0
        P = lmi_grammian(base, "controllability", tighten=False)
        witness = np.zeros((3, 3))
        witness[:2, :2] = P
        # non-strict controllability inequality holds, but witness is singular
        rep = check_membership(padded, witness, "C")
        assert rep.worst <= 1e-9
        assert np.linalg.eigvalsh(witness)[0] == pytest.approx(0.0, abs=1e-12)

    def test_obs_membership_equals_ctrl_membership_of_dual(self):
        for td in ("continuous", "discrete"):
            model = random_stable_model(td, 3, 2, kind="quadratic", seed=24)
            Q = lmi_grammian(model, "observability", tighten=False)
            dual = dual_system(model)
            assert check_membership(dual, Q, "C").member()


class TestInterlacing:
    def test_padded_model_pair_interlaces_after_minimization(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            base = random_stable_model("continuous", n, 2, kind="quadratic", seed=30 + seed)
            padded = pad_with_dead_states(base, int(rng.integers(1, 3)), seed=seed)
            P = lmi_grammian(padded, "controllability", tighten=False)
            Q = lmi_grammian(padded, "observability", tighten=False)
            mini, Pm, Qm = minimize_with_pair(padded, P, Q)
            assert check_membership(mini, Pm, "C").worst <= 1e-9
            assert check_membership(mini, Qm, "O").worst <= 1e-9
            sig = singular_values(GrammianPair(P, Q, "manual")).values
            lam = singular_values(GrammianPair(Pm, Qm, "manual")).values
            N, k = sig.size, lam.size
            for i in range(k):
                assert sig[N - k + i] <= lam[i] + 1e-7
                assert lam[i] <= sig[i] + 1e-7


def test_pair_margin_sign(example1, example1_lambda):
    pair = GrammianPair(example1_lambda, example1_lambda, "manual")
    assert pair_margin(example1, pair) == pytest.approx(-EXAMPLE1_OBS_RESIDUAL, abs=1e-10)
