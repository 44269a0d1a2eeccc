import numpy as np
import pytest

from lssbalred import (
    LssModel,
    dual_system,
    hankel_block,
    is_minimal,
    markov_parameter,
    minimize,
    observability_reduction,
    random_stable_model,
    reachability_reduction,
    reachable_subspace,
    unobservable_subspace,
)
from lssbalred.model import pad_with_dead_states
from lssbalred.realization import equivalent
from conftest import scalar_two_mode
from residual_oracles import (
    markov_match,
    observability_matrix,
    reachability_matrix,
    recover_isomorphism,
)


class TestSubspaces:
    def test_example1_fully_reachable(self, example1):
        A, B = example1.A[0], example1.B[0]
        # independent oracle: determinant of [B, AB, A^2 B]
        K = np.hstack([B, A @ B, A @ A @ B])
        assert abs(np.linalg.det(K) - 1.0) < 1e-12
        assert reachable_subspace(example1).dim == 3

    def test_example1_observable(self, example1):
        A, C = example1.A[0], example1.C[0]
        O = np.vstack([C, C @ A, C @ A @ A])
        assert abs(np.linalg.det(O) - (-1.0)) < 1e-12
        assert unobservable_subspace(example1).dim == 0

    def test_truncated_example1_reachable_dim_one(self, example1_truncated):
        assert reachable_subspace(example1_truncated).dim == 1

    def test_zero_input_matrices(self, example1):
        model = LssModel("continuous", example1.A,
                         (np.zeros((3, 1)),), example1.C)
        assert reachable_subspace(model).dim == 0

    def test_zero_output_matrices(self, example1):
        model = LssModel("continuous", example1.A, example1.B,
                         (np.zeros((1, 3)),))
        assert unobservable_subspace(model).dim == 3

    def test_constructed_unobservable_state(self):
        # third state feeds nothing into any C_q A_v row
        A = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [1.0, 1.0, -3.0]])
        B = np.array([[1.0], [1.0], [0.0]])
        C = np.array([[1.0, 1.0, 0.0]])
        model = LssModel("continuous", (A,), (B,), (C,))
        assert unobservable_subspace(model).dim == 1

    def test_iteration_count_within_state_dimension(self):
        model = random_stable_model("discrete", 5, 2, seed=12)
        sub = reachable_subspace(model)
        assert sub.iterations <= model.n

    def test_matches_word_enumeration_matrices(self):
        for seed in range(5):
            model = random_stable_model("discrete", 3, 2, m=1, p=1, seed=seed)
            R = reachability_matrix(model)
            dim_oracle = np.linalg.matrix_rank(R, tol=1e-10)
            assert reachable_subspace(model).dim == dim_oracle
            O = observability_matrix(model)
            ker_oracle = model.n - np.linalg.matrix_rank(O, tol=1e-10)
            assert unobservable_subspace(model).dim == ker_oracle

    def test_duality_commutation(self):
        model = pad_with_dead_states(random_stable_model("discrete", 3, 2, seed=2), 1, seed=0)
        lhs = unobservable_subspace(model).dim
        rhs = model.n - reachable_subspace(dual_system(model)).dim
        assert lhs == rhs


class TestReductions:
    def test_reachable_model_is_fixed_point(self, example1):
        reduced, _ = reachability_reduction(example1)
        assert reduced.n == example1.n
        assert markov_match(reduced, example1, max_len=4)

    def test_truncated_example1_reduces_to_order_one(self, example1_truncated):
        reduced, _ = reachability_reduction(example1_truncated)
        assert reduced.n == 1
        np.testing.assert_allclose(reduced.A[0], [[-2.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(reduced.B[0]), [[1.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(reduced.C[0]), [[1.0]], atol=1e-12)

    def test_padding_is_removed(self):
        base = random_stable_model("discrete", 3, 2, m=2, p=2, seed=21)
        padded = pad_with_dead_states(base, 2, seed=22)
        reduced, _ = reachability_reduction(padded)
        assert reduced.n == 3
        assert markov_match(reduced, base, max_len=4)

    def test_observable_model_is_fixed_point(self, example1):
        reduced, _ = observability_reduction(example1)
        assert reduced.n == 3
        assert markov_match(reduced, example1, max_len=4)

    def test_observability_reduction_via_duality(self):
        base = random_stable_model("discrete", 3, 2, seed=31)
        padded = pad_with_dead_states(base, 2, seed=32, feed_input=True)  # unobservable block
        reduced, _ = observability_reduction(padded)
        assert reduced.n == 3
        assert markov_match(reduced, base, max_len=4)

    def test_zero_output_model_reduces_to_nothing(self, example1):
        model = LssModel("continuous", example1.A, example1.B, (np.zeros((1, 3)),))
        reduced, _ = observability_reduction(model)
        assert reduced.n == 0

    def test_observability_reduction_preserves_span_reachability(self):
        base = random_stable_model("discrete", 3, 2, seed=41)
        padded = pad_with_dead_states(base, 1, seed=42, feed_input=True)
        assert reachable_subspace(padded).dim == padded.n
        reduced, _ = observability_reduction(padded)
        assert reachable_subspace(reduced).dim == reduced.n


class TestMinimize:
    def test_example1_already_minimal(self, example1):
        assert is_minimal(example1)
        assert minimize(example1).n == 3

    def test_truncated_example1_not_minimal(self, example1_truncated):
        assert not is_minimal(example1_truncated)
        assert minimize(example1_truncated).n == 1

    def test_zero_system_not_minimal(self):
        model = LssModel("continuous", (np.array([[-1.0]]),),
                         (np.array([[0.0]]),), (np.array([[0.0]]),))
        assert not is_minimal(model)

    def test_duplicate_construction_minimizes_back(self):
        # two copies fed the same input, output read from the first copy:
        # the reachable set is the diagonal, so minimization recovers order n
        base = random_stable_model("discrete", 2, 2, seed=51)
        n = base.n
        As, Bs, Cs = [], [], []
        for A, B, C in zip(base.A, base.B, base.C):
            A2 = np.zeros((2 * n, 2 * n))
            A2[:n, :n] = A
            A2[n:, n:] = A
            As.append(A2)
            Bs.append(np.vstack([B, B]))
            Cs.append(np.hstack([C, np.zeros_like(C)]))
        doubled = LssModel("discrete", tuple(As), tuple(Bs), tuple(Cs))
        assert doubled.n == 4
        mini = minimize(doubled)
        assert mini.n == 2
        assert markov_match(mini, base, max_len=5)

    def test_idempotent_up_to_isomorphism(self):
        padded = pad_with_dead_states(random_stable_model("discrete", 3, 2, seed=61), 2, seed=62)
        m1 = minimize(padded)
        m2 = minimize(m1)
        assert m1.n == m2.n
        S, resid = recover_isomorphism(m1, m2)
        assert resid < 1e-8

    def test_equivalence_checker(self):
        base = random_stable_model("discrete", 3, 2, seed=71)
        padded = pad_with_dead_states(base, 2, seed=72)
        assert equivalent(base, padded)
        other = random_stable_model("discrete", 3, 2, seed=73)
        assert not equivalent(base, other)


class TestMarkov:
    def test_empty_word_is_stacked_product(self, dt_two_mode):
        M = markov_parameter(dt_two_mode, ()).value
        np.testing.assert_allclose(M, np.ones((2, 2)))

    def test_single_letter_word(self, dt_two_mode):
        M = markov_parameter(dt_two_mode, (0,)).value
        np.testing.assert_allclose(M, 0.3 * np.ones((2, 2)))

    def test_example1_empty_word(self, example1):
        np.testing.assert_allclose(markov_parameter(example1, ()).value, [[1.0]])

    def test_invalid_mode_rejected(self, dt_two_mode):
        with pytest.raises(ValueError, match="invalid mode"):
            markov_parameter(dt_two_mode, (2,))

    def test_hankel_block_empty_words(self, dt_two_mode):
        np.testing.assert_allclose(hankel_block(dt_two_mode, (), ()),
                                   markov_parameter(dt_two_mode, ()).value)

    def test_hankel_block_is_concatenation(self, dt_two_mode):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = tuple(rng.integers(0, 2, rng.integers(0, 3)))
            v = tuple(rng.integers(0, 2, rng.integers(0, 3)))
            np.testing.assert_allclose(hankel_block(dt_two_mode, s, v),
                                       hankel_block(dt_two_mode, tuple(v) + tuple(s), ()))

    def test_hankel_scalar_product(self):
        model = scalar_two_mode("discrete", 0.3, 0.4)
        H = hankel_block(model, (0,), (1,))
        np.testing.assert_allclose(H, 0.12 * np.ones((2, 2)))

    def test_procedures_preserve_markov_parameters_long_words(self):
        # length 2n + 1 on a small model where enumeration is cheap
        base = random_stable_model("discrete", 2, 2, seed=81)
        padded = pad_with_dead_states(base, 2, seed=82)
        mini = minimize(padded)
        assert markov_match(mini, padded, max_len=2 * padded.n + 1)
