import json

import numpy as np
import pytest

from lssbalred import (
    Isomorphism,
    LssModel,
    ModelFormatError,
    SwitchingSignal,
    apply_isomorphism,
    averaged_grammians,
    build_uncertain_embedding,
    check_beck_grammian_projection,
    dual_system,
    dumps_model,
    family_system,
    loads_model,
    nice_grammians,
    random_stable_model,
    stochastic_embedding,
    validate_model,
)
from lssbalred.embeddings import feasible_block_pair
from lssbalred.model import difference_system, pad_with_dead_states
from lssbalred.realization import markov_parameter
from lssbalred.stability import check_strong_stability
from residual_oracles import markov_match


def test_example1_is_valid(example1):
    assert validate_model(example1) == []


def test_shape_mismatch_is_reported(example1):
    bad = LssModel(
        "continuous",
        example1.A,
        (np.array([[1.0], [0.0]]),),  # 2x1 against n=3
        example1.C,
    )
    violations = validate_model(bad)
    assert violations
    assert any("B shape mismatch" in v for v in violations)


def test_nonfinite_entry_is_reported(example1):
    A = example1.A[0].copy()
    A[0, 0] = np.nan
    bad = LssModel("continuous", (A,), example1.B, example1.C)
    violations = validate_model(bad)
    assert any("non-finite" in v for v in violations)


class TestIsomorphism:
    def test_identity_is_a_fixed_point(self, example1):
        out = apply_isomorphism(example1, Isomorphism(np.eye(3)))
        for M1, M2 in zip(out.A + out.B + out.C, example1.A + example1.B + example1.C):
            np.testing.assert_array_equal(M1, M2)

    def test_diagonal_transform_matches_direct_multiplication(self, example1):
        S = np.diag([2.0, 1.0, 1.0])
        out = apply_isomorphism(example1, Isomorphism(S))
        Sinv = np.linalg.inv(S)
        np.testing.assert_allclose(out.A[0], S @ example1.A[0] @ Sinv, atol=1e-14)
        np.testing.assert_allclose(out.B[0], np.array([[2.0], [0.0], [1.0]]))
        np.testing.assert_allclose(out.C[0], np.array([[0.5, 1.0, 0.0]]))

    def test_permutation_transform(self, example1):
        S = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = apply_isomorphism(example1, Isomorphism(S))
        np.testing.assert_allclose(out.A[0], S @ example1.A[0] @ S.T, atol=1e-14)
        np.testing.assert_allclose(out.B[0], S @ example1.B[0])

    def test_round_trip_recovers_original(self, example1):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        fwd = apply_isomorphism(example1, Isomorphism(S))
        back = apply_isomorphism(fwd, Isomorphism(np.linalg.inv(S)))
        for M1, M2 in zip(back.A + back.B + back.C, example1.A + example1.B + example1.C):
            np.testing.assert_allclose(M1, M2, rtol=1e-12, atol=1e-12)

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            Isomorphism(np.zeros((2, 2)))

    def test_condition_estimate_is_computed_not_passed(self):
        assert Isomorphism(np.diag([1.0, 4.0])).condition_estimate == 4.0
        with pytest.raises(TypeError):
            Isomorphism(np.eye(2), condition_estimate=5.0)

    def test_markov_parameters_preserved(self):
        rng = np.random.default_rng(11)
        model = random_stable_model("discrete", 3, 2, m=2, p=2, seed=8)
        S = rng.standard_normal((3, 3)) + 2.5 * np.eye(3)
        mapped = apply_isomorphism(model, Isomorphism(S))
        assert markov_match(model, mapped, max_len=4, rtol=1e-9)


class TestDual:
    def test_example1_dual_matrices(self, example1):
        dual = dual_system(example1)
        np.testing.assert_array_equal(dual.A[0], example1.A[0].T)
        np.testing.assert_array_equal(dual.B[0], np.array([[1.0], [1.0], [0.0]]))
        np.testing.assert_array_equal(dual.C[0], np.array([[1.0, 0.0, 1.0]]))

    def test_symmetric_system_is_fixed_point(self):
        A = np.array([[-2.0, 1.0], [1.0, -3.0]])
        B = np.array([[1.0], [2.0]])
        model = LssModel("continuous", (A,), (B,), (B.T,))
        dual = dual_system(model)
        np.testing.assert_array_equal(dual.A[0], A)
        np.testing.assert_array_equal(dual.B[0], B)

    def test_involution_is_bit_exact(self):
        model = random_stable_model("discrete", 4, 2, m=2, p=3, seed=5)
        twice = dual_system(dual_system(model))
        for M1, M2 in zip(twice.A + twice.B + twice.C, model.A + model.B + model.C):
            np.testing.assert_array_equal(M1, M2)


class TestDifferenceSystem:
    @pytest.mark.parametrize("other", [
        random_stable_model("discrete", 3, 3, seed=2),  # mode count
        random_stable_model("continuous", 3, 2, seed=2),  # time domain
        random_stable_model("discrete", 3, 2, m=2, seed=2),  # inputs
        random_stable_model("discrete", 3, 2, p=2, seed=2),  # outputs
    ])
    def test_mismatched_models_are_rejected(self, other):
        model = random_stable_model("discrete", 3, 2, seed=1)
        with pytest.raises(ValueError, match="difference system"):
            difference_system(model, other)
        with pytest.raises(ValueError, match="difference system"):
            difference_system(other, model)


class TestGenerator:
    def test_ct_quadratic_modes_have_negative_symmetric_part(self):
        model = random_stable_model("continuous", 3, 2, kind="quadratic", seed=7)
        for A in model.A:
            assert np.linalg.eigvalsh(A + A.T)[-1] < 0

    def test_dt_scalar_contracts(self):
        model = random_stable_model("discrete", 1, 1, kind="quadratic", seed=0)
        assert abs(model.A[0][0, 0]) < 1

    def test_strong_kind_is_strongly_stable(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=1)
        assert check_strong_stability(model) < 1

    def test_strong_kind_rejects_continuous(self):
        with pytest.raises(ValueError, match="discrete"):
            random_stable_model("continuous", 2, 2, kind="strong", seed=1)

    def test_deterministic_given_seed(self):
        m1 = random_stable_model("discrete", 3, 2, seed=42)
        m2 = random_stable_model("discrete", 3, 2, seed=42)
        for M1, M2 in zip(m1.A + m1.B + m1.C, m2.A + m2.B + m2.C):
            np.testing.assert_array_equal(M1, M2)


class TestSwitchingSignal:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SwitchingSignal("discrete", ())

    @pytest.mark.parametrize("dwell", [0.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_dwell(self, dwell):
        # named here, not later in simulate as a bad horizon
        with pytest.raises(ValueError, match="dwell"):
            SwitchingSignal("continuous", (0,), (dwell,))

    @pytest.mark.parametrize("modes", [(0.5, 1), (1.0,), ("0",)])
    def test_rejects_non_integer_mode(self, modes):
        with pytest.raises(ValueError, match="integer"):
            SwitchingSignal("discrete", modes)

    def test_rejects_out_of_range_mode(self, example1):
        sig = SwitchingSignal("discrete", (0, 1))
        with pytest.raises(ValueError, match="out of range"):
            sig.validate_against(example1)


class TestModelFormat:
    def test_round_trip_is_exact(self):
        model = random_stable_model("continuous", 4, 3, m=2, p=2, seed=13)
        again = loads_model(dumps_model(model))
        for M1, M2 in zip(again.A + again.B + again.C, model.A + model.B + model.C):
            np.testing.assert_array_equal(M1, M2)

    def test_rejects_ragged_rows(self):
        text = json.dumps({
            "time_domain": "discrete",
            "modes": [{"A": [[0.5]], "B": [[1.0], [2.0]], "C": [[1.0]]}],
        })
        with pytest.raises(ModelFormatError):
            loads_model(text)
        ragged = '{"time_domain": "discrete", "modes": [{"A": [[1.0, 2.0], [3.0]], "B": [[1.0],[1.0]], "C": [[1.0, 1.0]]}]}'
        with pytest.raises(ModelFormatError, match="ragged"):
            loads_model(ragged)

    def test_rejects_nonfinite_numbers(self):
        text = '{"time_domain": "discrete", "modes": [{"A": [[NaN]], "B": [[1.0]], "C": [[1.0]]}]}'
        with pytest.raises(ModelFormatError):
            loads_model(text)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ModelFormatError, match="line 1"):
            loads_model("{not json")

    def test_mode_indices_not_needed_in_format(self, example1):
        data = json.loads(dumps_model(example1))
        assert data["time_domain"] == "continuous"
        assert len(data["modes"]) == 1
        assert data["modes"][0]["A"][0] == [-2.0, 0.0, 0.0]


def test_padding_preserves_markov_parameters():
    base = random_stable_model("discrete", 2, 2, seed=3)
    padded = pad_with_dead_states(base, 2, seed=4)
    assert padded.n == 4
    assert markov_match(base, padded, max_len=4)


def test_markov_parameter_shape():
    model = random_stable_model("discrete", 3, 2, m=2, p=1, seed=9)
    M = markov_parameter(model, (0, 1))
    assert M.shape == (1 * 2, 2 * 2)


DISCRETE_ONLY = {
    "nice_grammians": nice_grammians,
    "averaged_grammians": averaged_grammians,
    "family_system Csum": lambda model: family_system(model, "Csum"),
    "family_system Osum": lambda model: family_system(model, "Osum"),
    "check_strong_stability": check_strong_stability,
    "build_uncertain_embedding": build_uncertain_embedding,
    "stochastic_embedding": stochastic_embedding,
    "feasible_block_pair": feasible_block_pair,
    "check_beck_grammian_projection":
        lambda model: check_beck_grammian_projection(model, [np.eye(3)] * 2, [np.eye(3)] * 2),
}


@pytest.mark.parametrize("entry", sorted(DISCRETE_ONLY))
def test_discrete_only_entry_points_share_one_error(example1, entry):
    with pytest.raises(ValueError) as exc:
        DISCRETE_ONLY[entry](example1)
    assert str(exc.value) == "defined for discrete-time models only, got a continuous model"
