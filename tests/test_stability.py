import numpy as np
import pytest

from lssbalred import (
    InfeasibleError,
    Isomorphism,
    LssModel,
    apply_isomorphism,
    check_quadratic_stability,
    check_strong_stability,
    lmi_grammian,
    minimize,
    random_stable_model,
    strong_implies_quadratic_witness,
)
from lssbalred.lmi import family_system, solve_feasibility
from lssbalred.model import pad_with_dead_states
from conftest import scalar_model, scalar_two_mode
from residual_oracles import dense_stein_radius, stability_residual


class TestQuadraticStability:
    def test_example1_certified(self, example1):
        cert = check_quadratic_stability(example1)
        assert cert is not None
        assert cert.family == "S"
        residual = example1.A[0].T @ cert.P + cert.P @ example1.A[0]
        assert np.linalg.eigvalsh(residual)[-1] <= -cert.margin + 1e-9

    def test_expanding_scalar_has_no_certificate(self):
        model = scalar_model("discrete", 1.5)
        assert check_quadratic_stability(model) is None

    def test_generated_two_mode_certified(self):
        model = random_stable_model("continuous", 3, 2, kind="quadratic", seed=7)
        cert = check_quadratic_stability(model)
        assert cert is not None
        assert cert.margin > 0

    def test_dt_certificate_residuals(self):
        model = random_stable_model("discrete", 3, 2, kind="quadratic", seed=9)
        cert = check_quadratic_stability(model)
        assert cert is not None
        for q in range(model.num_modes):
            assert np.linalg.eigvalsh(stability_residual(model, cert.P, q))[-1] < 0


class TestStrongStability:
    def test_scalar_two_mode_radius(self):
        report = check_strong_stability(scalar_two_mode("discrete", 0.3, 0.4))
        assert report.kronecker_spectral_radius == pytest.approx(0.25, abs=1e-12)
        assert report.stable

    def test_unstable_pair(self):
        report = check_strong_stability(scalar_two_mode("discrete", 0.8, 0.8))
        assert report.kronecker_spectral_radius == pytest.approx(1.28, abs=1e-12)
        assert not report.stable

    def test_generated_strong_model(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=1)
        report = check_strong_stability(model)
        assert report.stable

    @pytest.mark.parametrize("radius", [None, 1e-2, 1e-4], ids=["diag", "1e-2", "1e-4"])
    def test_small_radius_models(self, radius):
        # a radius far below 1 must still converge, by gaps relative to it
        if radius is None:  # diag(0.01, 0.005): radius 0.01^2 = 1e-4
            model = LssModel("discrete", (np.diag([0.01, 0.005]),), (np.ones((2, 1)),),
                             (np.ones((1, 2)),))
        else:
            model = random_stable_model("discrete", 5, 2, kind="strong", seed=2,
                                        strong_radius=radius)
        report = check_strong_stability(model)
        ref = dense_stein_radius(model.A)
        assert report.stable
        assert abs(report.kronecker_spectral_radius - ref) <= 1e-9 * ref
        assert strong_implies_quadratic_witness(model).margin > 0

    def test_continuous_model_rejected(self, example1):
        with pytest.raises(ValueError, match="discrete-time"):
            check_strong_stability(example1)

    def test_isomorphism_invariance_of_radius(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=3)
        rng = np.random.default_rng(5)
        S = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        mapped = apply_isomorphism(model, Isomorphism(S))
        r1 = check_strong_stability(model).kronecker_spectral_radius
        r2 = check_strong_stability(mapped).kronecker_spectral_radius
        assert abs(r1 - r2) <= 1e-8 * max(1.0, r1)


class TestWitness:
    def test_scalar_two_mode_closed_form(self, dt_two_mode):
        cert = strong_implies_quadratic_witness(dt_two_mode)
        np.testing.assert_allclose(cert.P, [[4.0 / 3.0]], rtol=1e-12)

    def test_scalar_single_mode_closed_form(self, dt_scalar):
        cert = strong_implies_quadratic_witness(dt_scalar)
        np.testing.assert_allclose(cert.P, [[4.0 / 3.0]], rtol=1e-12)

    def test_witness_solves_fixed_point_and_certifies(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=4)
        cert = strong_implies_quadratic_witness(model)
        lhs = sum(A.T @ cert.P @ A for A in model.A) + np.eye(2)
        np.testing.assert_allclose(lhs, cert.P, atol=1e-9)
        assert cert.margin > 0

    def test_witness_matches_truncated_series(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=6,
                                    strong_radius=0.6)
        cert = strong_implies_quadratic_witness(model)
        # series for P = sum_w A_w^T A_w over all words (G = I)
        depth = 60  # 0.6^60 << 1e-12
        layer = np.eye(2)
        total = np.eye(2)
        for _ in range(depth):
            layer = sum(A.T @ layer @ A for A in model.A)
            total += layer
        np.testing.assert_allclose(cert.P, total, atol=1e-8)

    def test_not_strongly_stable_rejected(self):
        with pytest.raises(InfeasibleError, match="strongly stable"):
            strong_implies_quadratic_witness(scalar_two_mode("discrete", 0.8, 0.8))


class TestLemmaChains:
    def test_minimization_preserves_strong_stability(self):
        for seed in range(10):
            base = random_stable_model("discrete", 3, 2, kind="strong", seed=seed)
            padded = pad_with_dead_states(base, 2, seed=seed + 100)
            mini = minimize(padded)
            assert check_strong_stability(mini).stable

    def test_quadratic_stability_iff_strict_grammian_feasibility(self):
        # forward: certificate exists -> both grammian families feasible
        for td in ("continuous", "discrete"):
            model = random_stable_model(td, 3, 2, kind="quadratic", seed=17)
            assert check_quadratic_stability(model) is not None
            for kind in ("controllability", "observability"):
                G = lmi_grammian(model, kind, tighten=False)
                assert G is not None
        # backward: grammian feasibility -> stability certificate
        model = random_stable_model("discrete", 3, 2, kind="quadratic", seed=23)
        result = solve_feasibility(family_system(model, "O"))
        assert result.feasible
        assert check_quadratic_stability(model) is not None

    def test_strong_stability_implies_solver_feasibility(self):
        for seed in range(5):
            model = random_stable_model("discrete", 3, 2, kind="strong", seed=seed)
            result = solve_feasibility(family_system(model, "S"))
            assert result.feasible

    def test_solver_streams_diagnostics(self):
        model = random_stable_model("discrete", 2, 2, kind="quadratic", seed=3)
        trace = []
        solve_feasibility(family_system(model, "S"),
                          callback=lambda it, res: trace.append((it, res)))
        assert trace
        assert trace[0][0] == 1
