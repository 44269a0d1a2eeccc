import numpy as np
import pytest

from lssbalred import (
    GrammianPair,
    InfeasibleError,
    check_membership,
    compute_pair,
    dual_system,
    empirical_gain,
    empirical_hankel_gain,
    gamma_feasible,
    hankel_upper_bound,
    l2_gain_upper_bound,
    lmi_grammian,
    minimize,
    random_stable_model,
    reduce_model,
)
from lssbalred.model import difference_system, pad_with_dead_states
from conftest import scalar_model
from residual_oracles import bisection_gain, gain_residual


class TestGammaFeasible:
    def test_scalar_ct_feasible_above_true_gain(self, ct_scalar):
        cert = gamma_feasible(ct_scalar, 2.0)
        assert cert is not None
        assert all(r < 0 for r in cert.residuals)
        # re-evaluate the block residual independently
        R = gain_residual(ct_scalar, cert.P, 2.0, 0)
        assert np.linalg.eigvalsh(R)[-1] < 0

    def test_scalar_ct_infeasible_below_true_gain(self, ct_scalar):
        assert gamma_feasible(ct_scalar, 0.5) is None

    def test_scalar_dt_feasible_at_three(self, dt_scalar):
        cert = gamma_feasible(dt_scalar, 3.0)
        assert cert is not None
        assert all(r < 0 for r in cert.residuals)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_gamma(self, ct_scalar, gamma):
        # NaN passes a `gamma <= 0` test; every bad gamma is named before the solve
        with pytest.raises(ValueError, match="gamma"):
            gamma_feasible(ct_scalar, gamma)


class TestBisection:
    def test_scalar_ct_converges_to_one(self, ct_scalar):
        gamma, cert = l2_gain_upper_bound(ct_scalar, tol=1e-3)
        assert 1.0 <= gamma <= 1.002
        assert all(r < 0 for r in cert.residuals)

    def test_scalar_dt_converges_to_two(self, dt_scalar):
        gamma, cert = l2_gain_upper_bound(dt_scalar, tol=1e-3)
        assert 2.0 <= gamma <= 2.004

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_or_nan_tol(self, ct_scalar, tol):
        with pytest.raises(ValueError, match="tol"):
            l2_gain_upper_bound(ct_scalar, tol=tol)

    def test_unstable_model_rejected(self):
        with pytest.raises(InfeasibleError):
            l2_gain_upper_bound(scalar_model("discrete", 1.5))

    @pytest.mark.parametrize("model", [
        random_stable_model("discrete", 8, 3, m=1, p=2, seed=6),
        random_stable_model("continuous", 6, 2, m=2, p=2, seed=3),
    ], ids=["dt-n8-D3", "ct-n6-D2"])
    def test_no_worse_than_bisection_oracle(self, model):
        tol = 1e-3
        gamma, cert = l2_gain_upper_bound(model, tol=tol)
        oracle, _ = bisection_gain(model, tol=tol)
        assert gamma <= oracle * (1.0 + tol)
        assert cert.gamma == gamma
        assert check_membership(model, cert.P, "G", gamma).member()

    def test_error_system_of_a_reduction_is_certified(self):
        """A 12-state error system whose min-gamma^2 solve by Douglas-Rachford
        ran its whole budget without a certificate, though gamma* = 3.3005."""
        model = random_stable_model("discrete", 8, 2, m=1, p=1, kind="strong", seed=2)
        red = reduce_model(model, compute_pair(model, "nice"), order=4).reduced_model
        E = dual_system(difference_system(model, red))
        gamma, cert = l2_gain_upper_bound(E)
        assert gamma <= 3.31
        assert check_membership(E, cert.P, "G", gamma).member()

    def test_two_mode_ct_upper_bounds_empirical_gain(self):
        model = random_stable_model("continuous", 3, 2, kind="quadratic", seed=33)
        gamma, _ = l2_gain_upper_bound(model, tol=1e-3)
        est = empirical_gain(model, 60, 40.0, seed=7, h=0.02)
        assert est.lower_bound <= gamma + 1e-3


class TestHankelBound:
    def test_example1_pair(self, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        assert hankel_upper_bound(pair) == pytest.approx(2.0)

    def test_identity_pair(self):
        assert hankel_upper_bound(GrammianPair(np.eye(3), np.eye(3), "manual")) == pytest.approx(1.0)

    def test_scalar_ct_tight_pair_dominates_empirical(self, ct_scalar):
        P = lmi_grammian(ct_scalar, "controllability")
        Q = lmi_grammian(ct_scalar, "observability")
        smax = hankel_upper_bound(GrammianPair(P, Q, "lmi"))
        assert smax == pytest.approx(0.5, abs=0.02)
        est = empirical_hankel_gain(ct_scalar, 150, 40.0, seed=3, h=0.02)
        assert est.lower_bound <= smax + 1e-3

    def test_example1_hankel_estimate_below_sigma_max(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        assert hankel_upper_bound(pair) == 2.0
        est = empirical_hankel_gain(example1, 100, 30.0, seed=4, h=0.02)
        assert est.lower_bound <= 2.0 + 1e-3


class TestOrderingChain:
    @pytest.mark.parametrize("td,seed", [("continuous", 40), ("discrete", 41)])
    def test_empirical_le_gamma_and_hankel_le_sigma(self, td, seed):
        model = random_stable_model(td, 3, 2, kind="quadratic", seed=seed)
        h = None if td == "discrete" else 0.02
        horizon = 300 if td == "discrete" else 40.0
        gamma, _ = l2_gain_upper_bound(model, tol=1e-3)
        P = lmi_grammian(model, "controllability", tighten=False)
        Q = lmi_grammian(model, "observability", tighten=False)
        smax = hankel_upper_bound(GrammianPair(P, Q, "lmi"))
        eg = empirical_gain(model, 60, horizon, seed=seed, h=h)
        eh = empirical_hankel_gain(model, 60, horizon, seed=seed, h=h)
        assert eh.lower_bound <= eg.lower_bound + 1e-3
        assert eg.lower_bound <= gamma + 1e-3
        assert eh.lower_bound <= smax + 1e-3

    def test_minimality_never_hurts(self, example1):
        padded = pad_with_dead_states(example1, 1, seed=50)
        g_padded, _ = l2_gain_upper_bound(padded, tol=1e-3)
        g_min, _ = l2_gain_upper_bound(minimize(padded), tol=1e-3)
        assert g_min <= g_padded + 1e-3 * max(1.0, g_padded)
