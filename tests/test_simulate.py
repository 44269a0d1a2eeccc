from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lssbalred import (
    GrammianPair,
    LssModel,
    SwitchingSignal,
    check_energy_lemmas,
    compute_pair,
    decay_horizon,
    empirical_gain,
    empirical_hankel_gain,
    nice_grammians,
    random_stable_model,
    reduce_model,
    simulate,
    verify_error_bound,
    zoh_input_norm,
)
from lssbalred.balred import balance, truncate
from lssbalred.model import difference_system
from lssbalred.simulate import (
    _ct_run_batch,
    _dt_run_batch,
    _zoh,
    random_switching,
    steps_from_signal,
)
from lssbalred.stability import check_quadratic_stability


class TestSimulate:
    def test_dt_impulse_response(self, dt_scalar):
        sig = SwitchingSignal("discrete", (0,) * 6)
        u = np.zeros((6, 1))
        u[0, 0] = 1.0
        traj = simulate(dt_scalar, u, sig)
        np.testing.assert_allclose(
            traj.outputs.ravel(), [0.0, 1.0, 0.5, 0.25, 0.125, 0.0625]
        )

    def test_dt_recursion_is_exact(self):
        # Every returned x(t+1) and y(t) is within the forward error bound of
        # dot products summed in any order (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., sec. 3.1) of the exact rational value
        # of A_q x(t) + B_q u(t) and C_q x(t) at the returned x(t):
        # gamma_k (|A_q| |x(t)| + |B_q| |u(t)|) with k = n + m, and
        # gamma_n |C_q| |x(t)|, where gamma_k = k e / (1 - k e) with the unit
        # roundoff e = eps / 2.
        # The bound holds for any BLAS kernel.  Seven trials run different
        # modes at the same step, so picking another trial's mode fails.
        n, D, m, R, N = 3, 3, 2, 7, 20
        model = random_stable_model("discrete", n, D, m=m, p=2, seed=1)
        rng = np.random.default_rng(2)
        modes = rng.integers(0, D, size=(R, N))
        assert all(len(set(modes[:, t])) > 1 for t in range(N))
        u = rng.standard_normal((R, N, m))
        states, outputs = _dt_run_batch(model, modes, u)
        assert np.all(states[:, 0] == 0.0)

        def gamma(k):
            unit = Fraction(1, 2**53)
            return k * unit / (1 - k * unit)

        def check(M, v, got, k):
            for i in range(M.shape[0]):
                terms = [Fraction(a) * Fraction(b) for a, b in zip(M[i], v)]
                bound = gamma(k) * sum(abs(t) for t in terms)
                assert abs(Fraction(got[i]) - sum(terms)) <= bound

        for r in range(R):
            for t in range(N):
                A, B, C = model.mode(modes[r, t])
                x = states[r, t]
                check(np.hstack([A, B]), np.concatenate([x, u[r, t]]), states[r, t + 1], n + m)
                check(C, x, outputs[r, t], n)

    def test_ct_zero_input_zero_output(self, example1):
        sig = SwitchingSignal("continuous", (0,), (2.0,))
        u = np.zeros((200, 1))
        traj = simulate(example1, u, sig, h=0.01)
        assert np.all(traj.outputs == 0.0)
        assert np.all(traj.states == 0.0)

    def test_ct_first_order_step_response(self, ct_scalar):
        sig = SwitchingSignal("continuous", (0,), (5.0,))
        h = 1e-3
        u = np.ones((round(5.0 / h), 1))
        traj = simulate(ct_scalar, u, sig, h=h)
        assert traj.outputs[-1, 0] == pytest.approx(1.0 - np.exp(-5.0), abs=1e-8)

    def test_ct_requires_aligned_step(self, ct_scalar):
        sig = SwitchingSignal("continuous", (0,), (1.05,))
        u = np.zeros((10, 1))
        with pytest.raises(ValueError, match="divide"):
            simulate(ct_scalar, u, sig, h=0.1)

    def test_mode_out_of_range(self, ct_scalar):
        sig = SwitchingSignal("continuous", (1,), (1.0,))
        with pytest.raises(ValueError, match="out of range"):
            simulate(ct_scalar, np.zeros((10, 1)), sig, h=0.1)

    def test_switching_is_applied_per_step(self):
        A1 = np.array([[0.5]])
        A2 = np.array([[-0.5]])
        model = LssModel("discrete", (A1, A2), (np.eye(1),) * 2, (np.eye(1),) * 2)
        sig = SwitchingSignal("discrete", (0, 1, 0))
        u = np.array([[1.0], [0.0], [0.0]])
        traj = simulate(model, u, sig)
        # x: 0 -> 1 (mode 0) -> -0.5 (mode 1) -> -0.25 (mode 0)
        np.testing.assert_allclose(traj.states.ravel(), [0.0, 1.0, -0.5, -0.25])

    def test_batch_matches_single(self):
        model = random_stable_model("discrete", 3, 2, m=2, p=1, seed=5)
        rng = np.random.default_rng(6)
        N = 15
        modes = rng.integers(0, 2, size=(1, N))
        u = rng.standard_normal((1, N, 2))
        states, outputs = _dt_run_batch(model, modes, u)
        sig = SwitchingSignal("discrete", tuple(int(q) for q in modes[0]))
        traj = simulate(model, u[0], sig)
        np.testing.assert_allclose(states[0], traj.states, atol=1e-12)
        np.testing.assert_allclose(outputs[0], traj.outputs, atol=1e-12)

    def test_ct_batch_matches_single(self):
        model = random_stable_model("continuous", 3, 2, m=1, p=2, seed=7)
        rng = np.random.default_rng(8)
        h = 0.05
        sig = random_switching(2, "continuous", rng, 2.0, h=h)
        steps = steps_from_signal(sig, h=h)
        u = rng.standard_normal((steps.size, 1))
        traj = simulate(model, u, sig, h=h)
        states, outputs, _ = _ct_run_batch(model, steps[None, :], u[None, :, :], h)
        np.testing.assert_allclose(states[0], traj.states, atol=1e-12)
        np.testing.assert_allclose(outputs[0], traj.outputs, atol=1e-12)

    def test_ct_step_response_is_exact(self, ct_scalar):
        # x' = -x + 1 from 0 gives y = x = 1 - e^{-t} at every grid point
        h = 0.1
        sig = SwitchingSignal("continuous", (0,), (5.0,))
        traj = simulate(ct_scalar, np.ones((50, 1)), sig, h=h)
        exact = 1.0 - np.exp(-traj.times)
        np.testing.assert_allclose(traj.states[:, 0], exact, rtol=0, atol=1e-13)
        np.testing.assert_allclose(traj.outputs[:, 0], exact, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("a", [1.0, 1000.0])
    def test_ct_held_input_energy_is_exact(self, a):
        # x' = -a x + u, y = x; on a step with held u from x(t_k) = x,
        # y(s) = c + d e^{-a s} with c = u / a, d = x - c, so the integral of
        # y^2 over [0, h] is c^2 h + 2 c d (1 - e^{-ah}) / a
        # + d^2 (1 - e^{-2ah}) / (2a); a h = 100 makes the mode stiff
        model = LssModel("continuous", (np.array([[-a]]),), (np.eye(1),), (np.eye(1),))
        h, N = 0.1, 30
        rng = np.random.default_rng(4)
        u = rng.standard_normal((N, 1))
        sig = SwitchingSignal("continuous", (0,), (N * h,))
        traj = simulate(model, u, sig, h=h)
        c = u[:, 0] / a
        d = traj.states[:-1, 0] - c
        steps = (c**2 * h + 2.0 * c * d * (1.0 - np.exp(-a * h)) / a
                 + d**2 * (1.0 - np.exp(-2.0 * a * h)) / (2.0 * a))
        np.testing.assert_allclose(traj.energy, steps, rtol=1e-13, atol=1e-15)
        assert traj.output_norm == pytest.approx(np.sqrt(np.sum(steps)), rel=1e-13)

    def test_ct_step_energy_is_the_zoh_quadratic_form(self):
        # each step's energy is [x; u]^T W_q [x; u] with W_q = G_q^T G_q, at
        # the trial's own mode; mode 1 has C = 0, so its W and G are zero and
        # the energy of its steps is exactly zero
        base = random_stable_model("continuous", 3, 3, m=2, p=2, kind="quadratic", seed=11)
        C = (base.C[0], np.zeros((2, 3)), base.C[2])
        model = LssModel("continuous", base.A, base.B, C)
        h = 0.05
        rng = np.random.default_rng(12)
        modes = rng.integers(0, 3, size=(5, 40))
        u = rng.standard_normal((5, 40, 2))
        states, _, energy = _ct_run_batch(model, modes, u, h)
        _, G = _zoh(model, h)
        W = G.transpose(0, 2, 1) @ G
        xu = np.concatenate([states[:, :-1], u], axis=2)
        expected = np.einsum("rti,rtij,rtj->rt", xu, W[modes], xu)
        live = modes != 1
        np.testing.assert_allclose(energy[live], expected[live], rtol=1e-12, atol=0)
        assert np.all(energy[~live] == 0.0)

    def test_ct_refined_grid_gives_the_same_trajectory(self):
        # the same held input and switching sampled on h and on h/2 (each
        # sample repeated) is the same continuous-time signal, so an exact
        # simulation agrees on the common grid and in the output norm
        model = random_stable_model("continuous", 3, 2, m=2, p=2, kind="quadratic", seed=3)
        rng = np.random.default_rng(5)
        h = 0.1
        sig = SwitchingSignal("continuous", (0, 1, 0), (0.7, 1.2, 0.5))
        u = rng.standard_normal((24, 2))
        coarse = simulate(model, u, sig, h=h)
        fine = simulate(model, np.repeat(u, 2, axis=0), sig, h=h / 2)
        np.testing.assert_allclose(fine.states[::2], coarse.states, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(coarse.states)))
        np.testing.assert_allclose(fine.outputs[::2], coarse.outputs, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(coarse.outputs)))
        assert fine.output_norm == pytest.approx(coarse.output_norm, rel=1e-12)
        assert zoh_input_norm(fine.inputs, h=h / 2) == pytest.approx(
            zoh_input_norm(u, h=h), rel=1e-15)


class TestNorms:
    def test_dt_pythagorean(self):
        assert zoh_input_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zoh_norm_exact_for_held_input(self):
        u = np.array([[1.0], [2.0], [0.0]])
        assert zoh_input_norm(u, h=0.5) == pytest.approx(np.sqrt(0.5 * 5.0))
        assert zoh_input_norm(u) == pytest.approx(np.sqrt(5.0))


class TestEmpiricalGain:
    def test_scalar_ct_approaches_one(self, ct_scalar):
        est = empirical_gain(ct_scalar, 200, 40.0, seed=1, h=0.02)
        assert 0.8 < est.lower_bound <= 1.0 + 1e-9

    def test_scalar_dt_approaches_two(self, dt_scalar):
        est = empirical_gain(dt_scalar, 200, 300, seed=1)
        assert 1.6 < est.lower_bound <= 2.0 + 1e-9

    def test_zero_output_model(self):
        model = LssModel("discrete", (np.array([[0.5]]),),
                         (np.array([[1.0]]),), (np.array([[0.0]]),))
        est = empirical_gain(model, 20, 50, seed=0)
        assert est.lower_bound == 0.0

    def test_deterministic_given_seed(self, dt_scalar):
        e1 = empirical_gain(dt_scalar, 25, 100, seed=9)
        e2 = empirical_gain(dt_scalar, 25, 100, seed=9)
        assert e1.lower_bound == e2.lower_bound
        assert e1.best_witness == e2.best_witness

    def test_witness_is_replayable(self, dt_scalar):
        est = empirical_gain(dt_scalar, 25, 100, seed=11)
        traj = simulate(dt_scalar, est.witness_input, est.witness_switching)
        ratio = zoh_input_norm(traj.outputs) / zoh_input_norm(est.witness_input)
        assert ratio == pytest.approx(est.lower_bound, rel=1e-12)

    def test_ct_witness_is_replayable(self):
        model = random_stable_model("continuous", 3, 2, kind="quadratic", seed=12)
        h = 0.05
        est = empirical_gain(model, 20, 10.0, seed=13, h=h)
        traj = simulate(model, est.witness_input, est.witness_switching, h=h)
        ratio = traj.output_norm / zoh_input_norm(est.witness_input, h=h)
        assert ratio == pytest.approx(est.lower_bound, rel=1e-12)


class TestErrorBound:
    def test_example1_golden_bound(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        res = reduce_model(example1, order=2, pair=pair)
        rep = verify_error_bound(example1, res, trials=40, horizon=30.0, seed=1, h=0.02)
        assert rep.bound == pytest.approx(1.0)
        assert rep.passed
        assert rep.worst_ratio <= 1.0

    def test_no_truncation_gives_zero_error(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        bal = balance(example1, pair)
        res = truncate(bal, 3)
        rep = verify_error_bound(example1, res, trials=10, horizon=20.0, seed=2, h=0.02)
        assert rep.worst_ratio <= 1e-9

    def test_equivalent_ct_model_gives_zero_error(self):
        # an isomorphic copy has the same output, so the exact error energy
        # must cancel to rounding: |y - y'| stays at rounding level, where a
        # plain quadratic form [x; x'; u]^T W [x; x'; u] leaves its square root
        model = random_stable_model("continuous", 4, 2, m=1, kind="quadratic", seed=4)
        T = np.eye(4) + 0.3 * np.random.default_rng(0).standard_normal((4, 4))
        Ti = np.linalg.inv(T)
        twin = LssModel("continuous", tuple(T @ A @ Ti for A in model.A),
                        tuple(T @ B for B in model.B), tuple(C @ Ti for C in model.C))
        result = SimpleNamespace(reduced_model=twin, apriori_bound=0.0)
        rep = verify_error_bound(model, result, trials=20, horizon=20.0, seed=1, h=0.02)
        assert rep.worst_ratio <= 1e-10

    @pytest.mark.parametrize("domain", ["discrete", "continuous"])
    def test_witness_replays_the_worst_ratio(self, example1, example1_lambda, domain):
        if domain == "discrete":
            model, h, horizon = random_stable_model(domain, 4, 2, kind="strong", seed=3), None, 60
            res = reduce_model(model, compute_pair(model, "nice"), order=2, force_ties=True)
        else:
            model, h, horizon = example1, 0.02, 10.0
            pair = GrammianPair(example1_lambda, example1_lambda, "manual")
            res = reduce_model(model, order=2, pair=pair)
        rep = verify_error_bound(model, res, trials=20, horizon=horizon, seed=4, h=h)
        est = rep.estimate
        traj = simulate(difference_system(model, res.reduced_model), est.witness_input,
                        est.witness_switching, h=h)
        ratio = traj.output_norm / zoh_input_norm(est.witness_input, h=h)
        assert ratio == pytest.approx(rep.worst_ratio, rel=1e-12)
        assert rep.worst_ratio > 0

    def test_random_dt_models_with_nice_grammians_pass(self):
        for seed in range(20):
            model = random_stable_model("discrete", 4, 2, kind="strong", seed=seed)
            res = reduce_model(model, compute_pair(model, "nice"), order=2, force_ties=True)
            rep = verify_error_bound(model, res, trials=50, horizon=200, seed=seed)
            assert rep.passed, (seed, rep)


    def test_result_of_another_model_is_rejected(self):
        model = random_stable_model("discrete", 4, 2, kind="strong", seed=3)
        other = random_stable_model("discrete", 4, 3, kind="strong", seed=3)
        res = reduce_model(other, compute_pair(other, "nice"), order=2, force_ties=True)
        with pytest.raises(ValueError, match="difference system"):
            verify_error_bound(model, res, trials=5, horizon=20, seed=1)


class TestEnergyLemmas:
    def test_zero_input_trivially_passes(self, ct_scalar):
        pair = GrammianPair(np.array([[0.5]]), np.array([[0.5]]), "manual")
        rep = check_energy_lemmas(ct_scalar, pair, trials=5, seed=0, horizon=10.0, h=0.02)
        assert rep.passed

    def test_scalar_ct_reachable_states_bounded(self, ct_scalar):
        # with P = 0.5 a unit-energy input cannot push |x| beyond 1/sqrt(2)
        pair = GrammianPair(np.array([[0.5]]), np.array([[0.5]]), "manual")
        rng = np.random.default_rng(3)
        h = 0.01
        N = 1000
        sig = SwitchingSignal("continuous", (0,), (float(N) * h,))
        u = rng.standard_normal((N, 1))
        u /= zoh_input_norm(u, h=h)
        traj = simulate(ct_scalar, u, sig, h=h)
        assert np.max(np.abs(traj.states)) <= 1.0 / np.sqrt(2.0) + 1e-6
        rep = check_energy_lemmas(ct_scalar, pair, trials=40, seed=4, horizon=10.0, h=0.01)
        assert rep.passed

    def test_example1_with_lambda(self, example1, example1_lambda):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        rep = check_energy_lemmas(example1, pair, trials=50, seed=5, horizon=30.0, h=0.02)
        assert rep.passed

    def test_dt_model_with_nice_grammians(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=8)
        pair = nice_grammians(model)
        rep = check_energy_lemmas(model, pair, trials=50, seed=6, horizon=150)
        assert rep.passed


class TestEmptyRuns:
    """A batch with no trial or no step estimates nothing and must not pass."""

    NO_TRIAL = "at least one trial"
    NO_STEP = "shorter than one step"
    INFINITE = "not a finite number of steps"
    BAD_STEP = "finite positive step"

    @pytest.mark.parametrize("trials, horizon, error",
                             [(0, 10.0, NO_TRIAL), (5, 0.0, NO_STEP), (5, 0.004, NO_STEP),
                              (5, np.inf, INFINITE)])
    def test_verify_error_bound(self, example1, example1_lambda, trials, horizon, error):
        pair = GrammianPair(example1_lambda, example1_lambda, "manual")
        res = reduce_model(example1, order=2, pair=pair)
        with pytest.raises(ValueError, match=error):
            verify_error_bound(example1, res, trials=trials, horizon=horizon, seed=1, h=0.01)

    @pytest.mark.parametrize("trials, horizon, error",
                             [(0, 50, NO_TRIAL), (5, 0, NO_STEP), (5, np.inf, INFINITE)])
    def test_empirical_gain(self, dt_scalar, trials, horizon, error):
        with pytest.raises(ValueError, match=error):
            empirical_gain(dt_scalar, trials, horizon, seed=1)

    @pytest.mark.parametrize("trials, horizon, h, error", [
        (0, 5.0, 0.1, NO_TRIAL), (5, 0.0, 0.1, NO_STEP), (5, 5.0, None, "positive step"),
        (5, np.inf, 0.1, INFINITE), (5, 5.0, np.nan, BAD_STEP), (5, 5.0, np.inf, BAD_STEP),
    ])
    def test_empirical_hankel_gain(self, ct_scalar, trials, horizon, h, error):
        with pytest.raises(ValueError, match=error):
            empirical_hankel_gain(ct_scalar, trials, horizon, seed=1, h=h)

    @pytest.mark.parametrize("trials, horizon, error",
                             [(0, 50, NO_TRIAL), (5, 0, NO_STEP), (5, np.inf, INFINITE)])
    def test_check_energy_lemmas(self, dt_scalar, trials, horizon, error):
        pair = GrammianPair(np.array([[4.0 / 3.0]]), np.array([[4.0 / 3.0]]), "manual")
        with pytest.raises(ValueError, match=error):
            check_energy_lemmas(dt_scalar, pair, trials=trials, seed=1, horizon=horizon)

    @pytest.mark.parametrize("h", [0.0, -0.1, np.nan, np.inf])
    def test_random_switching_and_decay_horizon_name_a_bad_step(self, ct_scalar, h):
        # these used to divide by zero, fail to round NaN, or return an
        # empty signal or a negative horizon
        with pytest.raises(ValueError, match=self.BAD_STEP):
            random_switching(1, "continuous", np.random.default_rng(0), 5.0, h=h)
        with pytest.raises(ValueError, match=self.BAD_STEP):
            decay_horizon(ct_scalar, check_quadratic_stability(ct_scalar), h=h)

    @pytest.mark.parametrize("h", [0.37, 5.0])
    def test_discrete_runs_take_no_step(self, h):
        # h used to be ignored: the same bound, and a trajectory with h None
        model = random_stable_model("discrete", 3, 2, seed=1)
        with pytest.raises(ValueError, match="no step"):
            empirical_gain(model, 5, 20, seed=1, h=h)
        sig = SwitchingSignal("discrete", (0, 1, 0))
        with pytest.raises(ValueError, match="no step"):
            simulate(model, np.zeros((3, 1)), sig, h=h)
        with pytest.raises(ValueError, match="no step"):
            decay_horizon(model, check_quadratic_stability(model), h=h)

    @pytest.mark.parametrize("time_domain, h", [("discrete", None), ("continuous", 0.1)])
    def test_random_switching_rejects_an_infinite_horizon(self, time_domain, h):
        with pytest.raises(ValueError, match=self.INFINITE):
            random_switching(2, time_domain, np.random.default_rng(0), np.inf, h=h)


class TestDecayHorizon:
    def test_dt_horizon_reasonable(self, dt_scalar):
        cert = check_quadratic_stability(dt_scalar)
        steps = decay_horizon(dt_scalar, cert)
        assert 8 <= steps <= 10**5
        # 0.5^(2k) decay: ~27 steps reach 1e-8
        assert steps < 500

    def test_ct_horizon_scales_with_margin(self, ct_scalar):
        cert = check_quadratic_stability(ct_scalar)
        T = decay_horizon(ct_scalar, cert, h=0.01)
        assert T > 0
