"""Acceptance suite: every entry exercises one top-level requirement at its
stated tolerance and prints one PASS/FAIL line.  Run with -s (or -rA) to see
the lines; all randomness is seeded."""

import time

import numpy as np

from lssbalred import (
    GrammianPair,
    Isomorphism,
    apply_isomorphism,
    averaged_grammians,
    balance,
    check_membership,
    check_quadratic_stability,
    check_strong_stability,
    check_energy_lemmas,
    check_uncertain_minimality_equivalence,
    empirical_gain,
    empirical_hankel_gain,
    gamma_feasible,
    hankel_upper_bound,
    is_minimal,
    l2_gain_upper_bound,
    lmi_grammian,
    minimize,
    minimize_with_pair,
    monte_carlo_stochastic_energy,
    nice_grammians,
    random_stable_model,
    singular_values,
    transport_pair,
    truncate,
    verify_error_bound,
)
from lssbalred.balred import admissible_orders, compute_pair
from lssbalred.grammians import pair_margin
from lssbalred.model import LssModel, pad_with_dead_states
from lssbalred.realization import reachable_subspace, unobservable_subspace
from conftest import scalar_model, scalar_two_mode
from residual_oracles import (
    exhaustive_stochastic_energy,
    nice_grammian_series_oracle,
    truncated_hankel_square_sum,
)


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Example 1 golden values
# ---------------------------------------------------------------------------


def test_criterion_1_example1_golden(example1, example1_lambda):
    t0 = time.time()
    obs = check_membership(example1, example1_lambda, "O")
    ctrl = check_membership(example1, example1_lambda, "C")
    ok = obs.worst < 0 and ctrl.worst < 0

    pair = GrammianPair(example1_lambda, example1_lambda, "manual")
    bal = balance(example1, pair)
    res = truncate(bal, 2)
    ok &= np.array_equal(res.reduced_model.A[0], np.diag([-2.0, -1.0]))
    ok &= np.array_equal(res.reduced_model.B[0], [[1.0], [0.0]])
    ok &= np.array_equal(res.reduced_model.C[0], [[1.0, 1.0]])
    ok &= not is_minimal(res.reduced_model)
    ok &= res.apriori_bound == 1.0
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report("criterion 1: balanced-pair membership and exact order-2 truncation",
           ok, f"{elapsed:.3f}s, residuals {obs.worst:.3f}/{ctrl.worst:.3f}")


# ---------------------------------------------------------------------------
# 2. Error-bound Monte Carlo
# ---------------------------------------------------------------------------


def _bound_check_suite(time_domain, num_models, horizon, h, seed0):
    worst_excess = -np.inf
    tested = 0
    for s in range(num_models):
        rng = np.random.default_rng(seed0 + s)
        n = int(rng.integers(2, 7))
        D = int(rng.integers(1, 4))
        model = random_stable_model(
            time_domain, n, D, m=int(rng.integers(1, 3)),
            p=int(rng.integers(1, 3)), kind="quadratic", seed=seed0 + 10 * s,
        )
        pair = compute_pair(model, source="lmi", tighten=False)
        bal = balance(model, pair)
        for r in admissible_orders(bal.sigmas):
            res = truncate(bal, r)
            rep = verify_error_bound(model, res, trials=50, horizon=horizon,
                                     seed=seed0 + s, h=h)
            worst_excess = max(worst_excess, rep.worst_ratio - (rep.bound + 1e-5))
            tested += 1
            if worst_excess > 0:
                return worst_excess, tested
    return worst_excess, tested


def test_criterion_2_error_bound_monte_carlo():
    t0 = time.time()
    excess_dt, tested_dt = _bound_check_suite("discrete", 100, 250, None, 1000)
    excess_ct, tested_ct = _bound_check_suite("continuous", 50, 30.0, 0.02, 9000)
    elapsed = time.time() - t0
    ok = excess_dt <= 0 and excess_ct <= 0
    ok &= tested_dt >= 200 and tested_ct >= 100
    ok &= elapsed < 300.0
    report("criterion 2: output error within 2*sum(discarded sigmas) on random models",
           ok, f"{tested_dt} dt + {tested_ct} ct reductions, "
               f"max excess {max(excess_dt, excess_ct):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Trace identity
# ---------------------------------------------------------------------------


def test_criterion_3_trace_identity():
    worst = 0.0
    for s in range(30):
        rng = np.random.default_rng(300 + s)
        n = int(rng.integers(1, 5))
        D = int(rng.integers(1, 4))
        model = random_stable_model("discrete", n, D, kind="strong",
                                    seed=400 + s,
                                    strong_radius=float(rng.uniform(0.3, 0.9)))
        pair = nice_grammians(model)
        exact = float(np.trace(pair.P_ctrl @ pair.Q_obs))
        approx, _ = truncated_hankel_square_sum(model, tol=1e-8)
        worst = max(worst, abs(exact - approx))
    report("criterion 3: trace(P Q) equals the Hankel-block Frobenius sum",
           worst <= 1e-6, f"worst |difference| {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Invariance under isomorphisms, interlacing under minimization
# ---------------------------------------------------------------------------


def test_criterion_4_invariance_suite():
    sigma_err = 0.0
    membership_ok = True
    for s in range(50):
        rng = np.random.default_rng(500 + s)
        td = "continuous" if s % 2 == 0 else "discrete"
        n = int(rng.integers(2, 5))
        model = random_stable_model(td, n, int(rng.integers(1, 3)),
                                    kind="quadratic", seed=600 + s)
        P = lmi_grammian(model, "controllability", tighten=False)
        Q = lmi_grammian(model, "observability", tighten=False)
        cert = check_quadratic_stability(model)
        gamma = 4.0 * max(
            float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))
            for B, C in zip(model.B, model.C)
        ) + 1.0
        gain = gamma_feasible(model, gamma)
        S = rng.standard_normal((n, n)) + (2.0 + n) * np.eye(n)
        iso = Isomorphism(S)
        mapped = apply_isomorphism(model, iso)
        pair = GrammianPair(P, Q, "lmi")
        moved = transport_pair(pair, iso)
        membership_ok &= check_membership(mapped, moved.P_ctrl, "C").member()
        membership_ok &= check_membership(mapped, moved.Q_obs, "O").member()
        if cert is not None:
            movedS = iso.inv.T @ cert.P @ iso.inv
            membership_ok &= check_membership(mapped, movedS, "S").member()
        if gain is not None:
            movedG = iso.inv.T @ gain.P @ iso.inv
            membership_ok &= check_membership(mapped, movedG, "G", gamma=gamma).member()
        sigma_err = max(sigma_err, float(np.max(np.abs(
            singular_values(moved).values - singular_values(pair).values
        ))))

    interlace_err = 0.0
    for s in range(15):
        rng = np.random.default_rng(700 + s)
        td = "continuous" if s % 2 == 0 else "discrete"
        n = int(rng.integers(2, 5))
        base = random_stable_model(td, n, 2, kind="quadratic", seed=800 + s)
        padded = pad_with_dead_states(base, int(rng.integers(1, 3)), seed=s)
        P = lmi_grammian(padded, "controllability", tighten=False)
        Q = lmi_grammian(padded, "observability", tighten=False)
        mini, Pm, Qm = minimize_with_pair(padded, P, Q)
        sig = singular_values(GrammianPair(P, Q, "manual")).values
        lam = singular_values(GrammianPair(Pm, Qm, "manual")).values
        N, k = sig.size, lam.size
        for i in range(k):
            interlace_err = max(interlace_err, sig[N - k + i] - lam[i])
            interlace_err = max(interlace_err, lam[i] - sig[i])
    ok = membership_ok and sigma_err <= 1e-8 and interlace_err <= 1e-7
    report("criterion 4: set membership and sigmas invariant under isomorphism; "
           "interlacing after minimization",
           ok, f"sigma err {sigma_err:.2e}, interlace excess {interlace_err:.2e}")


# ---------------------------------------------------------------------------
# 5. Nice grammians
# ---------------------------------------------------------------------------


def test_criterion_5_nice_grammians():
    series_err = 0.0
    for s in range(30):
        rng = np.random.default_rng(900 + s)
        n = int(rng.integers(1, 4))
        D = int(rng.integers(1, 3))
        model = random_stable_model("discrete", n, D, kind="strong",
                                    seed=1000 + s,
                                    strong_radius=float(rng.uniform(0.1, 0.3)))
        pair = nice_grammians(model)
        depth = 18 if D == 2 else 40
        oracle = nice_grammian_series_oracle(model, depth)
        series_err = max(series_err, float(np.max(np.abs(pair.P_ctrl - oracle.P_ctrl))))
        series_err = max(series_err, float(np.max(np.abs(pair.Q_obs - oracle.Q_obs))))

    biconditional_ok = True
    for s in range(20):
        model = random_stable_model("discrete", 2 + s % 3, 2, kind="strong", seed=1100 + s)
        pair = nice_grammians(model)
        assert is_minimal(model)
        biconditional_ok &= np.linalg.eigvalsh(pair.P_ctrl)[0] > 0
        biconditional_ok &= np.linalg.eigvalsh(pair.Q_obs)[0] > 0
    for s in range(20):
        base = random_stable_model("discrete", 2, 2, kind="strong", seed=1200 + s)
        defective = pad_with_dead_states(base, 1 + s % 2, seed=s)
        pair = nice_grammians(defective)
        reach_deficient = reachable_subspace(defective).shape[1] < defective.n
        obs_deficient = unobservable_subspace(defective).shape[1] > 0
        biconditional_ok &= reach_deficient == (np.linalg.eigvalsh(pair.P_ctrl)[0] < 1e-9)
        biconditional_ok &= obs_deficient == (np.linalg.eigvalsh(pair.Q_obs)[0] < 1e-9)

    p2 = nice_grammians(scalar_two_mode("discrete", 0.3, 0.4))
    p1 = nice_grammians(scalar_model("discrete", 0.5))
    closed_forms_ok = (
        abs(float(p2.P_ctrl[0, 0]) - 8.0 / 3.0) <= 1e-12
        and abs(float(p2.Q_obs[0, 0]) - 8.0 / 3.0) <= 1e-12
        and abs(float(p1.P_ctrl[0, 0]) - 4.0 / 3.0) <= 1e-12
        and abs(float(p1.Q_obs[0, 0]) - 4.0 / 3.0) <= 1e-12
    )
    ok = series_err <= 1e-8 and biconditional_ok and closed_forms_ok
    report("criterion 5: nice grammians match the series oracle, PD iff minimal, "
           "scalar closed forms", ok, f"series err {series_err:.2e}")


# ---------------------------------------------------------------------------
# 6. Gain suite
# ---------------------------------------------------------------------------


def test_criterion_6_gain_suite(ct_scalar, dt_scalar):
    g_ct, _ = l2_gain_upper_bound(ct_scalar, tol=1e-3)
    g_dt, _ = l2_gain_upper_bound(dt_scalar, tol=1e-3)
    scalars_ok = 1.0 <= g_ct <= 1.002 and 2.0 <= g_dt <= 2.004

    chain_ok = True
    minimize_ok = True
    models = [
        (ct_scalar, 0.02, 40.0),
        (dt_scalar, None, 300),
        (random_stable_model("continuous", 3, 2, kind="quadratic", seed=1300), 0.02, 40.0),
        (random_stable_model("discrete", 3, 2, kind="quadratic", seed=1301), None, 300),
    ]
    for model, h, horizon in models:
        gamma, _ = l2_gain_upper_bound(model, tol=1e-3)
        eg = empirical_gain(model, 120, horizon, seed=77, h=h)
        chain_ok &= eg.lower_bound <= gamma + 1e-3
        P = lmi_grammian(model, "controllability", tighten=False)
        Q = lmi_grammian(model, "observability", tighten=False)
        smax = hankel_upper_bound(GrammianPair(P, Q, "lmi"))
        eh = empirical_hankel_gain(model, 120, horizon, seed=78, h=h)
        chain_ok &= eh.lower_bound <= smax + 1e-3
        padded = pad_with_dead_states(model, 1, seed=5)
        g_pad, _ = l2_gain_upper_bound(padded, tol=1e-3)
        g_min, _ = l2_gain_upper_bound(minimize(padded), tol=1e-3)
        minimize_ok &= g_min <= g_pad + 1e-3 * max(1.0, g_pad)

    ok = scalars_ok and chain_ok and minimize_ok
    report("criterion 6: gain bisection brackets, empirical lower bounds, "
           "minimality never hurts",
           ok, f"gamma_ct {g_ct:.4f}, gamma_dt {g_dt:.4f}")


# ---------------------------------------------------------------------------
# 7. Energy inequalities along trajectories
# ---------------------------------------------------------------------------


def test_criterion_7_energy_inequalities():
    all_ok = True
    trajectories = 0
    for s in range(20):
        td = "continuous" if s % 2 == 0 else "discrete"
        model = random_stable_model(td, 2 + s % 3, 1 + s % 2,
                                    kind="quadratic", seed=1400 + s)
        P = lmi_grammian(model, "controllability", tighten=False)
        Q = lmi_grammian(model, "observability", tighten=False)
        pair = GrammianPair(P, Q, "lmi")
        h = None if td == "discrete" else 0.02
        horizon = 250 if td == "discrete" else 25.0
        rep = check_energy_lemmas(model, pair, trials=25, seed=1500 + s,
                                  horizon=horizon, h=h)
        trajectories += rep.trials
        all_ok &= rep.passed
    ok = all_ok and trajectories >= 500
    report("criterion 7: reachable-state and future-output energy inequalities",
           ok, f"{trajectories} trajectories")


# ---------------------------------------------------------------------------
# 8. Preservation by truncation and minimization
# ---------------------------------------------------------------------------


def test_criterion_8_preservation():
    lemma3_ok = True
    for s in range(10):
        td = "continuous" if s % 2 == 0 else "discrete"
        model = random_stable_model(td, 4, 2, kind="quadratic", seed=1600 + s)
        pair = compute_pair(model, source="lmi", tighten=False)
        assert pair_margin(model, pair) > 0  # strictly balanced input pair
        bal = balance(model, pair)
        for r in admissible_orders(bal.sigmas):
            res = truncate(bal, r)
            lam1 = res.lambda1
            red = res.reduced_model
            lemma3_ok &= check_membership(red, lam1, "C").worst <= 1e-9
            lemma3_ok &= check_membership(red, lam1, "O").worst <= 1e-9
            lemma3_ok &= check_quadratic_stability(red) is not None

    lemma6_ok = True
    for s in range(50):
        base = random_stable_model("discrete", 2 + s % 3, 1 + s % 3,
                                   kind="strong", seed=1700 + s)
        padded = pad_with_dead_states(base, 1 + s % 2, seed=s)
        assert check_strong_stability(padded) < 1.0
        mini = minimize(padded)
        lemma6_ok &= check_strong_stability(mini) < 1.0
    ok = lemma3_ok and lemma6_ok
    report("criterion 8: truncation keeps Lambda_1 as a grammian pair and quadratic "
           "stability; minimization keeps strong stability", ok)


# ---------------------------------------------------------------------------
# 9. Embeddings
# ---------------------------------------------------------------------------


def test_criterion_9_embeddings(dt_two_mode):
    agree_ok = True
    for s in range(20):
        model = random_stable_model("discrete", 2 + s % 2, 2, kind="strong",
                                    seed=1800 + s)
        if s % 3 == 0:
            model = pad_with_dead_states(model, 1, seed=s)
        elif s % 3 == 1:
            model = LssModel("discrete", model.A, model.B,
                             tuple(np.zeros_like(C) for C in model.C))
        agree_ok &= check_uncertain_minimality_equivalence(model)

    averaged_ok = True
    for s in range(10):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=1900 + s)
        pair = averaged_grammians(model)
        averaged_ok &= check_membership(model, pair.P_ctrl, "C").member()
        averaged_ok &= check_membership(model, pair.Q_obs, "O").member()

    u = np.zeros((10, 1))
    u[0, 0] = 1.0
    oracle = exhaustive_stochastic_energy(dt_two_mode, u, 10)
    mc = monte_carlo_stochastic_energy(dt_two_mode, u, 100000, 10, seed=2025)
    mc_ok = abs(mc.mc_mean - oracle) <= 3.0 * mc.mc_se

    ok = agree_ok and averaged_ok and mc_ok
    report("criterion 9: embedding minimality agreement, averaged grammian "
           "membership, stochastic energy matches the word sum",
           ok, f"mc z-score {(mc.mc_mean - oracle) / mc.mc_se:.2f}")
