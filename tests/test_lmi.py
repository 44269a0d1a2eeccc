import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lssbalred import (
    AffineLmiSystem,
    Certificate,
    InfeasibleError,
    LmiBlock,
    LmiTerm,
    LssModel,
    check_membership,
    check_quadratic_stability,
    dual_system,
    family_system,
    gamma_feasible,
    l2_gain_upper_bound,
    lmi_grammian,
    random_stable_model,
    solve_feasibility,
    strong_implies_quadratic_witness,
    tighten_trace,
)
from lssbalred import gain, lmi
from lssbalred._linalg import svec, svec_dim, sym_basis, symmetrize
from lssbalred.lmi import MARGIN_SCALE_FACTOR, _CompiledSystem, lifted_gain_system, minimize
from residual_oracles import (
    family_residuals,
    per_cone_solve_feasibility,
    project_psd,
    schur_equivalence_check,
    smat,
)

# Every constraint family in every time domain it is defined for.
FAMILY_CASES = [(f, td) for f in ("S", "O", "C", "G") for td in ("continuous", "discrete")]
FAMILY_CASES += [("Csum", "discrete"), ("Osum", "discrete")]


def lyapunov_obs_block(A, C):
    """A^T P + P A + C^T C as an affine block."""
    return LmiBlock(C.T @ C, (LmiTerm(A.T, np.eye(A.shape[0]), symmetrize=True),))


def stein_block(A):
    """A^T P A - P."""
    n = A.shape[0]
    return LmiBlock(np.zeros((n, n)), (LmiTerm(A.T, A), LmiTerm(-np.eye(n), np.eye(n))))


def _trace_cap_block(n, cap):
    """tr P - cap as a 1x1 block."""
    terms = []
    for i in range(n):
        e = np.zeros((1, n))
        e[0, i] = 1.0
        terms.append(LmiTerm(e, e.T, symmetrize=False))
    return LmiBlock(np.array([[-cap]]), tuple(terms))


def with_extra_block(sys, block):
    """`sys` with one more constraint block."""
    return AffineLmiSystem(sys.n, sys.blocks + (block,))


def compile_oracle(sys):
    """Stacked svec maps and constants of all blocks, one basis matrix at a
    time: column a of a block's map is svec(F(E_a) - F(0))."""
    n = sys.n
    maps, consts = [], []
    for b in sys.blocks:
        zero = b.evaluate(np.zeros((n, n)))
        M = np.empty((svec_dim(b.size), svec_dim(n)))
        for a, E in enumerate(sym_basis(n)):
            M[:, a] = svec(symmetrize(b.evaluate(E) - zero))
        maps.append(M)
        consts.append(svec(symmetrize(zero)))
    return np.vstack(maps), np.concatenate(consts)


def compile_cases():
    """Every family in both time domains (m, p > 1), plus a trace cap."""
    for family, td in FAMILY_CASES:
        model = random_stable_model(td, 4, 3, m=2, p=3, seed=71)
        sys = family_system(model, family, 1.7 if family == "G" else None)
        yield pytest.param(sys, id=f"{family}-{td}")
    model = random_stable_model("discrete", 4, 2, seed=72)
    sys = with_extra_block(family_system(model, "O"), _trace_cap_block(4, 3.0))
    yield pytest.param(sys, id="O-discrete-trace-cap")


class TestProjectPsd:
    def test_diagonal_clipping(self):
        out = project_psd(np.diag([3.0, -1.0]), 0.0)
        np.testing.assert_allclose(out, np.diag([3.0, 0.0]), atol=1e-14)

    def test_psd_input_unchanged(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(project_psd(M, 0.0), M, atol=1e-14)

    def test_offdiagonal_case(self):
        # eigenvalues -1 and 1; clipping the -1 to 0 leaves 0.5 * ones
        out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
        np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            project_psd(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 2.0))
    def test_idempotent_and_floor(self, seed, floor):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        M = 0.5 * (M + M.T)
        once = project_psd(M, floor)
        twice = project_psd(once, floor)
        assert np.linalg.eigvalsh(once)[0] >= floor - 1e-12
        np.testing.assert_allclose(once, twice, atol=1e-11)
        # projection is nonexpansive relative to any fixed point, e.g. itself
        assert np.linalg.norm(twice - once) <= np.linalg.norm(M - once) + 1e-12


class TestSolveFeasibility:
    def test_single_mode_lyapunov_family(self, example1):
        sys = AffineLmiSystem(3, (LmiBlock(np.zeros((3, 3)),
                                           (LmiTerm(example1.A[0].T, np.eye(3), symmetrize=True),)),))
        result = solve_feasibility(sys)
        assert result.feasible
        P = result.solution
        residual = example1.A[0].T @ P + P @ example1.A[0]
        assert np.linalg.eigvalsh(residual)[-1] <= -result.margin + 1e-8
        assert np.linalg.eigvalsh(P)[0] >= result.margin - 1e-9

    def test_scalar_stein_infeasible(self):
        sys = AffineLmiSystem(1, (stein_block(np.array([[1.5]])),))
        result = solve_feasibility(sys, budget=400)
        assert result.status == "infeasible_within_budget"
        assert result.solution is None

    def test_scalar_lyapunov_with_output(self):
        # -2P + 1 <= -margin  <=>  P >= (1 + margin) / 2; the data scale is 1
        sys = AffineLmiSystem(1, (lyapunov_obs_block(np.array([[-1.0]]), np.array([[1.0]])),))
        result = solve_feasibility(sys)
        assert result.feasible
        assert result.margin == MARGIN_SCALE_FACTOR
        P = float(result.solution[0, 0])
        assert P >= 0.5
        assert -2.0 * P + 1.0 <= -result.margin

    @pytest.mark.parametrize("bad", [
        # L P R with L != R^T
        LmiBlock(np.zeros((2, 2)), (LmiTerm(np.array([[1.0, 0.0], [3.0, 1.0]]), np.eye(2)),)),
        # asymmetric only in the off-diagonal basis direction
        LmiBlock(np.zeros((2, 2)), (LmiTerm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),)),
        # symmetric terms, asymmetric constant
        LmiBlock(np.array([[0.0, 1.0], [0.0, 0.0]]), (LmiTerm(-np.eye(2), np.eye(2)),)),
    ], ids=["left-not-right-transpose", "one-direction", "constant"])
    def test_nonsymmetric_block_is_rejected(self, bad):
        good = stein_block(np.diag([0.5, 0.2]))
        with pytest.raises(ValueError, match="constraint block 1 violates symmetry"):
            solve_feasibility(AffineLmiSystem(2, (good, bad)))

    def test_asymmetric_map_is_rejected(self):
        bad = LmiBlock(np.zeros((2, 2)),
                       (LmiTerm(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)),))
        with pytest.raises(ValueError, match="symmetry"):
            solve_feasibility(AffineLmiSystem(2, (bad,)))

    def test_residual_consistent_on_reevaluation(self):
        rng = np.random.default_rng(0)
        K = rng.standard_normal((4, 4))
        A = K - K.T - np.eye(4)
        C = rng.standard_normal((2, 4))
        sys = AffineLmiSystem(4, (lyapunov_obs_block(A, C),))
        result = solve_feasibility(sys)
        assert result.feasible
        assert abs(sys.residual(result.solution) - result.residual) <= 1e-10


class TestTightenTrace:
    def test_scalar_approaches_half(self):
        sys = AffineLmiSystem(1, (lyapunov_obs_block(np.array([[-1.0]]), np.array([[1.0]])),))
        out = tighten_trace(sys, np.array([[5.0]]))
        assert 0.5 <= float(out[0, 0]) <= 0.55

    def test_scalar_reaches_the_minimal_trace(self):
        # min P subject to -2P + 1 <= 0 is P = 1/2
        sys = AffineLmiSystem(1, (lyapunov_obs_block(np.array([[-1.0]]), np.array([[1.0]])),))
        out = tighten_trace(sys, np.array([[5.0]]))
        assert 0.5 <= float(np.trace(out)) <= 0.5005

    def test_trace_minimal_seed_is_kept(self):
        sys = AffineLmiSystem(1, (lyapunov_obs_block(np.array([[-1.0]]), np.array([[1.0]])),))
        # just above the least feasible P = (1 + margin) / 2 at margin 1e-7
        seed = np.array([[0.5000001]])
        out = tighten_trace(sys, seed)
        assert float(np.trace(out)) <= float(np.trace(seed)) + 1e-12

    def test_example1_observability_trace_decreases(self, example1, example1_lambda):
        sys = AffineLmiSystem(3, (lyapunov_obs_block(example1.A[0], example1.C[0]),))
        seed = 10.0 * example1_lambda
        out = tighten_trace(sys, seed)
        assert np.trace(out) < np.trace(seed)
        assert np.linalg.eigvalsh(sys.blocks[0].evaluate(out))[-1] <= 0


class TestSchurOracle:
    def test_scalar_ct_both_negative(self):
        assert schur_equivalence_check(np.array([[-1.0]]), np.array([[1.0]]),
                                       np.array([[1.0]]), "ct")

    def test_scalar_dt_both_positive(self):
        # -1 + 0.25 + 1 = 0.25 > 0 and the block form agrees in sign
        assert schur_equivalence_check(np.array([[0.5]]), np.array([[1.0]]),
                                       np.array([[1.0]]), "dt")

    @pytest.mark.parametrize("domain", ["ct", "dt"])
    def test_randomized_sign_agreement(self, domain):
        rng = np.random.default_rng(99)
        for _ in range(100):
            A = rng.standard_normal((4, 4))
            S = rng.standard_normal((2, 4))
            M = rng.standard_normal((4, 4))
            P = M @ M.T + 0.1 * np.eye(4)
            assert schur_equivalence_check(A, P, S, domain)

    def test_singular_p_rejected(self):
        with pytest.raises(ValueError):
            schur_equivalence_check(np.eye(2), np.diag([1.0, 0.0]), np.eye(2), "ct")


class TestFamilySystem:
    @pytest.mark.parametrize("family,td", FAMILY_CASES)
    def test_membership_matches_hand_written_oracle(self, family, td):
        # m, p > 1 so the gain block has non-scalar off-diagonal parts
        model = random_stable_model(td, 4, 3, m=2, p=3, seed=61)
        gamma = 1.7 if family == "G" else None
        rng = np.random.default_rng(62)
        for _ in range(5):
            K = rng.standard_normal((4, 4))
            M = K + K.T
            rep = check_membership(model, M, family, gamma)
            blocks = family_system(model, family, gamma).evaluate(M)
            oracle = family_residuals(model, M, family, gamma)
            assert len(rep.residuals) == len(blocks) == len(oracle)
            for got, block, R in zip(rep.residuals, blocks, oracle):
                tol = 1e-10 * (1.0 + np.linalg.norm(R, 2))
                assert abs(got - np.linalg.eigvalsh(0.5 * (R + R.T))[-1]) <= tol
                np.testing.assert_allclose(block, R, rtol=0, atol=tol)

    @pytest.mark.parametrize("td", ["continuous", "discrete"])
    def test_lifted_gain_family_matches_gain_family(self, td):
        model = random_stable_model(td, 4, 3, m=2, p=3, seed=63)
        lifted = lifted_gain_system(model)
        assert lifted.n == model.n + 1
        rng = np.random.default_rng(64)
        for gamma in (0.3, 1.7, 12.0):
            K = rng.standard_normal((4, 4))
            P = K @ K.T
            X = np.zeros((5, 5))
            X[:4, :4] = P
            X[4, 4] = gamma**2
            got = lifted.evaluate(X)
            expect = family_system(model, "G", gamma).evaluate(P)
            assert len(got) == len(expect) == model.num_modes
            for G, R in zip(got, expect):
                np.testing.assert_allclose(G, R, rtol=0, atol=1e-12 * np.linalg.norm(R))

    def test_summed_families_are_discrete_only(self, example1):
        for family in ("Csum", "Osum"):
            with pytest.raises(ValueError, match="discrete"):
                family_system(example1, family)

    def test_unknown_family_rejected(self, example1):
        with pytest.raises(ValueError, match="unknown set"):
            family_system(example1, "X")

    @pytest.mark.parametrize("family", ["S", "O", "C", "Osum", "Csum"])
    def test_gamma_only_with_the_gain_set(self, family):
        model = random_stable_model("discrete", 3, 2, seed=1)
        with pytest.raises(ValueError, match="gamma"):
            check_membership(model, np.eye(3), family, gamma=3.0)

    @pytest.mark.parametrize("family,td", [("C", "continuous"), ("C", "discrete"),
                                           ("Csum", "discrete")])
    def test_controllability_is_observability_of_the_dual(self, family, td):
        model = random_stable_model(td, 4, 3, m=2, p=3, seed=65)
        rng = np.random.default_rng(66)
        K = rng.standard_normal((4, 4))
        M = K + K.T
        dual_family = "O" + family[1:]
        got = check_membership(model, M, family)
        assert got.family == family
        assert got.residuals == check_membership(dual_system(model), M, dual_family).residuals

    @pytest.mark.parametrize("td", ["continuous", "discrete"])
    def test_stability_is_observability_with_no_output(self, td):
        model = random_stable_model(td, 4, 3, m=2, p=3, seed=67)
        blind = LssModel(td, model.A, model.B, tuple(np.zeros((0, 4)) for _ in model.C))
        rng = np.random.default_rng(68)
        K = rng.standard_normal((4, 4))
        M = K + K.T
        assert (check_membership(model, M, "S").residuals
                == check_membership(blind, M, "O").residuals)


def _gain_bound(model):
    gamma, cert = l2_gain_upper_bound(model)
    return cert, "G", gamma


# Every producer of a certificate, as model -> (certificate, family, gamma).
PRODUCERS = {
    "check_membership": lambda m: (check_membership(m, np.eye(m.n), "O"), "O", None),
    "check_quadratic_stability": lambda m: (check_quadratic_stability(m), "S", None),
    "strong_implies_quadratic_witness": lambda m: (strong_implies_quadratic_witness(m), "S", None),
    "gamma_feasible": lambda m: (gamma_feasible(m, 5.0), "G", 5.0),
    "l2_gain_upper_bound": _gain_bound,
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_every_certificate_holds_its_re_verified_residuals(producer):
    """Each producer's residuals are exactly those check_membership finds at
    its P, so a reported margin is never the solver's in-loop value."""
    model = random_stable_model("discrete", 3, 2, kind="strong", seed=5)
    cert, family, gamma = PRODUCERS[producer](model)
    assert isinstance(cert, Certificate)
    assert (cert.family, cert.gamma) == (family, gamma)
    assert cert.residuals == check_membership(model, cert.P, family, gamma).residuals
    assert cert.margin == -cert.worst


class TestCompiledSystem:
    @pytest.mark.parametrize("sys", compile_cases())
    def test_maps_and_constants_match_per_basis_oracle(self, sys):
        compiled = _CompiledSystem(sys)
        maps, consts = compile_oracle(sys)
        scale = max(1.0, np.max(np.abs(maps)), np.max(np.abs(consts)))
        np.testing.assert_allclose(compiled.maps, maps, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(compiled.consts, consts, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("sys", compile_cases())
    def test_cone_tables_unpack_like_smat(self, sys):
        """Cone 0 is P, the one floor; every stacked position belongs to
        exactly one cone; each cone's matrix is smat of its slice."""
        compiled = _CompiledSystem(sys)
        sizes = [sys.n] + [b.size for b in sys.blocks]
        starts = list(np.cumsum([0] + [svec_dim(k) for k in sizes]))
        v = np.random.default_rng(75).standard_normal(starts[-1])
        seen = []
        for (_, _, positions, floor), stack in zip(compiled.cones, compiled.unpack(v)):
            for pos, is_floor, S in zip(positions, floor[:, 0], stack):
                cone = starts.index(pos[0])
                np.testing.assert_array_equal(pos, np.arange(starts[cone], starts[cone + 1]))
                np.testing.assert_array_equal(S, smat(v[pos], sizes[cone]))
                assert is_floor == (cone == 0)
                seen.append(cone)
        assert seen[0] == 0 and sorted(seen) == list(range(len(sizes)))

    @pytest.mark.parametrize("sys", compile_cases())
    def test_graph_projection_is_least_squares(self, sys):
        compiled = _CompiledSystem(sys)
        maps, consts = compile_oracle(sys)
        d = svec_dim(sys.n)
        rng = np.random.default_rng(73)
        for _ in range(3):
            x = rng.standard_normal(d)
            z = rng.standard_normal(maps.shape[0])
            stacked = np.vstack([np.eye(d), maps])
            expect = np.linalg.lstsq(stacked, np.concatenate([x, z - consts]), rcond=None)[0]
            got = compiled.graph_project(np.concatenate([x, z]))[:d]
            assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


def oracle_cases():
    """compile_cases(), a gain family with a trace cap (three cone sizes:
    n, n + m and 1), and the lifted gain family of an m=1, D=3 model."""
    yield from compile_cases()
    model = random_stable_model("discrete", 4, 3, m=2, p=3, seed=71)
    sys = with_extra_block(family_system(model, "G", 1.7), _trace_cap_block(4, 3.0))
    yield pytest.param(sys, id="G-discrete-trace-cap")
    model = random_stable_model("continuous", 8, 3, seed=1)
    yield pytest.param(lifted_gain_system(model), id="lifted-gain-continuous")


class TestStackedConesMatchPerConeOracle:
    @pytest.mark.parametrize("budget", [50, None], ids=["budget-50", "default-budget"])
    @pytest.mark.parametrize("sys", oracle_cases())
    def test_bitwise_equal_to_per_cone_loop(self, sys, budget):
        traces = ([], [])
        got = solve_feasibility(sys, budget=budget,
                                callback=lambda it, res: traces[0].append((it, res)))
        ref = per_cone_solve_feasibility(sys, budget=budget,
                                         callback=lambda it, res: traces[1].append((it, res)))
        assert got.status == ref.status
        assert got.iterations == ref.iterations
        assert got.residual == ref.residual
        if ref.solution is None:
            assert got.solution is None
        else:
            assert np.array_equal(got.solution, ref.solution)
        assert traces[0] == traces[1]


def test_one_eigen_call_per_cone_size_per_sweep(monkeypatch):
    """The lifted gain family of an m=1, D=3 model has one cone size, n + 1,
    so each sweep makes one eigvalsh and one eigh call.  A budget of 5
    sweeps ends before the first feasible one; the result's residual then
    takes one eigvalsh per block."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    model = random_stable_model("continuous", 4, 3, seed=1)
    result = solve_feasibility(lifted_gain_system(model), budget=5)
    assert result.status == "infeasible_within_budget"
    assert result.iterations == 5
    assert calls == {"eigh": 5, "eigvalsh": 5 + model.num_modes}


class TestMinimize:
    """The interior-point solve: its P re-verifies at the solver margin, its
    optimum is no worse than the Douglas-Rachford one, and its phase 1 names
    s when no point clears the margin."""

    MODEL = random_stable_model("discrete", 4, 3, m=2, p=3, seed=71)  # gamma* = 9.4657

    @staticmethod
    def assert_clears_margin(sys, result):
        assert result.feasible
        assert sys.residual(result.solution) <= -result.margin
        assert np.linalg.eigvalsh(result.solution)[0] >= result.margin

    @pytest.mark.parametrize("family", ["C", "O", "Csum"])
    def test_min_trace_no_worse_than_douglas_rachford(self, family):
        # the Csum solve runs Douglas-Rachford's whole objective budget
        sys = family_system(self.MODEL, family)
        got = minimize(sys, np.eye(4))
        ref = per_cone_solve_feasibility(sys, objective=np.eye(4))
        self.assert_clears_margin(sys, got)
        assert ref.feasible and np.trace(got.solution) <= np.trace(ref.solution)

    @pytest.mark.parametrize("objective", ["trace", "corner"])
    @pytest.mark.parametrize("sys", oracle_cases())
    def test_agrees_with_per_cone_douglas_rachford(self, sys, objective):
        """On every oracle case, with <P> weighted by the identity or by
        the last diagonal entry alone: where Douglas-Rachford's feasibility
        solve finds a point, the interior-point P clears the margin and its
        objective is no worse than that of the Douglas-Rachford objective
        solve; where it finds none, phase 1 raises."""
        W = np.eye(sys.n) if objective == "trace" else np.diag(np.r_[np.zeros(sys.n - 1), 1.0])
        if not per_cone_solve_feasibility(sys).feasible:
            with pytest.raises(InfeasibleError, match=r"phase 1 ended at s = \S+ > 0"):
                minimize(sys, W)
            return
        got = minimize(sys, W)
        ref = per_cone_solve_feasibility(sys, objective=W)
        self.assert_clears_margin(sys, got)
        assert ref.feasible and np.sum(W * got.solution) <= np.sum(W * ref.solution)

    @pytest.mark.parametrize("objective", [np.eye(4), np.diag([0.0, 0.0, 0.0, 1.0])],
                             ids=["trace", "corner"])
    def test_objective_solve_is_sound_at_any_budget(self, objective, monkeypatch):
        """Cut to 1 or 30 iterations per run, the solve still returns a P
        that clears the margin; each of at most three runs (the infeasible
        one, phase 1 and the second run) stops at the budget."""
        model = random_stable_model("discrete", 4, 2, seed=74)
        sys = family_system(model, "O")
        assert sys.residual(np.eye(4)) > 0
        for budget in (1, 30):
            monkeypatch.setattr(lmi, "ITERATION_BUDGET", budget)
            result = minimize(sys, objective)
            assert result.iterations <= 3 * budget
            self.assert_clears_margin(sys, result)
            assert check_membership(model, result.solution, "O").member(result.margin - 1e-12)

    def test_block_order_leaves_the_optimum(self):
        """Cones of two sizes, interleaved, so the stacks by size are not in
        block order."""
        gain = family_system(self.MODEL, "G", 20.0).blocks
        obs = family_system(self.MODEL, "O").blocks
        mixed = AffineLmiSystem(4, tuple(b for pair in zip(gain, obs) for b in pair))
        got = minimize(mixed, np.eye(4))
        ref = minimize(AffineLmiSystem(4, obs + gain), np.eye(4))
        self.assert_clears_margin(mixed, got)
        assert np.trace(got.solution) == pytest.approx(np.trace(ref.solution), rel=1e-5)

    def test_strictly_feasible_start_skips_phase_one(self, monkeypatch):
        sys = family_system(self.MODEL, "O")
        cold = minimize(sys, np.eye(4))

        def phase1(*args):
            raise AssertionError("phase 1 ran from a strictly feasible start")

        monkeypatch.setattr(lmi, "_phase1", phase1)
        warm = minimize(sys, np.eye(4), start=2.0 * cold.solution)
        self.assert_clears_margin(sys, warm)
        assert np.trace(warm.solution) == pytest.approx(np.trace(cold.solution), rel=1e-5)

    def test_phase_one_names_s_when_no_point_clears(self):
        with pytest.raises(InfeasibleError, match=r"phase 1 ended at s = \S+ > 0"):
            minimize(family_system(self.MODEL, "G", 5.0), np.eye(4))

    @pytest.mark.parametrize("family", ["Csum", "Osum"])
    def test_trace_tightening_of_mode_summed_families_ends(self, family, monkeypatch):
        """The Douglas-Rachford objective mode never settled on these two
        families and ran its whole 20000-sweep budget."""
        sys = family_system(self.MODEL, family)
        seed = solve_feasibility(sys).solution
        results = []

        def recorded(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(lmi, "minimize", recorded)
        out = tighten_trace(sys, seed)
        (result,) = results
        assert result.iterations <= 30
        self.assert_clears_margin(sys, result)
        assert np.array_equal(out, result.solution)
        assert np.trace(out) < np.trace(seed)

    @pytest.mark.parametrize("td", ["continuous", "discrete"])
    def test_gain_solves_re_verify(self, td):
        """Every returned P clears the margin, although at this rtol the
        last iterates come within rounding of the cone boundary, and on
        several of these models the last one fails re-verification."""
        for seed in range(12):
            model = random_stable_model(td, 2 + seed % 6, 2 + seed % 2, seed=200 + seed)
            n = model.n
            sys = lifted_gain_system(model)
            result = minimize(sys, np.diag(np.r_[np.zeros(n), 1.0]),
                              np.diag(np.r_[np.ones(n), 1.0]), rtol=1e-12)
            self.assert_clears_margin(sys, result)

    def test_infeasible_start_needs_no_phase_one(self, monkeypatch):
        """The identity is not inside the gain family here, and the run from
        its shifted slacks reaches strictly feasible iterates by itself."""
        def phase1(*args):
            raise AssertionError("phase 1 ran on a feasible system")

        monkeypatch.setattr(lmi, "_phase1", phase1)
        sys = lifted_gain_system(self.MODEL)
        assert sys.residual(np.eye(5)) > 0
        self.assert_clears_margin(sys, minimize(sys, np.diag([0.0, 0.0, 0.0, 0.0, 1.0])))


def test_median_iterations_per_solve(monkeypatch):
    """The median number of interior-point iterations per solve, over the
    gain solves of the benchmark's three gain models and the trace-tightened
    C and O grammians of n=16, D=2 models in both time domains, is at most
    25."""
    iterations = []

    def counted(*args, **kwargs):
        result = minimize(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(lmi, "minimize", counted)
    monkeypatch.setattr(gain, "minimize", counted)
    for td, n, D in [("continuous", 4, 2), ("discrete", 4, 2), ("continuous", 8, 3)]:
        l2_gain_upper_bound(random_stable_model(td, n, D, seed=1))
    for td in ("continuous", "discrete"):
        model = random_stable_model(td, 16, 2, seed=1)
        for kind in ("controllability", "observability"):
            lmi_grammian(model, kind)
    assert len(iterations) == 7
    assert np.median(iterations) <= 25
