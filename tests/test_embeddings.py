import numpy as np
import pytest

from lssbalred import (
    LssModel,
    averaged_grammians,
    build_uncertain_embedding,
    check_beck_grammian_projection,
    check_membership,
    check_uncertain_minimality_equivalence,
    monte_carlo_stochastic_energy,
    nice_grammians,
    random_stable_model,
    stochastic_embedding,
)
from lssbalred.balred import balance, truncate
from lssbalred.embeddings import MC_CHUNK, feasible_block_pair
from lssbalred.model import pad_with_dead_states
from lssbalred.simulate import _dt_run_batch, empirical_gain
from conftest import scalar_model, scalar_two_mode
from residual_oracles import averaged_residuals, exhaustive_stochastic_energy, markov_match


class TestEmbeddingLayout:
    def test_scalar_two_mode_block_matrix(self, dt_two_mode):
        emb = build_uncertain_embedding(dt_two_mode)
        np.testing.assert_allclose(
            emb.A[0], [[0.0, 0.3, 0.4], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        )
        np.testing.assert_allclose(emb.B[0], [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(emb.C[0], [[0.0, 1.0, 1.0]])

    def test_single_mode_layout(self, dt_scalar):
        emb = build_uncertain_embedding(dt_scalar)
        np.testing.assert_allclose(emb.A[0], [[0.0, 0.5], [1.0, 0.0]])

    def test_example1_as_dt_zero_pattern(self, example1):
        model = LssModel("discrete", example1.A, example1.B, example1.C)
        emb = build_uncertain_embedding(model)
        assert emb.A[0].shape == (6, 6)
        np.testing.assert_array_equal(emb.A[0][:3, :3], np.zeros((3, 3)))
        np.testing.assert_array_equal(emb.A[0][:3, 3:], model.A[0])
        np.testing.assert_array_equal(emb.A[0][3:, :3], np.eye(3))
        np.testing.assert_array_equal(emb.A[0][3:, 3:], np.zeros((3, 3)))
        np.testing.assert_array_equal(emb.B[0][:3, :], model.B[0])
        np.testing.assert_array_equal(emb.C[0][:, 3:], model.C[0])

    def test_rejects_continuous(self, example1):
        with pytest.raises(ValueError, match="discrete"):
            build_uncertain_embedding(example1)


class TestMinimalityEquivalence:
    def test_minimal_model_agrees(self):
        model = random_stable_model("discrete", 3, 2, m=2, p=1, kind="strong", seed=1)
        assert check_uncertain_minimality_equivalence(model)

    def test_padded_model_agrees(self):
        base = random_stable_model("discrete", 2, 2, kind="strong", seed=2)
        padded = pad_with_dead_states(base, 2, seed=3)
        assert check_uncertain_minimality_equivalence(padded)

    def test_zero_output_model_agrees(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=4)
        zeroed = LssModel("discrete", model.A, model.B,
                          tuple(np.zeros_like(C) for C in model.C))
        assert check_uncertain_minimality_equivalence(zeroed)

    def test_agreement_over_random_instances(self):
        for seed in range(10):
            model = random_stable_model("discrete", 2, 2, kind="strong", seed=50 + seed)
            if seed % 2:
                model = pad_with_dead_states(model, 1, seed=seed)
            assert check_uncertain_minimality_equivalence(model)


class TestBeckProjection:
    def test_constructed_blocks_project(self):
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=5,
                                    strong_radius=0.4)
        blockP, blockQ = feasible_block_pair(model)
        rep = check_beck_grammian_projection(model, blockP, blockQ)
        assert rep.embedded_ctrl_residual < 0
        assert rep.embedded_obs_residual < 0
        assert rep.projected_pair_ok
        # first blocks are plain grammians of the switched model
        assert check_membership(model, blockP[0], "C").member()
        assert check_membership(model, blockQ[0], "O").member()

    def test_random_blocks_rejected(self):
        model = random_stable_model("discrete", 2, 2, kind="strong", seed=6,
                                    strong_radius=0.4)
        rng = np.random.default_rng(7)
        M = rng.standard_normal((2, 2))
        blocks = [M @ M.T + 0.1 * np.eye(2) for _ in range(3)]
        with pytest.raises(ValueError, match="embedded"):
            check_beck_grammian_projection(model, blocks, blocks)

    def test_scalar_hub_block_dominates_nice_grammian(self):
        model = scalar_model("discrete", 0.5)
        blockP, _ = feasible_block_pair(model)
        nice = nice_grammians(model)
        assert float(blockP[0][0, 0]) >= float(nice.P_ctrl[0, 0]) - 1e-12

    def test_inflated_radius_requirement(self):
        # strongly stable but 2 * radius >= 1: no block construction
        model = scalar_two_mode("discrete", 0.55, 0.55)  # radius 0.605
        with pytest.raises(ValueError, match="radius"):
            feasible_block_pair(model)


class TestStochasticEmbedding:
    def test_scaling(self, dt_two_mode):
        emb = stochastic_embedding(dt_two_mode)
        np.testing.assert_allclose(emb.A[0], [[0.3 * np.sqrt(2.0)]])

    def test_single_mode_is_deterministic(self, dt_scalar):
        u = np.zeros((10, 1))
        u[0, 0] = 1.0
        oracle = exhaustive_stochastic_energy(dt_scalar, u, 10)
        rep = monte_carlo_stochastic_energy(dt_scalar, u, 10, 10, seed=0)
        assert rep.mc_se == 0.0
        assert rep.mc_mean == pytest.approx(oracle, rel=1e-12)

    def test_impulse_matches_word_sum_oracle(self, dt_two_mode):
        u = np.zeros((10, 1))
        u[0, 0] = 1.0
        oracle = exhaustive_stochastic_energy(dt_two_mode, u, 10)
        rep = monte_carlo_stochastic_energy(dt_two_mode, u, 100000, 10, seed=42)
        assert abs(rep.mc_mean - oracle) <= 3.0 * rep.mc_se

    def test_mc_dominates_sampled_deterministic_outputs(self, dt_two_mode):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((10, 1))
        rep = monte_carlo_stochastic_energy(dt_two_mode, u, 50000, 10, seed=10)
        worst = 0.0
        for _ in range(64):
            seq = rng.integers(0, 2, size=(1, 10))
            _, y = _dt_run_batch(dt_two_mode, seq, u[None, :, :])
            worst = max(worst, float(np.sum(y**2)))
        assert worst <= rep.mc_mean + 3.0 * rep.mc_se

    def test_rejects_zero_trials(self, dt_two_mode):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_stochastic_energy(dt_two_mode, np.ones((5, 1)), 0, 5, seed=0)

    @pytest.mark.parametrize("horizon", [0, -2])
    def test_rejects_horizon_shorter_than_one_step(self, dt_two_mode, horizon):
        with pytest.raises(ValueError, match="shorter than one step"):
            monte_carlo_stochastic_energy(dt_two_mode, np.ones(5), 100, horizon, seed=0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_rejects_a_horizon_that_is_not_finite(self, dt_two_mode, horizon):
        with pytest.raises(ValueError, match="not a finite number of steps"):
            monte_carlo_stochastic_energy(dt_two_mode, np.ones(5), 100, horizon, seed=0)

    def test_float_horizon_counts_steps_like_empirical_gain(self, dt_two_mode):
        # empirical_gain runs int(horizon) steps; so does the Monte Carlo estimate
        u = np.linspace(1.0, 0.0, 12)
        ten = monte_carlo_stochastic_energy(dt_two_mode, u, 100, 10, seed=5)
        for horizon in (10.0, 10.7):
            assert monte_carlo_stochastic_energy(dt_two_mode, u, 100, horizon, seed=5) == ten
            assert (empirical_gain(dt_two_mode, 5, horizon, seed=1).lower_bound
                    == empirical_gain(dt_two_mode, 5, 10, seed=1).lower_bound)

    def test_one_dimensional_input_is_one_column(self, dt_two_mode):
        u = np.linspace(1.0, 0.0, 6)
        flat = monte_carlo_stochastic_energy(dt_two_mode, u, 100, 6, seed=5)
        column = monte_carlo_stochastic_energy(dt_two_mode, u[:, None], 100, 6, seed=5)
        assert flat == column

    def test_rejects_input_with_wrong_column_count(self, dt_two_mode):
        with pytest.raises(ValueError, match="columns"):
            monte_carlo_stochastic_energy(dt_two_mode, np.ones((6, 2)), 100, 6, seed=5)

    def test_deterministic_given_seed(self, dt_two_mode):
        u = np.zeros((8, 1))
        u[0, 0] = 1.0
        r1 = monte_carlo_stochastic_energy(dt_two_mode, u, 5000, 8, seed=3)
        r2 = monte_carlo_stochastic_energy(dt_two_mode, u, 5000, 8, seed=3)
        assert r1.mc_mean == r2.mc_mean

    def test_chunks_draw_from_their_own_streams(self, dt_two_mode):
        u = np.zeros((8, 1))
        u[0, 0] = 1.0
        rep = monte_carlo_stochastic_energy(dt_two_mode, u, 9000, 8, seed=4)
        scaled = stochastic_embedding(dt_two_mode)
        sizes = [MC_CHUNK, MC_CHUNK, 9000 - 2 * MC_CHUNK]
        assert sizes[-1] > 0
        total = total_sq = 0
        for i, R in enumerate(sizes):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(i,)))
            seq = rng.integers(0, 2, size=(R, 8))
            _, y = _dt_run_batch(scaled, seq, np.broadcast_to(u, (R, 8, 1)))
            energies = np.sum(y**2, axis=(1, 2))
            total += float(np.sum(energies))
            total_sq += float(np.sum(energies**2))
        mean = total / 9000
        assert rep.mc_mean == mean
        assert rep.mc_se == np.sqrt(max(total_sq / 9000 - mean**2, 0.0) / 9000)


class TestAveragedAndScaling:
    def test_averaged_pair_solves_scaled_system_inequalities(self):
        # the averaged inequalities of the base model are exactly the
        # per-realization grammian inequalities of the 1/sqrt(p)-scaled model
        model = random_stable_model("discrete", 3, 2, kind="strong", seed=11)
        pair = averaged_grammians(model)
        scaled = stochastic_embedding(model)
        RP_avg, RQ_avg = averaged_residuals(model, pair.P_ctrl, pair.Q_obs)
        D = model.num_modes
        RP_scaled = sum(
            A @ pair.P_ctrl @ A.T / D + B @ B.T / D
            for A, B in zip(scaled.A, scaled.B)
        ) - pair.P_ctrl
        np.testing.assert_allclose(RP_scaled, RP_avg, atol=1e-10)
        RQ_scaled = sum(
            A.T @ pair.Q_obs @ A / D + C.T @ C / D
            for A, C in zip(scaled.A, scaled.C)
        ) - pair.Q_obs
        np.testing.assert_allclose(RQ_scaled, RQ_avg, atol=1e-10)

    def test_strong_stability_iff_averaged_stability_feasible(self):
        stable = random_stable_model("discrete", 2, 2, kind="strong", seed=12)
        pair = averaged_grammians(stable)  # construction succeeds
        assert pair.provenance == "averaged"
        import lssbalred

        with pytest.raises(lssbalred.InfeasibleError):
            averaged_grammians(scalar_two_mode("discrete", 0.8, 0.8))

    def test_reduction_commutes_with_stochastic_scaling(self):
        model = random_stable_model("discrete", 4, 2, kind="strong", seed=13)
        pair = nice_grammians(model)
        bal = balance(model, pair)
        from lssbalred.balred import admissible_orders
        r = admissible_orders(bal.sigmas)[0]
        red_then_scale = stochastic_embedding(truncate(bal, r).reduced_model)
        scaled = stochastic_embedding(model)
        # the pair is a grammian pair of the scaled model as well
        bal2 = balance(scaled, pair)
        scale_then_red = truncate(bal2, r, force_ties=True).reduced_model
        assert markov_match(red_then_scale, scale_then_red, max_len=4, rtol=1e-8)
