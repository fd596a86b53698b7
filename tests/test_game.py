"""Pseudo-gradient layer and equilibrium-solver tests."""

from types import SimpleNamespace

import numpy as np
import pytest

from nashseek.errors import DimensionMismatch, NoConvergence
from nashseek.game import (
    Game,
    extended_pseudo_gradient,
    gradient_consistency,
    gradient_matrix,
    nash_solve,
    probe_monotonicity,
    pseudo_gradient,
)
from nashseek.scenarios import GENERATOR_TABLE, build_turbine_market, build_vehicle_formation
from nashseek.verify import identity_game
from oracles import per_player_gradient_matrix, turbine_gradient, vehicle_gradient


def coupled_pair_game():
    # J_i = x_i^2 / 2 + x_i * x_other, scalar decisions: row i's sum
    return Game(2, 1, lambda profiles: profiles.sum(axis=-2))


class TestPseudoGradient:
    def test_identity_game(self):
        game = identity_game()
        x = np.arange(6, dtype=float)
        assert np.array_equal(pseudo_gradient(game, x), x)

    def test_turbines_at_zero(self):
        game, _, _ = build_turbine_market()
        grads = pseudo_gradient(game, np.zeros(6))
        gamma2 = np.array([36.80, 13.73, 17.14, 20.41, 15.28, 14.07])
        assert np.allclose(grads, gamma2 - 200.0, atol=1e-12)
        assert abs(grads[0] - (-163.2)) < 1e-12
        assert abs(grads[3] - (-179.59)) < 1e-12

    def test_vehicles_at_zero(self):
        game, _, _, spec = build_vehicle_formation()
        grads = pseudo_gradient(game, np.zeros(20)).reshape(10, 2)
        assert np.allclose(grads, -0.2 * spec.offsets, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pseudo_gradient(identity_game(), np.zeros(5))

    def test_batch_path_matches_per_player_oracle(self):
        # consensus profiles through pseudo_gradient, then profiles whose rows
        # differ, so row i must read player i's view alone, with one and two
        # leading lane axes
        veh_game, _, _, spec = build_vehicle_formation()
        for game, reference in ((build_turbine_market()[0], turbine_gradient(GENERATOR_TABLE)),
                                (veh_game, vehicle_gradient(spec.offsets))):
            n, m = game.n_players, game.decision_dim
            rng = np.random.default_rng(8)
            for _ in range(5):
                x = rng.uniform(-5, 5, n * m)
                consensus = np.broadcast_to(x.reshape(n, m), (n, n, m))
                assert np.allclose(pseudo_gradient(game, x),
                                   per_player_gradient_matrix(reference, consensus).ravel(),
                                   rtol=1e-12, atol=1e-12)
            for lanes in ((4,), (2, 3)):
                profiles = rng.uniform(-5, 5, lanes + (n, n, m))
                grads = gradient_matrix(game, profiles)
                assert grads.shape == lanes + (n, m)
                assert np.allclose(grads, per_player_gradient_matrix(reference, profiles),
                                   rtol=1e-12, atol=1e-12)


class TestExtendedPseudoGradient:
    def test_consistent_estimates_collapse(self):
        game, _, _ = build_turbine_market()
        rng = np.random.default_rng(9)
        x = rng.uniform(-5, 5, (6, 1))
        x_hat = np.tile(x, (6, 1, 1))  # every player estimates the truth
        assert np.array_equal(extended_pseudo_gradient(game, x, x_hat).ravel(),
                              pseudo_gradient(game, x.ravel()))

    def test_two_player_hand_case(self):
        game = coupled_pair_game()
        x = np.ones((2, 1))
        x_hat = np.zeros((2, 2, 1))  # player 1 estimates player 2 at 0
        grads = extended_pseudo_gradient(game, x, x_hat)
        assert grads[0, 0] == 1.0

    def test_zero_profile_zero_estimates(self):
        game, _, _ = build_turbine_market()
        grads = extended_pseudo_gradient(game, np.zeros((6, 1)), np.zeros((6, 6, 1)))
        assert np.array_equal(grads.ravel(), pseudo_gradient(game, np.zeros(6)))

    def test_estimate_stack_dimension(self):
        game = coupled_pair_game()
        with pytest.raises(DimensionMismatch):
            extended_pseudo_gradient(game, np.zeros((2, 1)), np.zeros(3))


class TestNashSolve:
    def test_identity_game_origin(self):
        x = nash_solve(identity_game(), np.full(6, 3.0), tol=1e-12)
        assert np.max(np.abs(x)) < 1e-12

    def test_residual_bound_holds(self):
        game, _, _ = build_turbine_market()
        x = nash_solve(game, np.zeros(6), tol=1e-9)
        assert np.max(np.abs(pseudo_gradient(game, x))) <= 1e-9

    def test_no_zero_raises(self):
        # F(x) = 1 + x^2 has no zero; both step families stall
        game = Game(1, 1, lambda profiles: 1.0 + profiles[..., 0, :, :] ** 2)
        with pytest.raises(NoConvergence):
            nash_solve(game, np.array([1.0]), tol=1e-8, max_iters=20)


class TestMonotonicityProbe:
    def test_corrupted_convexity_fails_loudly(self):
        # gamma3 < 0 breaks strong monotonicity; the probe must expose it
        table = [SimpleNamespace(gamma1=7.0, gamma2=36.8, gamma3=-1.0)] + [
            SimpleNamespace(gamma1=20.0, gamma2=13.73, gamma3=0.15) for _ in range(5)
        ]
        game, _, _ = build_turbine_market(table=table)
        report = probe_monotonicity(game, 2026, n_samples=500)
        assert report.omega_hat < 0.3


class TestGradientConsistency:
    def test_requires_cost_oracle(self):
        with pytest.raises(ValueError):
            gradient_consistency(coupled_pair_game(), 1)

    def test_detects_wrong_gradient(self):
        ident = identity_game()
        game = Game(3, 2, lambda p: 2.0 * ident.profile_gradient(p),  # off by a factor of two
                    cost_oracle=ident.cost_oracle)
        assert gradient_consistency(game, 5, n_points=10) > 1e-2
