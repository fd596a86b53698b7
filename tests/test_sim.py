"""Integrator, closed-loop run, and metric tests."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from nashseek.control import GainSet, ObserverSet, SeekerState, output_feedback_rhs, state_feedback_rhs
from nashseek.errors import (
    ConfigInvalid,
    Diverged,
    DimensionMismatch,
    EmptyWindow,
    NonPositiveError,
    NotStronglyConnected,
)
from nashseek.game import Game, extended_pseudo_gradient
from nashseek.graph import Digraph, estimation_block_matrix
from nashseek import sim
from nashseek.affine import PROBE_CHUNK_BYTES, folded_rk4, innovation_basis, probe_affine, stack_lanes
from nashseek.scenarios import (
    VEHICLE_TABLE,
    build_turbine_market,
    build_vehicle_formation,
    turbine_nash_oracle,
    vehicle_nash_oracle,
)
from nashseek.sim import (
    InitialConditions,
    Plant,
    SimConfig,
    Trajectory,
    _Layout,
    _drift_groups,
    _make_rhs,
    _with_drift,
    equilibrium_residual,
    fit_exponential_rate,
    mid_decay_window,
    post_transient_observer_error,
    rk4_step,
    run,
    settle_time,
    write_trajectory_csv,
)
from nashseek.verify import rk4_halving_factors


def identity_game(n=2, m=1):
    return Game(n, m, lambda i, x_i, x_o: np.asarray(x_i, dtype=float))


def two_cycle():
    return Digraph(np.array([[0.0, 1.0], [2.0, 0.0]]))


TURBINE_GAINS = GainSet(4, (3.375, 6.75, 4.5), 2.0, 14.0, 10.0, 40.0)
TURBINE_OBSERVER = ObserverSet((4.0, 6.0, 4.0, 1.0), 0.01)


def synthetic_trajectory(times, errors):
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    decisions = np.zeros((len(times), 1, 1))
    return Trajectory(times=times, decisions=decisions,
                      estimate_disagreement=np.zeros(len(times)),
                      error_norms=errors)


class TestRK4:
    def test_constant_rhs(self):
        out = rk4_step(lambda s, t: np.zeros_like(s), np.array([5.0]), 0.0, 0.1)
        assert out[0] == 5.0

    def test_linear_decay_accuracy(self):
        out = rk4_step(lambda s, t: -s, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7

    def test_order_four_halving_factor(self):
        factors = rk4_halving_factors()
        assert all(12.0 <= f <= 20.0 for f in factors)

    def test_divergence_detected(self):
        # the run masks a lane whose step overflows; the other lane goes on,
        # and no floating-point warning escapes from the masked lane
        def scaled(chain, w):
            return np.asarray(w)[..., None] * chain[0]

        game, gains, g = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0), two_cycle()
        cfg = SimConfig(dt=1e-2, horizon=0.5)
        init = InitialConditions(decisions=np.ones((2, 1)))
        lanes = [sim.Lane(game, [Plant(1, 1, drift=scaled, w=w)] * 2, g, gains, None, cfg, init)
                 for w in (0.0, 1e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calm, blown = sim.run_lanes(lanes)
        assert isinstance(calm, Trajectory) and np.all(np.isfinite(calm.decisions))
        assert isinstance(blown, Diverged) and "non-finite state" in str(blown)
        with warnings.catch_warnings(), pytest.raises(Diverged, match="non-finite state"):
            warnings.simplefilter("error")
            run(game, lanes[1].plants, g, gains, None, cfg, init)


class TestSimConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(dt=0.0, horizon=1.0)

    def test_rejects_short_horizon(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(dt=0.1, horizon=0.01)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(dt=0.1, horizon=1.0, mode="hybrid")

    @pytest.mark.parametrize("dt, horizon", [
        (float("nan"), 1.0), (float("inf"), 1.0), (0.1, float("nan")), (0.1, float("inf"))])
    def test_rejects_non_finite_step_or_horizon(self, dt, horizon):
        with pytest.raises(ConfigInvalid, match="finite"):
            SimConfig(dt=dt, horizon=horizon)

    @pytest.mark.parametrize("field, value", [
        ("record_stride", 1.5), ("record_stride", 0), ("record_stride", "10"),
        ("record_stride", True), ("seed", -1), ("seed", 1.0), ("seed", True)])
    def test_rejects_non_integer_or_negative_count(self, field, value):
        with pytest.raises(ConfigInvalid, match=field):
            SimConfig(dt=0.1, horizon=1.0, **{field: value})


class TestRunValidation:
    def test_output_mode_requires_observer(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-3, horizon=0.1, mode="output")
        with pytest.raises(ConfigInvalid):
            run(game, plants, two_cycle(), gains, None, cfg)

    def test_output_mode_enforces_dt_bound(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        obs = ObserverSet((1.0,), 0.02)
        cfg = SimConfig(dt=3e-3, horizon=0.1, mode="output")
        with pytest.raises(ConfigInvalid):
            run(game, plants, two_cycle(), gains, obs, cfg)

    def test_requires_strong_connectivity(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-3, horizon=0.1)
        one_way = Digraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotStronglyConnected):
            run(game, plants, one_way, gains, None, cfg)

    def test_mixed_plant_orders_rejected(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(2, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-3, horizon=0.1)
        with pytest.raises(DimensionMismatch):
            run(game, plants, two_cycle(), gains, None, cfg)

    def test_player_count_mismatch_rejected(self):
        game = identity_game(n=3)
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-3, horizon=0.1)
        with pytest.raises(DimensionMismatch):
            run(game, plants, two_cycle(), gains, None, cfg)


class TestClosedLoopRuns:
    def test_zero_gains_freeze_the_plant(self):
        game = identity_game()
        plants = [Plant(2, 1), Plant(2, 1)]
        gains = GainSet(2, (0.0,), 1.0, 0.0, 0.0, 0.0, check=False)
        cfg = SimConfig(dt=1e-2, horizon=0.5)
        init = InitialConditions(decisions=np.array([[3.0], [-1.0]]))
        traj = run(game, plants, two_cycle(), gains, None, cfg, init)
        assert np.array_equal(traj.decisions[0], traj.decisions[-1])
        assert all(np.array_equal(traj.decisions[0], d) for d in traj.decisions)

    def test_first_order_players_converge(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-3, horizon=15.0)
        init = InitialConditions(decisions=np.array([[4.0], [-2.0]]))
        traj = run(game, plants, two_cycle(), gains, None, cfg, init,
                   x_star=np.zeros(2))
        assert np.max(np.abs(traj.final_decisions)) < 1e-3

    def test_first_order_output_mode_runs(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        obs = ObserverSet((1.0,), 0.05)
        cfg = SimConfig(dt=1e-3, horizon=10.0, mode="output")
        traj = run(game, plants, two_cycle(), gains, obs, cfg,
                   InitialConditions(decisions=np.array([[4.0], [-2.0]])),
                   x_star=np.zeros(2))
        assert np.max(np.abs(traj.final_decisions)) < 1e-2
        assert traj.observer_errors is not None

    def test_unstable_gains_diverge(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 1.0, -30.0, 0.0, 0.0, check=False)
        cfg = SimConfig(dt=1e-3, horizon=3.0)
        with pytest.raises(Diverged):
            run(game, plants, two_cycle(), gains, None, cfg,
                InitialConditions(decisions=np.ones((2, 1))))

    def test_determinism_bitwise(self):
        game, plants, g, spec = build_vehicle_formation()
        gains = GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)
        cfg = SimConfig(dt=1e-3, horizon=1.0, seed=7)
        a = run(game, plants, g, gains, None, cfg, x_star=vehicle_nash_oracle(spec))
        b = run(game, plants, g, gains, None, cfg, x_star=vehicle_nash_oracle(spec))
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.error_norms, b.error_norms)
        assert np.array_equal(a.estimate_disagreement, b.estimate_disagreement)

    def test_seeded_box_initial_conditions(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1, seed=11)
        init = InitialConditions(box=(-3.0, 3.0))
        traj = run(game, plants, two_cycle(), gains, None, cfg, init)
        expected = np.random.default_rng(11).uniform(-3.0, 3.0, size=(2, 1))
        assert np.array_equal(traj.decisions[0], expected)


class TestFoldedPropagator:
    """A drift-free loop under an affine game is stepped by Phi s + c."""

    def _loop(self, mode):
        game, _, g = build_turbine_market()
        obs = TURBINE_OBSERVER if mode == "output" else None
        layout = _Layout(4, 6, 1, output_mode=mode == "output")
        rhs = _make_rhs(game, g, TURBINE_GAINS, obs, layout)
        state = np.zeros(layout.size)
        x0 = np.random.default_rng(5).uniform(-10.0, 10.0, size=(6, 1))
        layout.chain(state)[0] = x0
        if mode == "output":
            layout.z(state)[0] = x0
        return rhs, layout, state

    # Over 2 000 output-mode steps the observer's top derivative estimate,
    # scaled by (eps/mu)^3 = 8e6, carries float64 noise on either path:
    # rk4_step itself ends 2.7e-10 from an extended-precision RK4 of the same
    # map, and the fold 1.0e-9.
    @pytest.mark.parametrize("mode, rtol", [("state", 1e-9), ("output", 1e-8)])
    def test_fold_matches_rk4_step(self, mode, rtol):
        dt = 9e-4
        rhs, layout, state = self._loop(mode)
        step = folded_rk4(probe_affine(rhs, layout), dt)

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel(step(state, 0.0), rk4_step(rhs, state, 0.0, dt)) < 1e-12
        folded = reference = state
        for k in range(2000):
            folded = step(folded, k * dt)
            reference = rk4_step(rhs, reference, k * dt, dt)
        assert rel(folded, reference) < rtol
        assert rel(layout.chain(folded)[0], layout.chain(reference)[0]) < 1e-9

    @staticmethod
    def _forbid_rk4_step(monkeypatch):
        def forbidden(*args):
            raise AssertionError("rk4_step called on a folded loop")

        monkeypatch.setattr(sim, "rk4_step", forbidden)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_run_takes_the_folded_path(self, mode, monkeypatch):
        game, plants, g = build_turbine_market()
        obs = TURBINE_OBSERVER if mode == "output" else None
        cfg = SimConfig(dt=9e-4, horizon=0.9, mode=mode, seed=3)
        matrix_free = run(dataclasses.replace(game, affine=False), plants, g,
                          TURBINE_GAINS, obs, cfg)
        self._forbid_rk4_step(monkeypatch)
        folded = run(game, plants, g, TURBINE_GAINS, obs, cfg)
        assert np.allclose(folded.decisions, matrix_free.decisions, rtol=1e-9, atol=0.0)
        assert np.allclose(folded.estimate_disagreement, matrix_free.estimate_disagreement,
                           rtol=1e-9, atol=1e-12)

    def test_unstable_linear_loop_diverges(self, monkeypatch):
        game, plants, g = build_turbine_market()
        gains = GainSet(4, (3.375, 6.75, 4.5), 2.0, -30.0, 10.0, 40.0, check=False)
        self._forbid_rk4_step(monkeypatch)
        with pytest.raises(Diverged, match="magnitude"):
            run(game, plants, g, gains, None, SimConfig(dt=9e-4, horizon=60.0))


VEHICLE_GAINS = GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)
VEHICLE_OBSERVER = ObserverSet((2.0, 1.0), 0.02)


def loop_inputs(mode, scenario="turbines", plants=None):
    """(game, plants, graph, gains, observer, layout, seeded random state) of one loop."""
    if scenario == "turbines":
        game, default_plants, g = build_turbine_market()
        gains, observer = TURBINE_GAINS, TURBINE_OBSERVER
    else:
        game, default_plants, g, _ = build_vehicle_formation()
        gains, observer = VEHICLE_GAINS, VEHICLE_OBSERVER
    plants = default_plants if plants is None else plants
    obs = observer if mode == "output" else None
    layout = _Layout(gains.order_n, game.n_players, game.decision_dim, output_mode=mode == "output")
    state = np.random.default_rng(13).standard_normal(layout.size)
    return game, plants, g, gains, obs, layout, state


def linear_drift(chain, w):
    return np.asarray(w)[..., None] * chain[0]


def mixed_drift_plants():
    """Ten vehicles: the vehicle drift, a second drift callable and None, interleaved."""
    _, vehicles, _, _ = build_vehicle_formation()
    return [
        vehicles[i] if i % 3 == 0 else
        Plant(2, 2, drift=linear_drift, w=0.1 * (i + 1)) if i % 3 == 1 else
        Plant(2, 2)
        for i in range(10)
    ]


class TestLaneBatch:
    """Every loop piece serves one lane's (size,) state and a (lanes, size) batch alike."""

    def test_lane_squares_sum_as_linalg_norm(self):
        rng = np.random.default_rng(5)
        for shape in [(1, 3), (4, 10, 10, 2), (7, 6, 6, 1), (3, 20, 2)]:
            d = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            expected = [np.linalg.norm(lane) for lane in d]
            squares = np.empty((len(d), 1, 1))
            sim._lane_squares(d, squares)
            assert np.array_equal(np.sqrt(squares).ravel(), expected)

    def test_drift_groups_broadcast_over_lanes(self):
        lanes = [mixed_drift_plants(), [dataclasses.replace(p, w=None if p.w is None else
                                        2.0 * np.asarray(p.w)) for p in mixed_drift_plants()]]
        chain = np.random.default_rng(3).standard_normal((2, 2, 10, 2))
        acc = np.zeros((2, 10, 2))
        sim._add_drifts(_drift_groups(lanes, (2,)), chain, acc)
        for k, plants in enumerate(lanes):
            for i, p in enumerate(plants):
                one = np.zeros(2) if p.drift is None else p.drift(chain[:, k, i, :], p.w)
                assert np.array_equal(acc[k, i], one)

    def test_one_operator_stacks_to_itself(self):
        game, plants, g, gains, obs, layout, _ = loop_inputs("state", "vehicles")
        op = probe_affine(_make_rhs(game, g, gains, obs, layout), layout)
        assert stack_lanes([op]) is op

    def test_batch_records_each_lane_as_its_single_run(self):
        game, plants, g, _ = build_vehicle_formation()
        x_star = vehicle_nash_oracle(build_vehicle_formation()[3])
        cfg = SimConfig(dt=1e-3, horizon=0.3, mode="output", record_stride=7)
        lanes = [sim.Lane(game, plants, g, VEHICLE_GAINS, VEHICLE_OBSERVER,
                          dataclasses.replace(cfg, seed=seed), None, star)
                 for seed, star in ((1, x_star), (2, None), (3, x_star))]
        for lane, batched in zip(lanes, sim.run_lanes(lanes)):
            single = run(lane.game, lane.plants, lane.g, lane.gains, lane.obs, lane.cfg, x_star=lane.x_star)
            for field in ("times", "decisions", "estimate_disagreement", "error_norms", "observer_errors"):
                a, b = getattr(batched, field), getattr(single, field)
                assert (a is None) == (b is None) == (field == "error_norms" and lane.x_star is None)
                assert a is None or np.array_equal(a, b)


class TestRhsMatchesPerPlayerLaws:
    """The vectorized closed-loop right-hand side must agree with the
    per-player law functions assembled by hand."""

    def _check(self, mode, scenario="turbines", plants=None):
        game, plants, g, gains, obs, layout, state = loop_inputs(mode, scenario, plants)
        n, m, n_players = gains.order_n, game.decision_dim, game.n_players
        rhs = _with_drift(_make_rhs(game, g, gains, obs, layout), _drift_groups([plants]), layout)
        derivative = rhs(state, 0.0)

        chain = layout.chain(state)
        x_hat = layout.x_hat(state)
        y = layout.y(state)
        x = chain[0]
        z = layout.z(state)
        d_chain = layout.chain(derivative)
        d_y = layout.y(derivative)
        d_hat = layout.x_hat(derivative)
        d_z = layout.z(derivative)

        grads = extended_pseudo_gradient(game, x.reshape(-1), x_hat.reshape(-1)).reshape(n_players, m)
        for i in range(n_players):
            neighbor = {k: (x_hat[k], x[k]) for k in range(n_players)}
            seeker = SeekerState(y=y[i], x_hat=x_hat[i],
                                 z_chain=None if z is None else z[:, i, :])
            if mode == "state":
                u_i, dy_i, dxh_i = state_feedback_rhs(
                    i, chain[:, i, :], seeker, grads[i], neighbor, gains, g)
            else:
                u_i, dy_i, dz_i, dxh_i = output_feedback_rhs(
                    i, x[i], seeker, grads[i], neighbor, gains, obs, g)
                assert np.allclose(d_z[:, i, :], dz_i, atol=1e-12)
            p = plants[i]
            drift_i = 0.0 if p.drift is None else p.drift(chain[:, i, :], p.w)
            assert np.allclose(d_chain[-1, i], u_i + drift_i, atol=1e-12)
            assert np.allclose(d_y[i], dy_i, atol=1e-12)
            assert np.allclose(d_hat[i], dxh_i, atol=1e-12)
            for level in range(n - 1):
                assert np.array_equal(d_chain[level, i], chain[level + 1, i])

    def test_state_mode(self):
        self._check("state")

    def test_output_mode(self):
        self._check("output")

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_vehicles_with_drift(self, mode):
        self._check(mode, "vehicles")

    def test_two_drift_callables_mixed_with_none(self):
        self._check("state", "vehicles", mixed_drift_plants())

    def test_estimate_rate_matches_kronecker_form(self):
        # dual route: tensor difference form vs the stacked block matrices
        from nashseek.control import stacked_estimate_rate
        from nashseek.verify import random_strongly_connected_digraph

        rng = np.random.default_rng(14)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 3))
            g = random_strongly_connected_digraph(rng, n)
            x_hat = rng.standard_normal((n, n, m))
            x = rng.standard_normal((n, m))
            alpha3 = 7.0
            tensor_rate = stacked_estimate_rate(x_hat, x, g, alpha3)
            l_ext, mm = estimation_block_matrix(g)
            flat_hat = x_hat.reshape(n * n, m)
            ones_x = np.tile(x, (n, 1))
            matrix_rate = -alpha3 * (l_ext @ flat_hat + mm @ (flat_hat - ones_x))
            assert np.allclose(tensor_rate.reshape(n * n, m), matrix_rate, atol=1e-12)


def cubic_gradient_game(game):
    """The game with a small cubic term in each own gradient, still declared affine."""
    diag = np.arange(game.n_players)
    return dataclasses.replace(
        game, profile_gradient=lambda p: game.profile_gradient(p) + 1e-3 * p[..., diag, diag, :] ** 3)


def count_structured_rhs_calls(monkeypatch):
    """Patch sim._make_rhs so every call of a structured rhs is appended to the returned list."""
    calls = []
    make_rhs = sim._make_rhs

    def counting(*args):
        rhs = make_rhs(*args)

        def counted(s, t):
            calls.append(t)
            return rhs(s, t)

        return counted

    monkeypatch.setattr(sim, "_make_rhs", counting)
    return calls


class TestProbedOperator:
    """Under an affine game a drifting loop steps the probed sparse operator plus its drift."""

    @pytest.mark.parametrize("mode, scenario, plants", [
        ("state", "vehicles", None),
        ("output", "vehicles", None),
        ("state", "vehicles", mixed_drift_plants()),
        ("state", "turbines", None),
        ("output", "turbines", None),
    ])
    def test_operator_rhs_matches_structured_rhs(self, mode, scenario, plants):
        game, plants, g, gains, obs, layout, state = loop_inputs(mode, scenario, plants)
        rhs = _make_rhs(game, g, gains, obs, layout)
        groups = _drift_groups([plants])
        probed = _with_drift(probe_affine(rhs, layout).apply, groups, layout)(state, 0.0)
        structured = _with_drift(rhs, groups, layout)(state, 0.0)
        assert np.max(np.abs(probed - structured)) <= 1e-12 * np.max(np.abs(structured))

    @pytest.mark.parametrize("mode, scenario, n_players", [
        ("state", "vehicles", 10),
        ("output", "vehicles", 10),
        ("state", "turbines", 6),
        ("output", "turbines", 6),
        ("state", "vehicles", 30),
    ])
    def test_chunked_probe_matches_column_oracle(self, mode, scenario, n_players):
        game, plants, g, gains, obs, layout, _ = loop_inputs(mode, scenario)
        if n_players != game.n_players:
            offsets = np.random.default_rng(2).uniform(-10.0, 10.0, size=(n_players, 2))
            game, _, g, _ = build_vehicle_formation(table=VEHICLE_TABLE * (n_players // 10), offsets=offsets)
            layout = _Layout(2, n_players, 2, output_mode=False)
        rhs = _make_rhs(game, g, gains, obs, layout)
        op = probe_affine(rhs, layout)

        # the oracle: one structured call per column, rhs(B e_j) - rhs(0)
        basis = innovation_basis(layout) or (lambda v: v)
        b = rhs(np.zeros(layout.size), 0.0)
        rows, cols, vals = [], [], []
        for j in range(layout.size):
            unit = np.zeros(layout.size)
            unit[j] = 1.0
            column = rhs(basis(unit), 0.0) - b
            nz = np.flatnonzero(column)
            rows.append(nz)
            cols.append(np.full(nz.size, j))
            vals.append(column[nz])
        assert np.array_equal(op.rows, np.concatenate(rows))
        assert np.array_equal(op.cols, np.concatenate(cols))
        assert np.allclose(op.vals, np.concatenate(vals), rtol=1e-15, atol=0.0)
        assert np.allclose(op.b, b, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n_players, size, nonzeros", [(10, 260, 900), (30, 1980, 7500)])
    def test_operator_keeps_only_the_nonzeros(self, n_players, size, nonzeros):
        offsets = np.random.default_rng(2).uniform(-10.0, 10.0, size=(n_players, 2))
        game, _, g, _ = build_vehicle_formation(table=VEHICLE_TABLE * (n_players // 10), offsets=offsets)
        layout = _Layout(2, n_players, 2, output_mode=False)
        op = probe_affine(_make_rhs(game, g, VEHICLE_GAINS, None, layout), layout)
        assert layout.size == size and op.vals.size == nonzeros and np.all(op.vals != 0.0)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_run_calls_the_structured_rhs_only_to_probe(self, mode, monkeypatch):
        game, plants, g, gains, obs, layout, _ = loop_inputs(mode, "vehicles")
        calls = count_structured_rhs_calls(monkeypatch)
        counts = []
        for horizon in (0.02, 0.05):
            calls.clear()
            run(game, plants, g, gains, obs, SimConfig(dt=1e-3, horizon=horizon, mode=mode))
            counts.append(len(calls))
        # b, every column and the affine check, PROBE_CHUNK_BYTES of lanes a call
        per_call = PROBE_CHUNK_BYTES // (8 * layout.size)
        assert counts == [math.ceil((layout.size + 2) / per_call)] * 2

    def test_non_affine_game_takes_the_structured_path(self, monkeypatch):
        game, plants, g, gains, obs, _, _ = loop_inputs("state", "vehicles")
        calls = count_structured_rhs_calls(monkeypatch)
        run(dataclasses.replace(game, affine=False), plants, g, gains, obs,
            SimConfig(dt=1e-3, horizon=0.05))
        assert len(calls) == 4 * 50

    @pytest.mark.parametrize("mode", ["state", "output"])
    @pytest.mark.parametrize("scenario", ["vehicles", "turbines"])
    def test_wrong_affine_declaration_raises(self, scenario, mode):
        game, plants, g, gains, obs, _, _ = loop_inputs(mode, scenario)
        with pytest.raises(ConfigInvalid, match="declared affine"):
            run(cubic_gradient_game(game), plants, g, gains, obs,
                SimConfig(dt=9e-4, horizon=0.01, mode=mode))

    def test_unstable_drifting_loop_diverges(self):
        game, _, g, gains, _, _, _ = loop_inputs("state", "vehicles")

        def anti_damping(chain, w):
            return 50.0 * chain[1]

        anti_damped = [Plant(2, 2, drift=anti_damping) for _ in range(10)]
        with pytest.raises(Diverged, match="magnitude"):
            run(game, anti_damped, g, gains, None, SimConfig(dt=1e-3, horizon=5.0),
                InitialConditions(decisions=np.ones((10, 2))))


class TestEquilibriumResidual:
    def test_vehicle_equilibrium_annihilates_rhs(self):
        game, plants, g, spec = build_vehicle_formation()
        gains = GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)
        assert equilibrium_residual(game, plants, g, gains, vehicle_nash_oracle(spec)) < 1e-9

    def test_turbine_equilibrium_annihilates_rhs(self):
        game, plants, g = build_turbine_market()
        gains = GainSet(4, (3.375, 6.75, 4.5), 2.0, 14.0, 10.0, 40.0)
        assert equilibrium_residual(game, plants, g, gains, turbine_nash_oracle()) < 1e-9

    def test_zero_drift_residual_below_1e12(self):
        game, plants, g = build_turbine_market()
        gains = GainSet(4, (3.375, 6.75, 4.5), 2.0, 14.0, 10.0, 40.0)
        assert equilibrium_residual(game, plants, g, gains, turbine_nash_oracle()) < 1e-12

    def test_perturbed_point_is_not_an_equilibrium(self):
        game, plants, g = build_turbine_market()
        gains = GainSet(4, (3.375, 6.75, 4.5), 2.0, 14.0, 10.0, 40.0)
        x = turbine_nash_oracle().copy()
        x[0] += 0.1
        assert equilibrium_residual(game, plants, g, gains, x) > 1e-4


class TestSettleTime:
    def test_already_settled(self):
        traj = synthetic_trajectory([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert settle_time(traj, np.zeros(1), 0.01) == 0.0

    def test_exponential_crossing(self):
        times = np.arange(0.0, 8.0, 0.01)
        decisions = (1.0 + np.exp(-times))[:, None, None]
        traj = Trajectory(times=times, decisions=decisions,
                          estimate_disagreement=np.zeros(len(times)))
        t = settle_time(traj, np.array([1.0]), 0.01)
        assert abs(t - math.log(100.0)) < 0.02

    def test_diverging_returns_none(self):
        times = np.arange(0.0, 5.0, 0.1)
        decisions = np.exp(times)[:, None, None]
        traj = Trajectory(times=times, decisions=decisions,
                          estimate_disagreement=np.zeros(len(times)))
        assert settle_time(traj, np.array([0.0]), 0.01) is None


class TestExponentialFit:
    def test_pure_exponential(self):
        times = np.arange(0.0, 5.0, 0.01)
        traj = synthetic_trajectory(times, np.exp(-2.0 * times))
        lam, r2 = fit_exponential_rate(traj, (0.0, 5.0))
        assert abs(lam - 2.0) < 1e-6
        assert r2 > 1.0 - 1e-9

    def test_perturbed_exponential(self):
        times = np.arange(0.0, 5.0, 0.01)
        errors = np.exp(-2.0 * times) * (1.0 + 0.01 * np.sin(10.0 * times))
        traj = synthetic_trajectory(times, errors)
        lam, r2 = fit_exponential_rate(traj, (0.0, 5.0))
        assert 1.9 <= lam <= 2.1
        assert r2 > 0.99

    def test_empty_window(self):
        traj = synthetic_trajectory([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(EmptyWindow):
            fit_exponential_rate(traj, (5.0, 6.0))

    def test_non_positive_errors(self):
        traj = synthetic_trajectory([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])
        with pytest.raises(NonPositiveError):
            fit_exponential_rate(traj, (0.0, 2.0))

    def test_mid_decay_window_on_exponential(self):
        times = np.arange(0.0, 10.0, 0.001)
        traj = synthetic_trajectory(times, np.exp(-times))
        t_lo, t_hi = mid_decay_window(traj)
        assert abs(t_lo - (-math.log(0.9))) < 0.01
        assert abs(t_hi - (-math.log(0.1))) < 0.01


class TestTrajectoryExport:
    def test_csv_header_and_roundtrip(self, tmp_path):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1)
        traj = run(game, plants, two_cycle(), gains, None, cfg,
                   InitialConditions(decisions=np.array([[1.0], [2.0]])),
                   x_star=np.zeros(2))
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1_1,x_2_1,err_norm,est_disagreement"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0 and float(first[2]) == 2.0

    def test_csv_bytes_deterministic(self, tmp_path):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.2, seed=3)
        paths = []
        for tag in ("a", "b"):
            traj = run(game, plants, two_cycle(), gains, None, cfg, x_star=np.zeros(2))
            p = tmp_path / f"{tag}.csv"
            write_trajectory_csv(traj, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestObserverErrorSeries:
    def test_post_transient_error_none_in_state_mode(self):
        traj = synthetic_trajectory([0.0, 1.0], [1.0, 0.5])
        assert post_transient_observer_error(traj) is None

    def test_post_transient_error_skips_initial_fraction(self):
        times = np.arange(0.0, 10.0, 1.0)
        traj = Trajectory(times=times, decisions=np.zeros((10, 1, 1)),
                          estimate_disagreement=np.zeros(10),
                          observer_errors=np.array([9.0, 8.0, 0.5, 0.4, 0.3,
                                                    0.2, 0.1, 0.1, 0.1, 0.1]))
        assert post_transient_observer_error(traj, fraction=0.2) == 0.5
