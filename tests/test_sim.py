"""Integrator, closed-loop run, and metric tests."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nashseek.config import build_run_setup, default_config
from nashseek.control import GainSet, ObserverSet, observer_weights
from nashseek.errors import (
    ConfigInvalid,
    Diverged,
    DimensionMismatch,
    EmptyWindow,
    NonPositiveError,
    NotStronglyConnected,
)
from nashseek.game import Game, extended_pseudo_gradient
from nashseek.graph import Digraph
from nashseek import affine, sim, verify
from nashseek.affine import (PROBE_CHUNK_BYTES, AffineOperator, fold_blocks, fold_drift_rk4, probe_affine,
                             stack_lanes)
from nashseek.scenarios import (
    GENERATOR_TABLE,
    VEHICLE_TABLE,
    build_turbine_market,
    build_vehicle_formation,
    default_cycle_digraph,
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
from oracles import csv_writer_trajectory, kronecker_estimate_form, player_law, recorded_series, taylor_rk4


def identity_game(n=2, m=1):
    return verify.identity_game(n, m)


def two_cycle():
    return Digraph(np.array([[0.0, 1.0], [2.0, 0.0]]))


def unchecked_gains(*values):
    """A GainSet built without its validation, for zero or destabilising gains."""
    gains = object.__new__(GainSet)
    gains.__dict__.update(zip((f.name for f in dataclasses.fields(GainSet)), values))
    return gains


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

    @pytest.mark.parametrize("dt, horizon", [
        (float("nan"), 1.0), (float("inf"), 1.0), (0.1, float("nan")), (0.1, float("inf")), (1e-320, 30.0)])
    def test_rejects_non_finite_step_or_horizon(self, dt, horizon):
        with pytest.raises(ConfigInvalid, match="finite"):
            SimConfig(dt=dt, horizon=horizon)

    @pytest.mark.parametrize("field, value", [("dt", True), ("dt", np.True_), ("horizon", True)])
    def test_rejects_boolean_step_or_horizon(self, field, value):
        with pytest.raises(ConfigInvalid, match=f"{field}.*True"):
            SimConfig(**{"dt": 0.1, "horizon": 1.0, field: value})

    @pytest.mark.parametrize("field, value", [
        ("record_stride", 1.5), ("record_stride", 0), ("record_stride", "10"),
        ("record_stride", True), ("seed", -1), ("seed", 2.5), ("seed", True)])
    def test_rejects_non_integer_or_negative_count(self, field, value):
        with pytest.raises(ConfigInvalid, match=field):
            SimConfig(dt=0.1, horizon=1.0, **{field: value})


class TestRunValidation:
    def test_output_mode_enforces_dt_bound(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        obs = ObserverSet((1.0,), 0.02)
        cfg = SimConfig(dt=3e-3, horizon=0.1)
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

    # a finite box whose width overflows would make rng.uniform raise OverflowError
    @pytest.mark.parametrize("box", [(0.0, np.nan), (-np.inf, 1.0), (5.0, 0.0), (1.0, 2.0, 3.0), None,
                                     (-1e308, 1e308)])
    def test_bad_box_fails_its_lane_alone(self, box):
        game, gains = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1)
        lanes = [sim.Lane(game, [Plant(1, 1)] * 2, two_cycle(), gains, None, cfg, InitialConditions(box=b))
                 for b in ((0.0, 1.0), box, (-1.0, 0.0))]
        first, bad, last = sim.run_lanes(lanes)
        assert isinstance(first, Trajectory) and isinstance(last, Trajectory)
        assert isinstance(bad, ConfigInvalid) and "init.box must be finite with low <= high" in str(bad)

    @pytest.mark.parametrize("field, value", [
        ("decisions", [["a"], [1.0]]), ("decisions", [[1.0], [1.0, 2.0]]), ("derivatives", [[[None], [0.0]]]),
        ("decisions", [["1"], ["2"]]), ("decisions", [[True], [1.0]])])
    def test_non_numeric_start_fails_its_lane_alone(self, field, value):
        game, gains = identity_game(), GainSet(2, (1.0,), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1)
        lanes = [sim.Lane(game, [Plant(2, 1)] * 2, two_cycle(), gains, None, cfg, init)
                 for init in (None, InitialConditions(**{field: value}), None)]
        first, bad, last = sim.run_lanes(lanes)
        assert isinstance(first, Trajectory) and isinstance(last, Trajectory)
        assert isinstance(bad, ConfigInvalid) and f"init.{field} must be finite numbers" in str(bad)

    def test_wrongly_sized_x_star_fails_its_lane_alone(self):
        game, gains = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1)
        lanes = [sim.Lane(game, [Plant(1, 1)] * 2, two_cycle(), gains, None, cfg, x_star=x)
                 for x in (np.zeros(2), np.zeros(3), None)]
        first, bad, last = sim.run_lanes(lanes)
        assert isinstance(first, Trajectory) and isinstance(last, Trajectory)
        assert isinstance(bad, DimensionMismatch) and "x_star must hold 2 numbers, got 3" in str(bad)

    @pytest.mark.parametrize("x_star", [np.array([0.0, np.nan]), ["1", 0.0]])
    def test_non_numeric_x_star_fails_its_lane_alone(self, x_star):
        game, gains = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1)
        lanes = [sim.Lane(game, [Plant(1, 1)] * 2, two_cycle(), gains, None, cfg, x_star=x)
                 for x in (np.zeros(2), x_star, None)]
        first, bad, last = sim.run_lanes(lanes)
        assert isinstance(first, Trajectory) and isinstance(last, Trajectory)
        assert isinstance(bad, ConfigInvalid) and "x_star must be finite numbers" in str(bad)

    def test_unallocatable_records_fail_their_batch_alone(self):
        # 1e-300 asks numpy for more rows than an array may have, so nothing is allocated
        game, gains = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        lanes = [sim.Lane(game, [Plant(1, 1)] * 2, two_cycle(), gains, None, SimConfig(dt=dt, horizon=0.1))
                 for dt in (1e-300, 1e-2, 1e-300)]
        huge, fine, other = sim.run_lanes(lanes)
        assert isinstance(fine, Trajectory)
        for outcome in (huge, other):
            assert isinstance(outcome, ConfigInvalid)
            for key in ("sim.dt=1e-300", "sim.horizon=0.1", "sim.record_stride=10", "1e+298 records"):
                assert key in str(outcome)
        assert huge is not other

    @pytest.mark.parametrize("stride", [11, 2 ** 70, 10 ** 400])
    def test_stride_past_the_horizon_records_start_and_end(self, stride):
        # the record time grid takes 2**70, past int64, and 10**400, past the float range
        game, gains = identity_game(), GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        cfg = SimConfig(dt=1e-2, horizon=0.1, record_stride=stride)
        traj = run(game, [Plant(1, 1)] * 2, two_cycle(), gains, None, cfg)
        assert traj.times.tolist() == [0.0, 10 * 1e-2]


class TestClosedLoopRuns:
    def test_zero_gains_freeze_the_plant(self):
        game = identity_game()
        plants = [Plant(2, 1), Plant(2, 1)]
        gains = unchecked_gains(2, (0.0,), 1.0, 0.0, 0.0, 0.0)
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
        cfg = SimConfig(dt=1e-3, horizon=10.0)
        traj = run(game, plants, two_cycle(), gains, obs, cfg,
                   InitialConditions(decisions=np.array([[4.0], [-2.0]])),
                   x_star=np.zeros(2))
        assert np.max(np.abs(traj.final_decisions)) < 1e-2
        assert traj.observer_errors is not None

    def test_unstable_gains_diverge(self):
        game = identity_game()
        plants = [Plant(1, 1), Plant(1, 1)]
        gains = unchecked_gains(1, (), 1.0, -30.0, 0.0, 0.0)
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


def drift_free_fold(op, layout, dt):
    """The run's fold of a drift-free loop: no drift slots, z = [s, 1]."""
    return fold_drift_rk4(op, dt, *layout.fold_rows(False))


def drift_free_stepper(op, layout, dt, state):
    """s -> s+, a copy, by the run's fold stepper of a drift-free loop, for states shaped like state."""
    advance = sim._fold_stepper(drift_free_fold(op, layout, dt), [], layout, state)
    return lambda s: advance(s, 0.0).copy()


def one_step_records(lane, step):
    """(times, decisions) of lane's records, its start stepped one step at a time by step(start)(s) -> s+."""
    start = sim._start(lane, {})
    advance, cfg = step(start), lane.cfg
    steps = round(cfg.horizon / cfg.dt)
    s, rows, decisions = start.state, [0], [start.layout.chain(start.state)[0]]
    for k in range(1, steps + 1):
        s = advance(s)
        if k % cfg.record_stride == 0 or k == steps:
            rows.append(k)
            decisions.append(start.layout.chain(s)[0])
    return np.array(rows) * cfg.dt, np.array(decisions)


def taylor_steps(start):
    """One RK4 step of start's drift-free loop as the dense Taylor oracle."""
    phi, c = taylor_rk4(start.op, start.lane.cfg.dt)
    return lambda s: phi @ s + c


def fold_steps(start):
    """One RK4 step of start's drift-free loop as the run's fold stepper."""
    return drift_free_stepper(start.op, start.layout, start.lane.cfg.dt, start.state)


def assert_records_match(traj, reference, rtol):
    """traj at reference's record times, each record's decision gap within rtol of its largest decision."""
    times, decisions = reference
    assert np.array_equal(traj.times, times)
    gap = np.max(np.abs(traj.decisions - decisions), axis=(1, 2))
    assert np.all(gap <= rtol * np.max(np.abs(decisions), axis=(1, 2)))


class LoggedProducts(np.ndarray):
    """An array that appends "group" to its log each time a state is multiplied by it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append("group")
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


class TestFoldedPropagator:
    """A drift-free loop under an affine game steps its fold, and groups of record intervals as one product."""

    def _loop(self, mode):
        game, _, g = build_turbine_market()
        obs = TURBINE_OBSERVER if mode == "output" else None
        layout = _Layout(4, 6, 1, output_mode=mode == "output")
        rhs = _make_rhs(game, g, TURBINE_GAINS, obs, layout)
        state = np.zeros(layout.size)
        # the observer starts on x0: its innovation x - z_0 stays 0
        layout.chain(state)[0] = np.random.default_rng(5).uniform(-10.0, 10.0, size=(6, 1))
        return rhs, layout, state

    # Over 2 000 output-mode steps the observer's top derivative estimate,
    # scaled by (eps/mu)^3 = 8e6, carries float64 noise on either path:
    # rk4_step itself ends 2.7e-10 from an extended-precision RK4 of the same
    # map, and the fold 1.0e-9.
    @pytest.mark.parametrize("mode, rtol", [("state", 1e-9), ("output", 1e-8)])
    def test_fold_matches_rk4_step(self, mode, rtol):
        dt = 9e-4
        rhs, layout, state = self._loop(mode)
        step = drift_free_stepper(probe_affine(rhs, layout), layout, dt, state)

        def rel(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel(step(state), rk4_step(rhs, state, 0.0, dt)) < 1e-12
        folded = reference = state
        for k in range(2000):
            folded = step(folded)
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
        cfg = SimConfig(dt=9e-4, horizon=0.9, seed=3)
        matrix_free = run(dataclasses.replace(game, affine=False), plants, g,
                          TURBINE_GAINS, obs, cfg)
        self._forbid_rk4_step(monkeypatch)
        folded = run(game, plants, g, TURBINE_GAINS, obs, cfg)
        assert np.allclose(folded.decisions, matrix_free.decisions, rtol=1e-9, atol=0.0)
        assert np.allclose(folded.estimate_disagreement, matrix_free.estimate_disagreement,
                           rtol=1e-9, atol=1e-12)

    UNSTABLE_GAINS = unchecked_gains(4, (3.375, 6.75, 4.5), 2.0, -30.0, 10.0, 40.0)

    def test_unstable_linear_loop_diverges(self, monkeypatch):
        game, plants, g = build_turbine_market()
        self._forbid_rk4_step(monkeypatch)
        with pytest.raises(Diverged, match="magnitude"):
            run(game, plants, g, self.UNSTABLE_GAINS, None, SimConfig(dt=9e-4, horizon=60.0))

    @staticmethod
    def _diverged_message(*args):
        with pytest.raises(Diverged) as caught:
            run(*args)
        return str(caught.value)

    @staticmethod
    def _lane(mode, **cfg):
        game, plants, g = build_turbine_market()
        return sim.Lane(game, plants, g, TURBINE_GAINS, TURBINE_OBSERVER if mode == "output" else None,
                        SimConfig(dt=9e-4, seed=3, **cfg))

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_record_interval_product_matches_one_step_stepping(self, mode):
        # 1 000 steps leave a remainder interval of 6 steps at stride 7
        lane = self._lane(mode, horizon=0.9, record_stride=7)
        strided, = sim.run_lanes([lane])
        assert strided.stepping.kind == "folded" and strided.stepping.group is not None
        # the two paths round differently; test_default_runs_hold_the_readme_figures
        # bounds the gap over the default turbine runs
        assert_records_match(strided, one_step_records(lane, fold_steps), 1e-11)

    @pytest.mark.parametrize("mode, count", [("state", 7), ("output", 4)])
    def test_stride_one_run_groups_its_intervals(self, mode, count):
        # the group's maps are Phi, Phi^2, ..., Phi^count, so every product records count steps
        lane = self._lane(mode, horizon=0.9, record_stride=1)
        traj, = sim.run_lanes([lane])
        assert traj.stepping[:4] == ("folded", count, math.ceil(1000 / count), 0)
        assert_records_match(traj, one_step_records(lane, fold_steps), 1e-12)

    def test_stride_one_group_needs_no_fold_payback(self):
        # 66 steps at stride 1: the fold's build and the G - 1 products of the maps are priced
        # against 66 steps, a group product against G steps, and six maps are the cheapest
        traj, = sim.run_lanes([self._lane("state", horizon=66 * 9e-4, record_stride=1)])
        assert traj.stepping[:4] == ("folded", 6, 11, 0)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_drift_free_run_too_short_for_groups_steps_folded(self, mode, monkeypatch):
        # 333 steps at stride 100: the maps' 100 + G - 2 products cost more than stepping the
        # fold, whose size + 1 input vectors pay back; the fold stepper takes every step
        lane = self._lane(mode, horizon=0.3, record_stride=100)
        log = self._spy_steps(monkeypatch)
        traj, = sim.run_lanes([lane])
        assert traj.stepping[:4] == ("folded", None, 0, 333)
        assert log.count("step") == 333 and "group" not in log
        assert_records_match(traj, one_step_records(lane, taylor_steps), 1e-12)

    def test_long_strided_run_steps_its_fold(self):
        # 3 333 steps at stride 1 000: the maps' 1 000 + G - 2 products cost more than stepping the
        # fold, whose 67 input vectors pay back
        lane = self._lane("state", horizon=3.0, record_stride=1000)
        traj, = sim.run_lanes([lane])
        assert traj.stepping[:4] == ("folded", None, 0, 3333)
        assert_records_match(traj, one_step_records(lane, taylor_steps), 1e-12)

    def test_large_drift_free_market_steps_sparse(self):
        # 30 generators, size 1 050: 556 steps pay back neither a group's build nor the fold's, whose
        # 8.8 MB block is also over FOLD_DRIFT_BYTES
        table = [GENERATOR_TABLE[i % len(GENERATOR_TABLE)] for i in range(30)]
        game, plants, g = build_turbine_market(table=table)
        lane = sim.Lane(game, plants, g, TURBINE_GAINS, None, SimConfig(dt=9e-4, horizon=0.5))
        traj, = sim.run_lanes([lane])
        assert traj.stepping[:4] == ("sparse", None, 0, 556)
        assert_records_match(traj, one_step_records(lane, taylor_steps), 1e-12)

    @pytest.mark.parametrize("horizon, plan", [(10.0, sim.Plan("sparse")), (30.0, sim.Plan("folded", 1))])
    def test_large_drift_free_market_takes_groups_only_where_they_pay(self, horizon, plan):
        # 30 generators at stride 10: one 8.8 MB map a group, built in 9 products of size 1 050.
        # ``tools/time_layers.py step 30 turbines`` measured the sparse step faster over 10 s
        # (0.83 s against 0.95 s of groups), and the groups over 30 s (1.73 s against 2.25 s)
        table = [GENERATOR_TABLE[i % len(GENERATOR_TABLE)] for i in range(30)]
        game, plants, g = build_turbine_market(table=table)
        lane = sim.Lane(game, plants, g, TURBINE_GAINS, None, SimConfig(dt=9e-4, horizon=horizon))
        assert sim._plan([sim._start(lane, {})], round(horizon / 9e-4)) == plan

    @pytest.mark.parametrize("scenario, mode, blocks", [
        ("turbines", "state", 1), ("turbines", "output", 1), ("vehicles", "state", 2)])
    def test_drift_free_fold_matches_the_taylor_form(self, scenario, mode, blocks):
        # the vehicle game's loop, without its drift, splits by coordinate into two blocks
        game, _, g, gains, obs, layout, _ = loop_inputs(mode, scenario)
        op = probe_affine(_make_rhs(game, g, gains, obs, layout), layout)
        assert len(fold_blocks(op, *layout.fold_rows(False)).rows) == blocks
        y, offset, _, _ = drift_free_fold(op, layout, 9e-4).intervals(1, 1)
        phi, c = taylor_rk4(op, 9e-4)
        assert np.max(np.abs(y.T - phi)) <= 1e-13 * np.max(np.abs(phi))
        assert np.max(np.abs(offset - c)) <= 1e-13 * np.max(np.abs(c))

    def test_interval_bounds_every_step_it_replaces(self):
        rhs, layout, state = self._loop("output")
        op = probe_affine(rhs, layout)
        fold = drift_free_fold(op, layout, 9e-4)
        (phi, c, _, _), (y, c_10, kappa, c_peak) = fold.intervals(1, 1), fold.intervals(10, 1)
        # the j-step maps one step at a time: the unit vectors step through
        # the rows of the maps and the zero state through the offsets c_j; in
        # output mode the map's norm peaks at j = 2, not at j = 10
        maps, offsets = np.eye(layout.size), np.zeros(layout.size)
        norms, peaks = [], []
        for _ in range(10):
            maps, offsets = maps @ phi, offsets @ phi + c
            norms.append(np.max(np.abs(maps).sum(axis=0)))
            peaks.append(np.max(np.abs(offsets)))
        assert np.argmax(norms) < 9
        assert kappa == pytest.approx(max(norms), rel=1e-12)
        assert c_peak == pytest.approx(max(peaks), rel=1e-12)
        # the run's one-step path, the fold stepper, stays within the bound too
        bound, step, s = kappa * np.max(np.abs(state)) + c_peak, drift_free_stepper(op, layout, 9e-4, state), state
        for _ in range(10):
            s = step(s)
            assert np.max(np.abs(s)) <= bound
        # the observer's top derivative carries (eps/mu)^3 = 8e6 times the
        # rounding of either path, as in test_fold_matches_rk4_step
        assert np.max(np.abs(state @ y + c_10 - s)) <= 1e-9 * np.max(np.abs(s))

    def test_interval_divergence_matches_one_step_divergence(self, monkeypatch):
        game, plants, g = build_turbine_market()
        self._forbid_rk4_step(monkeypatch)
        for obs in (None, TURBINE_OBSERVER):
            messages = [self._diverged_message(game, plants, g, self.UNSTABLE_GAINS, obs,
                                               SimConfig(dt=9e-4, horizon=60.0, record_stride=stride))
                        for stride in (10, 1)]
            assert messages[0] == messages[1]
            assert "magnitude" in messages[0]

    def test_batch_lanes_diverge_at_their_single_run_steps(self):
        game, plants, g = build_turbine_market()
        cfg = SimConfig(dt=9e-4, horizon=40.0)
        inits = [InitialConditions(decisions=scale * np.arange(1.0, 7.0)[:, None]) for scale in (1.0, 1e4, 1e8)]
        lanes = [sim.Lane(game, plants, g, self.UNSTABLE_GAINS, None, cfg, init) for init in inits]
        outcomes = sim.run_lanes(lanes)
        messages = [str(outcome) for outcome in outcomes]
        assert all(isinstance(outcome, Diverged) for outcome in outcomes)
        assert len(set(messages)) == 3
        for init, message in zip(inits, messages):
            for stride in (10, 1):
                assert message == self._diverged_message(game, plants, g, self.UNSTABLE_GAINS, None,
                                                         dataclasses.replace(cfg, record_stride=stride), init)

    @staticmethod
    def _spy_groups(monkeypatch):
        """The count of every group of record intervals built from here on."""
        counts, intervals = [], affine.DriftFold.intervals

        def spy(self, r, count):
            counts.append(count)
            return intervals(self, r, count)

        monkeypatch.setattr(affine.DriftFold, "intervals", spy)
        return counts

    @pytest.mark.parametrize("mode, count", [("state", 7), ("output", 4)])
    def test_grouped_intervals_match_one_interval_per_product(self, mode, count, monkeypatch):
        # 1 000 steps at stride 7: 142 full intervals, not a multiple of
        # either count, and a remainder interval of 6 steps
        game, plants, g = build_turbine_market()
        obs = TURBINE_OBSERVER if mode == "output" else None
        cfg = SimConfig(dt=9e-4, horizon=0.9, record_stride=7, seed=3)
        counts = self._spy_groups(monkeypatch)
        grouped = run(game, plants, g, TURBINE_GAINS, obs, cfg)
        start = sim._start(sim.Lane(game, plants, g, TURBINE_GAINS, obs, cfg), {})
        single = sim._integrate([start], sim.Plan("folded", 1))[0]
        assert counts == [count, 1] and (1000 // 7) % count and 1000 % 7
        assert np.array_equal(grouped.times, single.times)
        gap = np.max(np.abs(grouped.decisions - single.decisions), axis=(1, 2))
        assert np.all(gap <= 1e-11 * np.max(np.abs(single.decisions), axis=(1, 2)))

    @pytest.mark.parametrize("steps, lanes, count", [(30, 1, None), (50, 1, 2), (200, 2, 4), (1000, 1, 7)])
    def test_group_counts_its_build_products_against_the_steps(self, steps, lanes, count, monkeypatch):
        # turbines/state, size 66, stride 10: the maps' 10 + count - 2 products are priced against a
        # product a group, at most 7 maps (RECORD_BLOCK_BYTES); 30 steps take the fold one step at a time
        game, plants, g = build_turbine_market()
        cfg = SimConfig(dt=9e-4, horizon=steps * 9e-4)
        counts = self._spy_groups(monkeypatch)
        sim.run_lanes([sim.Lane(game, plants, g, TURBINE_GAINS, None, dataclasses.replace(cfg, seed=seed))
                       for seed in range(lanes)])
        assert counts == ([] if count is None else [count])

    @staticmethod
    def _spy_steps(monkeypatch):
        """Log, in order, each group product ("group"), each step of the fold
        stepper ("step") and the length of each recorded slab."""
        log, intervals, fold_stepper, extend = [], affine.DriftFold.intervals, sim._fold_stepper, sim._Recorder.extend

        def grouped(self, r, count):
            maps, *rest = intervals(self, r, count)
            maps = maps.view(LoggedProducts)
            maps.log = log
            return maps, *rest

        def stepper(*args):
            advance = fold_stepper(*args)
            return lambda s, t: log.append("step") or advance(s, t)

        def recorded(recorder, slab):
            log.append(len(slab))
            extend(recorder, slab)

        monkeypatch.setattr(affine.DriftFold, "intervals", grouped)
        monkeypatch.setattr(sim, "_fold_stepper", stepper)
        monkeypatch.setattr(sim._Recorder, "extend", recorded)
        return log

    def test_group_cut_by_the_bound_diverges_as_stride_one(self, monkeypatch):
        # the loop leaves the guard near t = 34 s, long before its last group,
        # so a group that records fewer ends than its count was cut by the bound
        game, plants, g = build_turbine_market()
        counts = self._spy_groups(monkeypatch)
        log = self._spy_steps(monkeypatch)
        for obs in (None, TURBINE_OBSERVER):
            log.clear()
            messages = [self._diverged_message(game, plants, g, self.UNSTABLE_GAINS, obs,
                                               SimConfig(dt=9e-4, horizon=60.0, record_stride=stride))
                        for stride in (10, 1)]
            # a slab straight after a group's product holds that group's ends
            lengths = [n for product, n in zip(log, log[1:]) if product == "group" and isinstance(n, int)]
            assert min(lengths) < counts[-1] == max(lengths)
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("mode, scale, diverges", [
        ("state", 6.5e11, False), ("state", 9e11, True), ("output", 1e7, False)])
    def test_group_whose_first_start_fails_the_bound_matches_stride_one(self, mode, scale, diverges,
                                                                        monkeypatch):
        game, plants, g = build_turbine_market()
        obs = TURBINE_OBSERVER if mode == "output" else None
        cfg = SimConfig(dt=9e-4, horizon=0.9)
        layout = _Layout(4, 6, 1, output_mode=obs is not None)
        _, _, kappa, c_peak = drift_free_fold(probe_affine(_make_rhs(game, g, TURBINE_GAINS, obs, layout), layout),
                                              layout, cfg.dt).intervals(cfg.record_stride, 1)
        # the start's largest entry is scale: |s_0|_inf <= guard < kappa |s_0|_inf + c_peak
        assert scale <= sim.STATE_MAGNITUDE_GUARD < kappa * scale + c_peak
        init = InitialConditions(decisions=scale * np.linspace(0.5, 1.0, 6)[:, None])
        log = self._spy_steps(monkeypatch)
        outcomes = []
        for stride in (10, 1):
            try:
                outcomes.append(run(game, plants, g, TURBINE_GAINS, obs,
                                    dataclasses.replace(cfg, record_stride=stride), init))
            except Diverged as exc:
                outcomes.append(str(exc))
            if stride == 10:
                # the first group records nothing, and its first interval steps one at a time
                assert log[:3] == [1, "group", "step"]
        strided, stepped = outcomes
        if diverges:
            assert strided == stepped and "magnitude" in strided
        else:
            rows = np.arange(0, 1001, 10)
            assert np.array_equal(strided.times, stepped.times[rows])
            gap = np.max(np.abs(strided.decisions - stepped.decisions[rows]), axis=(1, 2))
            assert np.all(gap <= 1e-11 * np.max(np.abs(stepped.decisions[rows]), axis=(1, 2)))

    @pytest.mark.parametrize("mode, kappa, gap", [("state", 1.641, 5.2e-13), ("output", 1.332e6, 1.1e-12)])
    def test_default_runs_hold_the_readme_figures(self, mode, kappa, gap, request):
        # README: kappa of the default turbine runs, and the gap of their records to one-step
        # stepping of the fold over the whole 30 s run (measured 5.19e-13 and 1.09e-12)
        setup, traj, _ = request.getfixturevalue(f"turbines_{mode}_run")
        cfg = setup.sim_config
        lane = sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer, cfg, setup.init)
        start = sim._start(lane, {})
        _, _, bound, _ = drift_free_fold(start.op, start.layout, cfg.dt).intervals(cfg.record_stride, 1)
        assert float(f"{bound:.4g}") == kappa and traj.stepping.group is not None
        assert_records_match(traj, one_step_records(lane, fold_steps), gap)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_default_run_steps_one_at_a_time_only_in_its_remainder(self, mode, monkeypatch):
        setup = build_run_setup(default_config("turbines", mode))
        cfg = setup.sim_config
        log = self._spy_steps(monkeypatch)
        run(setup.game, setup.plants, setup.graph, setup.gains, setup.observer, cfg, setup.init)
        assert log.count("step") == round(cfg.horizon / cfg.dt) % cfg.record_stride == 3


VEHICLE_GAINS = GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)
# A lane of a batch that shares one operator against its own run, relative
# to the largest entry of a recorded series (README, run_lanes)
BATCH_RTOL = 1e-12
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


def first_order_output_loop():
    """Three first-order players with drift in output mode: the drift also moves e_0'."""
    plants = [Plant(1, 2, drift=linear_drift, w=0.5 * (i + 1)) for i in range(3)]
    g = Digraph(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.5, 0.0, 0.0]]))
    return identity_game(3, 2), plants, g, GainSet(1, (), 2.0, 1.8, 1.5, 5.0), ObserverSet((1.0,), 0.05)


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
        # the batch's one product sums in another order than each single
        # run's, so the series agree to BATCH_RTOL of their largest entry
        game, plants, g, _ = build_vehicle_formation()
        x_star = vehicle_nash_oracle(build_vehicle_formation()[3])
        cfg = SimConfig(dt=1e-3, horizon=0.4, record_stride=7)
        lanes = [sim.Lane(game, plants, g, VEHICLE_GAINS, VEHICLE_OBSERVER,
                          dataclasses.replace(cfg, seed=seed), None, star)
                 for seed, star in ((1, x_star), (2, None), (3, x_star))]
        for lane, batched in zip(lanes, sim.run_lanes(lanes)):
            single = run(lane.game, lane.plants, lane.g, lane.gains, lane.obs, lane.cfg, x_star=lane.x_star)
            assert batched.stepping.kind == single.stepping.kind == "folded"
            assert np.array_equal(batched.times, single.times)
            for field in ("decisions", "estimate_disagreement", "error_norms", "observer_errors"):
                a, b = getattr(batched, field), getattr(single, field)
                assert (a is None) == (b is None) == (field == "error_norms" and lane.x_star is None)
                assert a is None or np.max(np.abs(a - b)) <= BATCH_RTOL * np.max(np.abs(b))

    def test_extend_across_blocks_matches_adding_each_record(self, monkeypatch):
        layout = _Layout(2, 10, 2, output_mode=True)
        x_stars = [np.random.default_rng(1).standard_normal((10, 2)), None]
        monkeypatch.setattr(sim, "RECORD_BLOCK_BYTES", 5 * 8 * len(x_stars) * layout.size)
        states = np.random.default_rng(2).standard_normal((16, len(x_stars), layout.size))
        bulk, single = (sim._Recorder(layout, x_stars, 0.5 * np.arange(16)) for _ in range(2))
        assert len(bulk.block) == 5
        # slabs that end inside a block, cross a boundary and outgrow a block
        for first, last in ((0, 3), (3, 10), (10, 11), (11, 16)):
            bulk.extend(states[first:last])
        for k in range(len(states)):
            single.extend(states[k:k + 1])
        stepping = ("folded", None, 0, 15, None, 0, None)  # the counts split puts on each Trajectory
        for a, b in zip(bulk.split([None, None], *stepping), single.split([None, None], *stepping)):
            for field in ("times", "decisions", "estimate_disagreement", "error_norms", "observer_errors"):
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None) == (y is None) and (x is None or np.array_equal(x, y))

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_block_records_match_the_per_record_reference(self, mode, monkeypatch):
        # x'' = 1e4 x + u grows as e^(100 t), so the lane with w = 1e4 leaves
        # the guard inside the horizon while the w = 0 lanes stay bounded
        game, _, g, spec = build_vehicle_formation()
        obs = VEHICLE_OBSERVER if mode == "output" else None
        cfg = SimConfig(dt=1e-3, horizon=0.4, record_stride=7)
        lanes = [sim.Lane(game, [Plant(2, 2, drift=linear_drift, w=w)] * 10, g, VEHICLE_GAINS, obs,
                          dataclasses.replace(cfg, seed=seed), None, x_star)
                 for seed, w, x_star in ((1, 0.0, vehicle_nash_oracle(spec)), (2, 1e4, None), (3, 0.0, None))]
        with pytest.raises(Diverged) as alone:
            run(*(getattr(lanes[1], f.name) for f in dataclasses.fields(sim.Lane)))
        layout = _Layout(2, 10, 2, output_mode=obs is not None)
        block = 5
        monkeypatch.setattr(sim, "RECORD_BLOCK_BYTES", block * 8 * len(lanes) * layout.size)
        added, extend = [], sim._Recorder.extend

        def spy(recorder, slab):
            added.extend((len(recorder.block), s.copy()) for s in slab)
            extend(recorder, slab)

        monkeypatch.setattr(sim._Recorder, "extend", spy)
        outcomes = sim.run_lanes(lanes)
        assert {length for length, _ in added} == {block} and len(added) % block
        states = np.array([s for _, s in added])
        assert isinstance(outcomes[1], Diverged) and str(outcomes[1]) == str(alone.value)
        # the first record after the lane was masked falls inside a block
        masked_from = math.ceil(round(float(str(alone.value).rsplit("t=", 1)[1]) / cfg.dt) / cfg.record_stride)
        assert masked_from % block
        for k in (0, 2):
            x_star = lanes[k].x_star
            decisions, disagreement, errors, observer = recorded_series(
                layout, states[:, k], np.zeros((10, 2)) if x_star is None else np.reshape(x_star, (10, 2)))
            traj = outcomes[k]
            assert np.array_equal(traj.decisions, decisions)
            assert np.array_equal(traj.estimate_disagreement, disagreement)
            assert (traj.error_norms is None) == (x_star is None)
            assert x_star is None or np.array_equal(traj.error_norms, errors)
            assert (traj.observer_errors is None) == (obs is None)
            assert obs is None or np.array_equal(traj.observer_errors, observer)


class TestRhsMatchesPerPlayerLaws:
    """The vectorized closed-loop right-hand side must agree with the
    per-player law written term by term (``oracles.player_law``).  The
    state holds the observer innovation e_0 = x - z_0 in place of z_0, so the
    check translates it to z_0 for the law and back for the rates."""

    def _check(self, game, plants, g, gains, obs, layout, state):
        n, n_players = gains.order_n, game.n_players
        rhs = _with_drift(_make_rhs(game, g, gains, obs, layout), _drift_groups([plants]), layout)
        derivative = rhs(state, 0.0)

        chain = layout.chain(state)
        x_hat = layout.x_hat(state)
        y = layout.y(state)
        x = chain[0]
        e = layout.z(state)
        z = None if e is None else np.concatenate([(x - e[0])[None], e[1:]])
        d_chain = layout.chain(derivative)
        d_y = layout.y(derivative)
        d_hat = layout.x_hat(derivative)
        d_e = layout.z(derivative)

        grads = extended_pseudo_gradient(game, x, x_hat)
        for i in range(n_players):
            u_i, dy_i, dxh_i, dz_i = player_law(i, chain, y, x_hat, grads, gains, g, obs, z)
            p = plants[i]
            drift_i = 0.0 if p.drift is None else p.drift(chain[:, i, :], p.w)
            if obs is not None:
                dx_i = chain[1, i] if n > 1 else u_i + drift_i
                assert np.allclose(d_e[0, i], dx_i - dz_i[0], atol=1e-12)
                assert np.allclose(d_e[1:, i], dz_i[1:], atol=1e-12)
            assert np.allclose(d_chain[-1, i], u_i + drift_i, atol=1e-12)
            assert np.allclose(d_y[i], dy_i, atol=1e-12)
            assert np.allclose(d_hat[i], dxh_i, atol=1e-12)
            for level in range(n - 1):
                assert np.array_equal(d_chain[level, i], chain[level + 1, i])

    def test_state_mode(self):
        self._check(*loop_inputs("state"))

    def test_output_mode(self):
        self._check(*loop_inputs("output"))

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_vehicles_with_drift(self, mode):
        self._check(*loop_inputs(mode, "vehicles"))

    def test_two_drift_callables_mixed_with_none(self):
        self._check(*loop_inputs("state", "vehicles", mixed_drift_plants()))

    def test_first_order_output_mode_with_drift(self):
        # at n = 1 the drift moves x' itself, so it moves e_0' = x' - z_0' too
        layout = _Layout(1, 3, 2, output_mode=True)
        state = np.random.default_rng(13).standard_normal(layout.size)
        self._check(*first_order_output_loop(), layout, state)

    def test_observer_rows_read_the_innovation_exactly(self):
        # at |x| ~ 300 and |e_0| ~ 1e-7, rebuilding z_0 = x - e_0 and taking
        # x - z_0 again loses the low bits of e_0, and the observer weights (up
        # to 1.6e9) scale that loss; the rows must read e_0 as the state holds it
        game, _, g = build_turbine_market()
        layout = _Layout(4, 6, 1, output_mode=True)
        rng = np.random.default_rng(21)
        state = rng.uniform(-1.0, 1.0, layout.size)
        layout.chain(state)[0] = rng.uniform(250.0, 350.0, size=(6, 1))
        e = layout.z(state)
        e[0] = rng.uniform(-1e-7, 1e-7, size=(6, 1))
        derivative = _make_rhs(game, g, TURBINE_GAINS, TURBINE_OBSERVER, layout)(state, 0.0)
        w = observer_weights(TURBINE_GAINS, TURBINE_OBSERVER)
        expected = np.empty_like(e)
        expected[:-1] = e[1:] + np.multiply.outer(w[:-1], e[0])
        expected[-1] = w[-1] * e[0]
        expected[0] = layout.chain(state)[1] - expected[0]
        assert np.array_equal(layout.z(derivative), expected)

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
            l_ext, mm = kronecker_estimate_form(g)
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


def column_oracle(rhs, layout):
    """(rows, cols, vals, b) of A from one structured call per column, rhs(e_j) - rhs(0)."""
    b = rhs(np.zeros(layout.size), 0.0)
    rows, cols, vals = [], [], []
    for j in range(layout.size):
        unit = np.zeros(layout.size)
        unit[j] = 1.0
        column = rhs(unit, 0.0) - b
        nz = np.flatnonzero(column)
        rows.append(nz)
        cols.append(np.full(nz.size, j))
        vals.append(column[nz])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), b


def assert_matches_column_oracle(rhs, layout):
    op = probe_affine(rhs, layout)
    rows, cols, vals, b = column_oracle(rhs, layout)
    assert np.array_equal(op.rows, rows)
    assert np.array_equal(op.cols, cols)
    assert np.allclose(op.vals, vals, rtol=1e-15, atol=0.0)
    assert np.allclose(op.b, b, rtol=1e-15, atol=0.0)


def dense_coupling_game(n_players, m=2):
    """An affine game in which every own-gradient reads every coordinate of every player."""
    rng = np.random.default_rng(n_players)
    coupling = rng.standard_normal((n_players, m, n_players, m))
    shift = rng.standard_normal((n_players, m))

    def profile_gradient(profiles):
        return np.einsum("icjd,...ijd->...ic", coupling, profiles) + shift

    return Game(n_players, m, profile_gradient, affine=True)


def vehicle_loop(n_players, offsets=None):
    """(game, plants, graph) of the vehicle formation with n_players, anchors seeded unless given."""
    if offsets is None:
        offsets = np.random.default_rng(2).uniform(-10.0, 10.0, size=(n_players, 2))
    game, plants, g, _ = build_vehicle_formation(table=VEHICLE_TABLE * (n_players // 10), offsets=offsets)
    return game, plants, g


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
            game, _, g = vehicle_loop(n_players)
            layout = _Layout(2, n_players, 2, output_mode=False)
        assert_matches_column_oracle(_make_rhs(game, g, gains, obs, layout), layout)

    @pytest.mark.parametrize("mode", ["state", "output"])
    @pytest.mark.parametrize("n_players", [10, 30])
    def test_dense_coupling_probe_matches_column_oracle(self, mode, n_players):
        # every gradient row reads every estimate, and the extra edges give
        # nodes several in- and out-neighbours, so columns crowd their rows
        g = default_cycle_digraph(n_players, extra_edges=((1, 4, 0.5), (3, 7, 2.0), (n_players, 2, 1.5),
                                                          (6, 1, 0.7), (2, 9, 1.2)))
        layout = _Layout(2, n_players, 2, output_mode=mode == "output")
        obs = VEHICLE_OBSERVER if mode == "output" else None
        assert_matches_column_oracle(
            _make_rhs(dense_coupling_game(n_players), g, VEHICLE_GAINS, obs, layout), layout)

    @pytest.mark.parametrize("mode, n_players, size, nonzeros", [
        pytest.param("state", 10, 260, 900, id="10-260-900"),
        pytest.param("output", 10, 300, 980, id="output-10-300-980"),
        pytest.param("state", 30, 1980, 7500, id="30-1980-7500"),
        pytest.param("output", 30, 2100, 7740, id="output-30-2100-7740"),
    ])
    def test_operator_keeps_only_the_nonzeros(self, mode, n_players, size, nonzeros):
        game, _, g = vehicle_loop(n_players)
        obs = VEHICLE_OBSERVER if mode == "output" else None
        layout = _Layout(2, n_players, 2, output_mode=mode == "output")
        op = probe_affine(_make_rhs(game, g, VEHICLE_GAINS, obs, layout), layout)
        assert layout.size == size and op.vals.size == nonzeros and np.all(op.vals != 0.0)

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_run_calls_the_structured_rhs_only_to_probe(self, mode, monkeypatch):
        game, plants, g, gains, obs, layout, _ = loop_inputs(mode, "vehicles")
        calls = count_structured_rhs_calls(monkeypatch)
        counts = []
        for horizon in (0.02, 0.05):
            calls.clear()
            run(game, plants, g, gains, obs, SimConfig(dt=1e-3, horizon=horizon))
            counts.append(len(calls))
        # PROBE_CHUNK_BYTES of lanes a call: b, one lane per block of N m
        # columns and per residue, then 40 colours (the most candidate
        # columns of any row, in either mode) and the affine check
        per_call = PROBE_CHUNK_BYTES // (8 * layout.size)
        width = layout.N * layout.m
        step_one = 1 + layout.size // width + width
        assert counts == [math.ceil(step_one / per_call) + math.ceil((40 + 1) / per_call)] * 2

    def test_probe_at_n30_makes_under_a_fifth_of_the_column_calls(self):
        game, _, g = vehicle_loop(30)
        layout = _Layout(2, 30, 2, output_mode=False)
        lanes = []
        rhs = _make_rhs(game, g, VEHICLE_GAINS, None, layout)

        def counted(s, t):
            lanes.append(len(s))
            return rhs(s, t)

        probe_affine(counted, layout)
        per_call = PROBE_CHUNK_BYTES // (8 * layout.size)
        assert len(lanes) < math.ceil((layout.size + 2) / per_call) / 5
        assert sum(lanes) < (layout.size + 2) / 5

    def test_non_finite_loop_raises_at_the_first_call(self, monkeypatch):
        # a NaN offset makes b NaN; read as moved, it would make every row a
        # candidate of every column: size^2 entries to colour
        offsets = np.random.default_rng(2).uniform(-10.0, 10.0, size=(30, 2))
        offsets[4, 1] = np.nan
        game, plants, g = vehicle_loop(30, offsets)
        calls = count_structured_rhs_calls(monkeypatch)
        size = _Layout(2, 30, 2, output_mode=False).size
        tracemalloc.start()
        try:
            with pytest.raises(ConfigInvalid, match="not finite"):
                run(game, plants, g, VEHICLE_GAINS, None, SimConfig(dt=1e-3, horizon=0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        assert peak < size * size

    @pytest.mark.parametrize("scenario, mode, change, error", [
        ("vehicles", "state", {"alpha3": 1e308}, ConfigInvalid),
        ("vehicles", "output", {"k": (1e308,)}, ConfigInvalid),
        # the probe is finite, the folded step is not: the first step's guard reports it
        ("turbines", "output", {"epsilon": 1e70}, Diverged),
    ])
    def test_overflowing_loop_fails_without_a_warning(self, scenario, mode, change, error):
        game, plants, g, gains, obs, _, _ = loop_inputs(mode, scenario)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="finite"):
                run(game, plants, g, dataclasses.replace(gains, **change), obs,
                    SimConfig(dt=9e-4, horizon=0.01))

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
                SimConfig(dt=9e-4, horizon=0.01))

    def test_unstable_drifting_loop_diverges(self):
        game, _, g, gains, _, _, _ = loop_inputs("state", "vehicles")

        def anti_damping(chain, w):
            return 50.0 * chain[1]

        anti_damped = [Plant(2, 2, drift=anti_damping) for _ in range(10)]
        with pytest.raises(Diverged, match="magnitude"):
            run(game, anti_damped, g, gains, None, SimConfig(dt=1e-3, horizon=5.0),
                InitialConditions(decisions=np.ones((10, 2))))


class TestDriftFold:
    """The "folded" step with drift: one batched product of z = [s, 1, d_1, ..., d_4] per RK4 step."""

    LOOPS = {
        "vehicles-state": lambda: loop_inputs("state", "vehicles")[:5],
        "vehicles-output": lambda: loop_inputs("output", "vehicles")[:5],
        "mixed-drifts": lambda: loop_inputs("state", "vehicles", mixed_drift_plants())[:5],
        "first-order-output": first_order_output_loop,
        "turbines-drift": lambda: loop_inputs(
            "output", "turbines", [Plant(4, 1, drift=linear_drift, w=0.1 * (i + 1)) for i in range(6)])[:5],
    }
    # blocks of each loop: the vehicle loops split by coordinate, the
    # first-order loop's identity game by player too, the turbine loop not at all
    BLOCKS = {"vehicles-state": 2, "vehicles-output": 2, "mixed-drifts": 2, "first-order-output": 6,
              "turbines-drift": 1}

    @staticmethod
    def probed(game, plants, g, gains, obs):
        layout = _Layout(gains.order_n, game.n_players, game.decision_dim, output_mode=obs is not None)
        op = probe_affine(_make_rhs(game, g, gains, obs, layout), layout)
        return layout, op, fold_blocks(op, *layout.fold_rows(True))

    def steppers(self, loop, lanes):
        """(folded, sparse, shape): the loop's "folded" advance(s, t) and sparse RK4 step(s, t) at dt = 1e-3,
        for states of shape (size,) at one lane, else (lanes, size)."""
        game, plants, g, gains, obs = self.LOOPS[loop]()
        layout, op, blocks = self.probed(game, plants, g, gains, obs)
        assert len(blocks.rows) == len(blocks.cols) == self.BLOCKS[loop]
        shape = (layout.size,) if lanes == 1 else (lanes, layout.size)
        groups = _drift_groups([plants] * lanes, shape[:-1])
        advance = sim._fold_stepper(fold_drift_rk4(op, 1e-3, *layout.fold_rows(True), blocks), groups, layout,
                                    np.zeros(shape))
        rhs = _with_drift(stack_lanes([op] * lanes).apply, groups, layout)
        return advance, lambda s, t: rk4_step(rhs, s, t, 1e-3), shape

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_steps_match_the_sparse_rk4_steps(self, loop, lanes):
        # two drift callables mixed with None, and at n = 1 in output mode the
        # drift on the e_0 rows too; the product sums in another order than
        # the sparse stages, so the two agree to rounding, not bit for bit
        advance, step, shape = self.steppers(loop, lanes)
        folded = sparse = np.random.default_rng(4).uniform(-5.0, 5.0, shape)
        for k in range(50):
            folded = advance(folded, k * 1e-3).copy()
            sparse = step(sparse, k * 1e-3)
            assert np.max(np.abs(folded - sparse)) <= 1e-13 * np.max(np.abs(sparse))

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("loop", LOOPS)
    def test_a_step_reads_only_its_state(self, loop, lanes):
        # every step starts from a state of its own, never from the stepper's
        # last output, and still matches one sparse step from that state
        advance, step, shape = self.steppers(loop, lanes)
        rng = np.random.default_rng(5)
        for k in range(20):
            state = rng.uniform(-5.0, 5.0, shape)
            sparse = step(state, k * 1e-3)
            assert np.max(np.abs(advance(state, k * 1e-3) - sparse)) <= 1e-13 * np.max(np.abs(sparse))

    @pytest.mark.parametrize("mode, rows, cols", [("state", 171, 130), ("output", 191, 150)])
    def test_vehicle_loops_split_into_one_block_per_coordinate(self, mode, rows, cols):
        # a block holds one coordinate's states, the constant and that
        # coordinate's 4 x 10 drift slots, with no padding: 0.36 MB of block
        # stack in state mode and 0.46 MB in output mode; the three dense stage
        # matrices over the p = 40 chain rows add 0.29 and 0.33 MB
        game, plants, g, gains, obs, _, _ = loop_inputs(mode, "vehicles")
        layout, op, blocks = self.probed(game, plants, g, gains, obs)
        q, size, p = layout.N * layout.m, layout.size, layout.chain_sl.stop
        assert blocks.rows.shape == (2, rows) and blocks.cols.shape == (2, cols)
        assert blocks.stages == tuple((size + 1 + j * q, p) for j in (1, 2, 3))
        assert blocks.nbytes == 8 * (2 * rows * cols + p * (3 * (size + 1) + 6 * q))
        assert np.all(blocks.rows <= size + 4 * q) and np.all(blocks.cols < size)
        for coordinate, (r, c) in enumerate(zip(blocks.rows, blocks.cols)):
            assert np.all(r[r < size] % 2 == coordinate) and np.all(c[c < size] % 2 == coordinate)
            assert np.all((r[r > size] - size - 1) % q % 2 == coordinate)
        assert np.array_equal(np.sort(blocks.rows.ravel()),
                              np.sort(np.concatenate([np.arange(size + 1 + 4 * q), [size]])))

    @pytest.mark.parametrize("edges, size, writes, shape", [
        # components {0, 1, 2, 3} and {4, 5}: the smaller block is padded to the larger
        ([(0, 1), (1, 2), (2, 3), (4, 5)], 6, (slice(0, 6),), (2, 21, 4)),
        # {0, ..., 4} and {5}: padded, the stack would hold more than the map, so one block holds it
        ([(0, 1), (1, 2), (2, 3), (3, 4)], 6, (slice(0, 6),), (1, 31, 6)),
        # {0, 1} and {2, 3}, each drift slot adding to one row of each: every
        # slot, like the constant, is gathered into both blocks
        ([(0, 1), (2, 3)], 4, (slice(0, 2), slice(2, 4)), (2, 11, 2)),
    ])
    def test_blocks_pad_to_the_largest_or_fall_back_to_one(self, edges, size, writes, shape):
        # against the stages themselves: z's next state from the blocks, and
        # z's own stage inputs from the stage matrices, on P = every state
        pairs = np.array(edges + [(j, i) for i, j in edges] + [(i, i) for i in range(size)])
        rng = np.random.default_rng(2)
        op = AffineOperator(pairs[:, 0], pairs[:, 1], rng.uniform(-2.0, 2.0, len(pairs)),
                            rng.uniform(-1.0, 1.0, size))
        q, reads, dt = writes[0].stop - writes[0].start, slice(0, size), 0.1
        blocks = fold_blocks(op, reads, writes, q)
        assert (len(blocks.rows), blocks.rows.shape[1], blocks.cols.shape[1]) == shape
        fold = affine.fold_drift_rk4(op, dt, reads, writes, q, blocks)
        width = size + 1 + 4 * q
        z = rng.uniform(-1.0, 1.0, (3, width + 1))
        z[:, size], z[:, width] = 1.0, 0.0
        product = np.zeros((3, size + 1))
        for y, rows, cols in zip(fold.y, fold.rows, fold.cols):
            product[:, cols] = z[:, rows] @ y
        inputs = [z[:, :size + 1 + j * q] @ stage for j, stage in enumerate(fold.stages, 1)]
        expected = np.hstack(affine._rk4_stages(stack_lanes([op] * 3), dt, reads, writes, z[:, :width]))
        assert np.max(np.abs(np.hstack([product[:, :-1], *inputs]) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_players, mode, folds", [
        (10, "state", True), (10, "output", True), (11, "state", True),
        (11, "output", True), (12, "state", True), (13, "output", True), (14, "state", True),
        (14, "output", False), (15, "state", False), (30, "state", False)])
    def test_the_map_must_fit_the_byte_bound(self, n_players, mode, folds):
        # two blocks, one per coordinate, of (size / 2 + 1 + 2 N m) size / 2 floats
        # each and three stage matrices of (size + 1 + j N m) n N m floats: 0.64 MB
        # at N = 10 against 0.79 MB in output mode, 0.86 MB at N = 11 against
        # 1.04 MB, 1.13 MB at N = 12, 1.72 MB at N = 13 in output mode, 1.84 MB
        # at N = 14 against 2.17 MB, 2.30 MB at N = 15 and 23.6 MB at N = 30, all
        # against FOLD_DRIFT_BYTES = 1.9 MB; a million steps would pay back any fold
        table = [VEHICLE_TABLE[i % 10] for i in range(n_players)]
        anchors = np.random.default_rng(0).uniform(-15.0, 15.0, size=(n_players, 2))
        game, plants, g, _ = build_vehicle_formation(table=table, offsets=anchors)
        lane = sim.Lane(game, plants, g, VEHICLE_GAINS, VEHICLE_OBSERVER if mode == "output" else None,
                        SimConfig(dt=1e-3, horizon=1.0))
        assert sim._plan([sim._start(lane, {})], 10 ** 6).kind == ("folded" if folds else "sparse")

    @pytest.mark.parametrize("generators, folds", [(10, True), (14, True), (18, True), (19, True), (20, False),
                                                   (30, False)])
    def test_the_drift_free_map_must_fit_the_byte_bound(self, generators, folds):
        # one (size + 1) x size block of the state-mode market, size = N^2 + 5 N, and stage matrices
        # of no columns: 0.18 MB at N = 10, 0.57 MB at N = 14, 1.37 MB at N = 18, 1.67 MB at N = 19,
        # 2.00 MB at N = 20 and 8.8 MB at N = 30
        # (a million steps at a stride of a million: one interval, whose maps' build no run repays)
        table = [GENERATOR_TABLE[i % len(GENERATOR_TABLE)] for i in range(generators)]
        game, plants, g = build_turbine_market(table=table)
        lane = sim.Lane(game, plants, g, TURBINE_GAINS, None, SimConfig(dt=9e-4, horizon=1.0, record_stride=10 ** 6))
        plan = sim._plan([sim._start(lane, {})], 10 ** 6)
        assert plan == (sim.Plan("folded") if folds else sim.Plan("sparse"))

    @pytest.mark.parametrize("steps, lanes, folds", [(341, 1, True), (236, 1, True), (234, 1, False),
                                                      (114, 3, True), (104, 3, True), (102, 3, False)])
    def test_the_build_is_paid_back_by_steps_and_lanes(self, steps, lanes, folds):
        # vehicles/state: the build, the map's 341 input vectors stepped once by the sparse stages,
        # against what a folded step saves over a sparse one, priced 16 us at one lane and 37 us at three
        game, plants, g, _ = build_vehicle_formation()
        cfg = SimConfig(dt=1e-3, horizon=steps * 1e-3, record_stride=50)
        outcomes = sim.run_lanes([sim.Lane(game, plants, g, VEHICLE_GAINS, None, dataclasses.replace(cfg, seed=seed))
                                  for seed in range(lanes)])
        assert outcomes[0].stepping.kind == ("folded" if folds else "sparse")

    def test_masked_lane_diverges_as_its_single_run_and_restarts_finite(self, monkeypatch):
        # x'' = 1e4 x + u grows as e^(100 t): lane 1 leaves the guard, lanes 0 and 2 stay bounded
        game, _, g, spec = build_vehicle_formation()
        cfg = SimConfig(dt=1e-3, horizon=0.4, record_stride=7)
        lanes = [sim.Lane(game, [Plant(2, 2, drift=linear_drift, w=w)] * 10, g, VEHICLE_GAINS, None,
                          dataclasses.replace(cfg, seed=seed)) for seed, w in ((1, 0.0), (2, 1e4), (3, 0.0))]
        singles = []
        for lane in lanes:
            try:
                singles.append(run(lane.game, lane.plants, lane.g, lane.gains, lane.obs, lane.cfg))
            except Diverged as exc:
                singles.append(exc)
        masks, mask = [], sim._mask_diverged
        monkeypatch.setattr(sim, "_mask_diverged", lambda *args: masks.append(args[2]) or mask(*args))
        outcomes = sim.run_lanes(lanes)
        assert outcomes[0].stepping.kind == "folded" and outcomes[1].stepping is outcomes[0].stepping
        assert isinstance(outcomes[1], Diverged) and str(outcomes[1]) == str(singles[1])
        assert "magnitude" in str(outcomes[1])
        # a step reads only its state, so the masked lane steps on finite from
        # its zeroed state and the guard trips once, not at every later step
        assert len(masks) == 1
        for k in (0, 2):
            assert outcomes[k].stepping.kind == singles[k].stepping.kind == "folded"
            assert np.array_equal(outcomes[k].times, singles[k].times)
            gap = np.max(np.abs(outcomes[k].decisions - singles[k].decisions), axis=(1, 2))
            assert np.all(gap <= BATCH_RTOL * np.max(np.abs(singles[k].decisions), axis=(1, 2)))


class TestStepping:
    """Trajectory.stepping reports what the spies on the step kinds see."""

    @pytest.mark.parametrize("case, lanes", [("grouped", 3), ("folded", 1), ("folded", 3),
                                             ("sparse", 3), ("structured", 1)])
    def test_record_matches_the_spies(self, case, lanes, monkeypatch):
        spies = TestFoldedPropagator
        if (case, lanes) in (("grouped", 3), ("folded", 1)):
            # the drift-free turbine loop at stride 7: 1 000 steps are 142 full intervals and a
            # remainder of 6 steps; 333 steps of one lane are too few for a group
            game, plants, g = build_turbine_market()
            gains = TURBINE_GAINS
            cfg = SimConfig(dt=9e-4, horizon=0.9 if case == "grouped" else 0.3, record_stride=7)
            spies._forbid_rk4_step(monkeypatch)
        else:
            game, plants, g, _ = build_vehicle_formation()
            game = dataclasses.replace(game, affine=case != "structured")
            gains, cfg = VEHICLE_GAINS, SimConfig(dt=1e-3, horizon=0.05 if case == "structured" else 0.2)
        rk4 = []
        monkeypatch.setattr(sim, "rk4_step", lambda *args: rk4.append(args[2]) or rk4_step(*args))
        groups, log = spies._spy_groups(monkeypatch), spies._spy_steps(monkeypatch)
        calls = count_structured_rhs_calls(monkeypatch)
        # lanes with gain objects of their own have operators of their own, which do not fold
        outcomes = sim.run_lanes([sim.Lane(game, plants, g, dataclasses.replace(gains) if case == "sparse"
                                           else gains, None, dataclasses.replace(cfg, seed=seed))
                                  for seed in range(lanes)])
        stepping = outcomes[0].stepping
        assert all(traj.stepping is stepping for traj in outcomes)
        assert stepping.kind == ("folded" if case == "grouped" else case) and stepping.record_s > 0
        assert stepping.group == (groups[0] if groups else None) and len(groups) <= 1
        assert stepping.products == log.count("group")
        assert stepping.one_step == log.count("step") + len(rk4)
        # the fold stepper takes every step that is not in a group product, and only it
        assert (log.count("step") == stepping.one_step > 0) == (stepping.kind == "folded")
        # only the structured kind evaluates the structured rhs as it steps, four times a step
        assert (len(calls) == 4 * stepping.one_step) == (case == "structured")
        if case == "grouped":
            assert stepping[:4] == ("folded", 7, math.ceil(142 / 7), 6)


    @pytest.mark.parametrize("scenario, stride, stepping, at", [
        ("vehicles", 10, ("folded", None, 0, 17), 0.85), ("turbines", 10, ("folded", 6, 1, 7), 0.35),
        ("turbines", 1, ("folded", 7, 2, 1), 0.35)])
    def test_diverged_carries_its_batch_stepping(self, scenario, stride, stepping, at):
        # dt = 0.05 takes both loops out of the guard; the turbine runs step groups, at stride 10
        # the first is cut by the bound at its start, and at stride 1 the second
        cfg = default_config(scenario, "state")
        cfg["sim"].update(dt=0.05, record_stride=stride)
        setup = build_run_setup(cfg)
        with pytest.raises(Diverged, match=f"exceeded 1e\\+12 at t={at}$") as caught:
            run(setup.game, setup.plants, setup.graph, setup.gains, setup.observer, setup.sim_config, setup.init)
        assert caught.value.stepping[:4] == stepping and caught.value.stepping.record_s > 0


class TestEtdrk4Fold:
    """ETDRK4 folded as RK4 is (``affine.fold_drift_etdrk4``): exact on the affine part, fourth order in the drift."""

    @staticmethod
    def probed(mode, scenario):
        game, plants, g, gains, obs, layout, state = loop_inputs(mode, scenario)
        return plants, layout, probe_affine(_make_rhs(game, g, gains, obs, layout), layout), state

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_a_drift_free_step_is_phi_0_on_the_state_and_its_constant(self, mode):
        # without drift one step is the top rows of e^{h Abar} [s; 1], Abar = [[A, b], [0, 0]], at
        # any h: the observer's weights reach 1.6e9 in output mode and h = 0.3 is 30 times its RK4 limit
        _, layout, op, state = self.probed(mode, "turbines")
        for h in (1e-3, 0.3):
            advance = sim._fold_stepper(affine.fold_drift_etdrk4(op, h, *layout.fold_rows(False)), [], layout, state)
            exact = affine.etd_maps(op, h).flow(state)
            assert np.max(np.abs(advance(state, 0.0) - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_the_phi_maps_match_one_exponential_of_a_bordered_matrix(self):
        # independently of scaling and squaring: the top block row of exp([[X, I, 0, 0], [0, 0, I, 0],
        # [0, 0, 0, I], 0]) is phi_0..phi_3 of X (Sidje 1998), here on one vehicles/output block
        linalg = pytest.importorskip("scipy.linalg")
        _, _, op, _ = self.probed("output", "vehicles")
        h = 0.08
        maps = affine.etd_maps(op, h)
        states, (e, e_half, q, f_1, f_2, f_3) = maps.parts[0]
        a = np.zeros((len(states), len(states)))
        inside = np.isin(op.rows, states)
        at = np.searchsorted(states, op.rows[inside]), np.searchsorted(states, op.cols[inside])
        np.add.at(a, at, op.vals[inside])

        def phis(x):
            n = len(x)
            bordered = np.zeros((4 * n, 4 * n))
            bordered[:n, :n] = x
            for k in range(3):
                bordered[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = np.eye(n)
            return linalg.expm(bordered)[:n].reshape(n, 4, n).swapaxes(0, 1)

        p, half = phis(h * a), phis(0.5 * h * a)
        expected = [p[0], half[0], 0.5 * h * half[1], h * (p[1] - 3 * p[2] + 4 * p[3]), 2 * h * (p[2] - 2 * p[3]),
                    h * (4 * p[3] - p[2])]
        for got, want in zip((e, e_half, q, f_1, f_2, f_3), expected):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.allclose(maps.c[states], h * p[1] @ op.b[states], rtol=0, atol=1e-12 * np.abs(maps.c).max())

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_the_vehicle_gap_to_a_fine_rk4_run_falls_eightfold_per_halving(self, mode):
        # 1 s of the default run against the serial RK4 fold at dt = 1e-3, itself about 1e-12 off:
        # h = 0.2, 0.1 and 0.05 read gaps near 1.5e-7, 1e-8 and 7e-10, 14-17 times less a halving (the
        # drag is only once differentiable where a velocity is 0, which a random start puts in reach)
        setup = build_run_setup(default_config("vehicles", mode))
        start = sim._start(sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                                    setup.sim_config, setup.init), {})
        layout, op, state = start.layout, start.op, start.state
        rows, groups = layout.fold_rows(True), _drift_groups([setup.plants])
        blocks = fold_blocks(op, *rows)

        def end(fold, steps):
            advance, s = sim._fold_stepper(fold, groups, layout, state), state
            for _ in range(steps):
                s = advance(s, 0.0)
            return s.copy()

        fine = end(fold_drift_rk4(op, 1e-3, *rows, blocks), 1000)
        gaps = [np.max(np.abs(end(affine.fold_drift_etdrk4(op, h, *rows, blocks), round(1.0 / h)) - fine))
                / np.max(np.abs(fine)) for h in (0.2, 0.1, 0.05)]
        assert gaps[0] < 1e-6 and gaps[0] >= 8 * gaps[1] and gaps[1] >= 8 * gaps[2]


class TestRecordWindows:
    """A one-lane drifting run long enough pays for Parareal over record windows (``sim._plan``)."""

    @staticmethod
    def _setup(mode, **sim_keys):
        cfg = default_config("vehicles", mode)
        cfg["sim"].update(sim_keys)
        return build_run_setup(cfg)

    @staticmethod
    def _run(setup, serial):
        """setup's run by ``sim._plan``'s plan, or by the serial plan, the fold one step at a time."""
        start = sim._start(sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                                    setup.sim_config, setup.init, setup.x_star), {})
        outcome, = sim._integrate([start], sim.Plan("folded") if serial else None)
        if isinstance(outcome, Diverged):
            raise outcome
        return outcome

    def _assert_serial_series(self, setup):
        windows, serial = (self._run(setup, flag) for flag in (False, True))
        assert windows.stepping.windows > 1 and serial.stepping[3:6] == (serial.stepping.one_step, None, 0)
        assert np.array_equal(windows.times, serial.times)
        for field in ("decisions", "estimate_disagreement", "error_norms", "observer_errors"):
            a, b = getattr(windows, field), getattr(serial, field)
            assert (a is None) == (b is None) == (field == "observer_errors" and setup.observer is None)
            assert a is None or np.max(np.abs(a - b)) <= BATCH_RTOL * np.max(np.abs(b))
        return windows, serial

    @pytest.mark.parametrize("mode", ["state", "output"])
    def test_windows_record_the_serial_run(self, mode):
        # 12 s of the default loop settle: the windows settle at the serial run's record
        setup = self._setup(mode, horizon=12.0)
        windows, serial = self._assert_serial_series(setup)
        assert windows.stepping.passes == 2 and windows.stepping.kind == "folded"
        settle = [sim.settle_time(traj, setup.x_star, 0.1) for traj in (windows, serial)]
        assert settle[0] == settle[1] is not None

    @pytest.mark.parametrize("stride, horizon", [(7, 4.0), (10, 4.01)], ids=["stride-7", "401-records"])
    def test_a_stride_off_the_steps_or_a_prime_record_count_keep_the_serial_grid(self, stride, horizon):
        # 4 000 steps at stride 7 end in 3 steps past the last interval; 4 010 at stride 10 make
        # 401 intervals, a prime, so the windows leave intervals for the serial loop
        windows, _ = self._assert_serial_series(self._setup("output", record_stride=stride, horizon=horizon))
        steps = round(horizon / 1e-3)
        assert windows.stepping.windows * (steps // stride // windows.stepping.windows) * stride < steps

    def test_a_drift_that_blows_up_late_fails_as_the_serial_run(self, monkeypatch):
        # x'' = 50 x + u leaves the guard after 4 s, in a window: a pass trips the guard, and the run
        # is stepped again one step at a time from its start
        setup = self._setup("state", horizon=5.0)
        setup = dataclasses.replace(setup, plants=[Plant(2, 2, drift=linear_drift, w=50.0)] * 10)
        solved, parareal = [], sim._parareal
        monkeypatch.setattr(sim, "_parareal", lambda *args: solved.append(parareal(*args)) or solved[-1])
        failures = []
        for serial in (False, True):
            with pytest.raises(Diverged, match="exceeded 1e\\+12 at t=4.084$") as caught:
                self._run(setup, serial)
            failures.append(caught.value)
        assert solved == [None]
        assert failures[0].stepping[:6] == failures[1].stepping[:6] == ("folded", None, 0, 4084, None, 0)

    def test_a_loop_that_grows_is_held_to_its_own_magnitude(self):
        # x'' = 50 x + u grows e^7 a second, and A's spectrum does not see the drift: 3.9 s stay
        # under the guard and take windows, whose early starts are held to their own magnitude;
        # against the last one's, the run came back 4e-11 off
        setup = dataclasses.replace(self._setup("state", horizon=3.9),
                                    plants=[Plant(2, 2, drift=linear_drift, w=50.0)] * 10)
        self._assert_serial_series(setup)

    @pytest.mark.parametrize("mode, horizon, plan", [("state", 6.0, (60, 100, 2)), ("output", 4.8, (60, 80, 2)),
                                                     ("state", 3.0, (60, 50, 2)), ("output", 1.0, (50, 20, 2))])
    def test_a_short_run_takes_the_passes_it_was_priced_or_no_windows(self, mode, horizon, plan):
        # every plan is priced at two passes, its c dt within A's trace bound (0.127 in state mode,
        # 0.087 in output mode), and takes two: ETDRK4's G is exact on the linear modes, so even
        # 1 s of output mode, 50 windows of 20 steps, pays for its phi maps
        setup = self._setup(mode, horizon=horizon)
        start = sim._start(sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                                    setup.sim_config), {})
        steps = round(horizon / setup.sim_config.dt)
        count, coarse, passes = plan or (None, None, 0)
        assert sim._plan([start], steps) == sim.Plan("folded", None, count, coarse)
        stepping = self._run(setup, False).stepping
        window = steps // 10 // count * 10 if count else steps
        assert stepping[3:7] == (window * (passes + 1) + steps - (count or 1) * window, count, passes, coarse)

    @staticmethod
    def _forbid_spectrum(monkeypatch):
        for owner, name in ((affine, "eigenvalues"), (np.linalg, "eigvals"), (np.linalg, "eig")):
            monkeypatch.setattr(owner, name, lambda *args: pytest.fail("a spectrum computed"))

    @pytest.mark.parametrize("mode, sim_keys, plan", [
        ("state", {}, (64, 124)), ("output", {}, (62, 80)), ("output", {"dt": 2e-3, "horizon": 24.0}, (60, 40))],
        ids=["state-default", "output-default", "vehicles-output"])
    def test_the_vehicle_plans_compute_no_spectrum(self, monkeypatch, mode, sim_keys, plan):
        # G is exact on the linear modes, so the spectrum bounds nothing: c dt stays within A's trace
        # bound and every plan is priced at two passes
        self._forbid_spectrum(monkeypatch)
        setup = self._setup(mode, **sim_keys)
        start = sim._start(sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                                    setup.sim_config), {})
        chosen = sim._plan([start], round(setup.sim_config.horizon / setup.sim_config.dt))
        assert (chosen.windows, chosen.coarse) == plan
        assert plan[1] * setup.sim_config.dt <= affine.rk4_limit_bound(start.op)

    def test_a_batch_that_cannot_pay_back_computes_no_eigenvalue(self, monkeypatch):
        # four lanes already share a step's overhead, and c dt = 0.01 c must stay within the trace
        # bound 0.127: two passes at c <= 12 on up to 16 windows of the seed-sweep's 2 400 steps cost
        # more than the serial batch
        self._forbid_spectrum(monkeypatch)
        setup = self._setup("state", dt=1e-2, horizon=24.0)
        lanes = [sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, None,
                          dataclasses.replace(setup.sim_config, seed=seed)) for seed in range(4)]
        assert sim.run_lanes(lanes)[0].stepping[:6] == ("folded", None, 0, 2400, None, 0)

    def test_rk4_limit_is_where_the_contraction_reaches_one(self):
        setup = self._setup("output")
        start = sim._start(sim.Lane(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                                    setup.sim_config), {})
        eigs = affine.eigenvalues(start.op)
        dense = np.zeros((start.layout.size,) * 2)
        np.add.at(dense, (start.op.rows, start.op.cols), start.op.vals)
        # the observer's repeated root at -1/mu is defective, so single eigenvalues there move by
        # 1e-4 between the two; the abscissa and the limit agree
        whole = np.linalg.eigvals(dense)
        assert len(eigs) == len(whole) and abs(eigs.real.max() - whole.real.max()) < 1e-12
        limit = affine.rk4_limit(eigs)
        assert abs(limit - affine.rk4_limit(whole)) < 1e-6 * limit
        contraction = [np.max(np.abs(np.polyval([1 / 24, 1 / 6, 1 / 2, 1, 1], h * eigs))) for h in (limit, 1.001 * limit)]
        # README: the output default's limit is 0.0246, 1.23 mu
        assert round(limit, 4) == 0.0246 and contraction[0] <= 1.0 < contraction[1]
        assert affine.rk4_limit(np.array([-1.0, 0.5j])) == 0.0


class TestEquilibriumResidual:
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

    def test_mid_decay_window_rejects_a_trace_that_grows_back(self):
        # decays to e^-5 by t = 5, then grows to 1.5 x its start by t = 10
        times = np.arange(0.0, 10.0, 0.01)
        errors = np.where(times < 5.0, np.exp(-times), np.exp(times - 10.0 + np.log(1.5)))
        with pytest.raises(EmptyWindow):
            mid_decay_window(synthetic_trajectory(times, errors))
        # the same trace cut before it climbs back over its 10%-drop level keeps a window
        assert mid_decay_window(synthetic_trajectory(times[:700], errors[:700]))[0] > 0.0

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

    @pytest.mark.parametrize("with_x_star", [True, False])
    def test_csv_bytes_match_csv_writer(self, tmp_path, with_x_star):
        awkward = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.25e-300, 123456789.125, np.pi])
        traj = Trajectory(times=np.resize(awkward, 5), decisions=np.resize(awkward, (5, 3, 2)),
                          estimate_disagreement=np.resize(awkward[::-1], 5),
                          error_norms=np.resize(awkward[1:], 5) if with_x_star else None)
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        write_trajectory_csv(traj, ours)
        csv_writer_trajectory(traj, reference)
        assert ours.read_bytes() == reference.read_bytes()
        rows = ours.read_bytes().split(b"\r\n")
        assert rows[0] == b"t,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2,err_norm,est_disagreement"
        assert rows[1].startswith(b"-0.0,-0.0,5e-324,1e+16,0.30000000000000004,")
        assert (rows[1].split(b",")[-2] == b"") == (not with_x_star)


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
