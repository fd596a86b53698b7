"""Fixed-step integration of the closed-loop seeking dynamics and run metrics.

The global state is one flat vector laid out as

    [plant chains (n, N, m) | observer chains (n, N, m), output mode only |
     auxiliary y (N, m) | estimate tensor (N, N, m)]

and advanced with classical RK4.  The controller side of the right-hand side
is the stacked laws of :mod:`nashseek.control`; plant drifts are evaluated
once per distinct drift callable, over all players that share it, and are
never visible to the controller terms.

Under a game declared affine, everything but the drift is an affine map
``A s + b`` of the state.  The loop probes that map once from the stacked laws
(:mod:`nashseek.affine`) and keeps ``A`` as its nonzeros.  A loop with drift
then evaluates each RK4 stage as one sparse matvec plus the stacked drift; a
drift-free loop folds its whole RK4 step into one propagator ``s <- Phi s + c``.
Other games step the structured right-hand side.

``run_lanes`` integrates many loops at once.  Loops that share the layout,
the step grid and the drift callables (and, unless the game is affine with
drift, the model objects) step as the lanes of one ``(lanes, size)`` state:
one sparse product with per-lane nonzeros, one call per distinct drift, one
``S @ Phi^T`` or one structured call per stage, and one record of every lane.
A lane that diverges is masked and the others go on.  ``run`` is the one-lane
case, where the state keeps no lane axis; the same loop serves both shapes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import control
from .affine import AffineOperator, folded_rk4, probe_affine, stack_lanes
from .control import GainSet, ObserverSet
from .errors import (
    ConfigInvalid,
    Diverged,
    DimensionMismatch,
    EmptyWindow,
    NashseekError,
    NonPositiveError,
    NotStronglyConnected,
)
from .game import Game, gradient_matrix
from .graph import Digraph, is_strongly_connected

STATE_MAGNITUDE_GUARD = 1e12

# Lanes per batch in run_lanes.  A batch keeps every lane's recorded samples
# until it ends, so this bounds a sweep's memory at this many trajectories;
# the step cost per lane stops falling well before it.
MAX_LANES = 64

MODE_STATE = "state"
MODE_OUTPUT = "output"


@dataclass(frozen=True)
class Plant:
    """One player's n-th order integrator chain with a drift on the top derivative.

    drift(chain, w) receives the (n, m) matrix of the player's own chain
    (decision first, highest derivative last) and the hidden parameter w; a
    None drift means the chain is a pure integrator.  Controllers never see
    this object.

    The simulator calls each distinct drift once for every player and lane
    that share it, so a drift broadcasts as ``Game.profile_gradient`` does: a
    chain (n, ..., k, m) with w stacked by ``np.asarray`` to (..., k, ...)
    returns the (..., k, m) drifts.  Index levels from the front, the rest
    from the end.
    """

    order_n: int
    dim_m: int
    drift: Optional[Callable[[np.ndarray, object], np.ndarray]] = None
    w: object = None


@dataclass(frozen=True)
class SimConfig:
    """Integration settings; dt and horizon in seconds."""

    dt: float
    horizon: float
    mode: str = MODE_STATE
    record_stride: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.dt < np.inf:  # these comparisons are false for NaN
            raise ConfigInvalid(f"dt must be finite and positive, got {self.dt}")
        if not self.dt <= self.horizon < np.inf:
            raise ConfigInvalid(f"horizon {self.horizon} must be finite and at least one step {self.dt}")
        if self.mode not in (MODE_STATE, MODE_OUTPUT):
            raise ConfigInvalid(f"mode must be '{MODE_STATE}' or '{MODE_OUTPUT}', got {self.mode!r}")
        for name, least in (("record_stride", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
                raise ConfigInvalid(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class InitialConditions:
    """Starting point of a run; unspecified pieces use the pinned defaults.

    Decisions are drawn uniformly from ``box`` with the run seed unless given
    explicitly; derivative chains start at zero unless overridden; y and the
    estimates start at zero; observers start on the measured output.
    """

    decisions: Optional[np.ndarray] = None
    box: tuple = (-10.0, 10.0)
    derivatives: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    """Recorded samples of one run plus derived convergence series."""

    times: np.ndarray
    decisions: np.ndarray              # (T, N, m)
    estimate_disagreement: np.ndarray  # (T,)
    error_norms: Optional[np.ndarray] = None
    observer_errors: Optional[np.ndarray] = None

    @property
    def final_decisions(self) -> np.ndarray:
        return self.decisions[-1]


def rk4_step(rhs, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical Runge-Kutta 4 update of a state or a (lanes, size) batch.

    It checks nothing: the run's guard masks a lane whose state is not finite.
    """
    k1 = rhs(state, t)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(state + dt * k3, t + dt)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _Layout:
    """Offsets of the flat closed-loop state vector.

    A state is one loop's (size,) vector or a (lanes, size) batch.  The
    accessors return views with any lane axis after a chain's level axis:
    chain and z are (n, ..., N, m), y is (..., N, m) and x_hat (..., N, N, m).
    """

    def __init__(self, n: int, n_players: int, m: int, output_mode: bool):
        self.n = n
        self.N = n_players
        self.m = m
        self.output_mode = output_mode
        block = n * n_players * m
        self.chain_sl = slice(0, block)
        pos = block
        if output_mode:
            self.z_sl = slice(pos, pos + block)
            pos += block
        else:
            self.z_sl = None
        self.y_sl = slice(pos, pos + n_players * m)
        pos += n_players * m
        self.hat_sl = slice(pos, pos + n_players * n_players * m)
        pos += n_players * n_players * m
        self.size = pos

    def _lanes(self, s, sl):
        return s[:, sl].reshape(len(s), self.n, self.N, self.m).swapaxes(0, 1)

    def chain(self, s):
        if s.ndim == 1:
            return s[self.chain_sl].reshape(self.n, self.N, self.m)
        return self._lanes(s, self.chain_sl)

    def z(self, s):
        if not self.output_mode:
            return None
        if s.ndim == 1:
            return s[self.z_sl].reshape(self.n, self.N, self.m)
        return self._lanes(s, self.z_sl)

    def y(self, s):
        return s[..., self.y_sl].reshape(s.shape[:-1] + (self.N, self.m))

    def x_hat(self, s):
        return s[..., self.hat_sl].reshape(s.shape[:-1] + (self.N, self.N, self.m))


def _validate_setup(game: Game, plants: Sequence[Plant], g: Digraph,
                    gains: GainSet, obs: Optional[ObserverSet], mode: str):
    n_players = g.n_nodes
    if game.n_players != n_players or len(plants) != n_players:
        raise DimensionMismatch(
            f"graph has {n_players} nodes but game has {game.n_players} players "
            f"and {len(plants)} plants were supplied"
        )
    n = plants[0].order_n
    m = plants[0].dim_m
    for p in plants:
        if p.order_n != n or p.dim_m != m:
            raise DimensionMismatch("all plants must share the same order and decision dimension")
    if m != game.decision_dim:
        raise DimensionMismatch(f"plant dimension {m} != game decision dimension {game.decision_dim}")
    if gains.order_n != n:
        raise DimensionMismatch(f"gain set is for order {gains.order_n}, plants have order {n}")
    if mode == MODE_OUTPUT and obs is None:
        raise ConfigInvalid("output mode requires an observer parameter set")
    return n, n_players, m


def _drift_groups(lane_plants: Sequence[Sequence[Plant]], lanes: tuple = ()) -> list:
    """(player selector, drift, w) for each distinct drift callable of a batch.

    The lanes share their drift callables player by player, so lane 0's
    selectors serve all; w has the state's lane shape in front: lanes + (k, ...).
    The selector is a slice when one drift covers every player, so the chain
    handed to it is a view.
    """
    plants = lane_plants[0]
    groups = {}
    for i, p in enumerate(plants):
        if p.drift is not None:
            groups.setdefault(p.drift, []).append(i)
    out = []
    for drift, players in groups.items():
        sel = slice(None) if len(players) == len(plants) else np.asarray(players)
        w = np.asarray([[lane[i].w for i in players] for lane in lane_plants])
        out.append((sel, drift, w.reshape(lanes + w.shape[1:])))
    return out


def _add_drifts(groups: list, chain: np.ndarray, acc: np.ndarray) -> None:
    """Add every player's drift at the (n, ..., N, m) chain into the (..., N, m) acc."""
    for sel, drift, w in groups:
        acc[..., sel, :] += drift(chain[..., sel, :], w)


def _make_rhs(game: Game, g: Digraph, gains: GainSet, obs: Optional[ObserverSet], layout: _Layout):
    """Drift-free closed-loop right-hand side over a flat state or a batch of lanes."""
    idx = np.arange(layout.N)

    def rhs(s, t):
        out = np.empty_like(s)
        chain = layout.chain(s)
        x_hat = layout.x_hat(s)
        x = chain[0]
        z = layout.z(s)

        profiles = x_hat.copy()
        profiles[..., idx, idx, :] = x
        grads = gradient_matrix(game, profiles)
        levels = chain[1:] if z is None else z[1:]

        dchain = layout.chain(out)
        dchain[:-1] = chain[1:]
        dchain[-1] = control.stacked_control_input(levels, grads, layout.y(s), gains)
        if z is not None:
            layout.z(out)[:] = control.stacked_observer_rate(z, x, gains, obs)
        layout.y(out)[:] = control.stacked_aux_rate(levels, grads, gains)
        layout.x_hat(out)[:] = control.stacked_estimate_rate(x_hat, x, g, gains.alpha3)
        return out

    return rhs


def _with_drift(rhs, drift_groups: list, layout: _Layout):
    """The drift-free rhs plus every plant's drift on the top derivative."""
    if not drift_groups:
        return rhs

    def rhs_with_drift(s, t):
        out = rhs(s, t)
        _add_drifts(drift_groups, layout.chain(s), layout.chain(out)[-1])
        return out

    return rhs_with_drift


def run(game: Game, plants: Sequence[Plant], g: Digraph, gains: GainSet,
        obs: Optional[ObserverSet], cfg: SimConfig,
        init: Optional[InitialConditions] = None,
        x_star: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate the full closed loop and record the trajectory.

    x_star, when supplied, must come from an independent equilibrium solver;
    it is used only to fill the recorded error norms.

    This is ``run_lanes`` on one lane.  The step depends on the game and the
    drifts, with size the length of the flat state:

    * affine game, every plant drift-free: the folded propagator of
      ``folded_rk4``, O(size^3) once and one dense O(size^2) matvec a step;
    * affine game with drift: ``rk4_step`` on the probed sparse operator plus
      the stacked drift, one O(nonzeros) matvec and one call per distinct
      drift a stage;
    * otherwise: ``rk4_step`` on the structured right-hand side.

    Both affine cases probe the loop once (``probe_affine``) and raise
    ConfigInvalid when the game's affine declaration fails.  Raises Diverged
    when the state leaves the magnitude guard or stops being finite.
    """
    result, = run_lanes([Lane(game, plants, g, gains, obs, cfg, init, x_star)])
    if isinstance(result, NashseekError):
        raise result
    return result


@dataclass(frozen=True, eq=False)
class Lane:
    """The arguments of one ``run``: a closed loop, its settings and its start."""

    game: Game
    plants: Sequence[Plant]
    g: Digraph
    gains: GainSet
    obs: Optional[ObserverSet]
    cfg: SimConfig
    init: Optional[InitialConditions] = None
    x_star: Optional[np.ndarray] = None


class _Start(NamedTuple):
    """A checked lane: its layout, initial state, probed operator and oracle."""

    lane: Lane
    layout: _Layout
    state: np.ndarray
    op: Optional[AffineOperator]
    x_star: Optional[np.ndarray]


def run_lanes(lanes: Sequence[Lane]) -> list:
    """Integrate many closed loops, stepping together those that can share a batch.

    Returns, for each lane in order, its Trajectory or the NashseekError that
    ``run`` raises for it, so one failing lane leaves the others running.

    Lanes share a batch when they have the same layout, mode, dt, step count,
    record_stride and drift callable per player.  Under a game that is
    affine with drift each lane keeps its own probed operator, so the lanes
    may differ in game, graph, gains and observer; otherwise they must share
    those objects.  A batch steps up to MAX_LANES lanes as one (lanes, size)
    state, and a lane that leaves the magnitude guard is masked with its own
    Diverged while the others go on.  Loops that share their model objects
    are probed once.
    """
    results = [None] * len(lanes)
    probes = {}
    batches = {}
    for i, lane in enumerate(lanes):
        try:
            start = _start(lane, probes)
        except NashseekError as exc:
            results[i] = exc
            continue
        batches.setdefault(_batch_key(start), []).append((i, start))
    for members in batches.values():
        for first in range(0, len(members), MAX_LANES):
            chunk = members[first:first + MAX_LANES]
            outcomes = _integrate([start for _, start in chunk])
            for (i, _), outcome in zip(chunk, outcomes):
                results[i] = outcome
    return results


def _start(lane: Lane, probes: dict) -> _Start:
    """Check one lane and build its start; probes caches operators per model."""
    game, plants, g, gains, obs, cfg = lane.game, lane.plants, lane.g, lane.gains, lane.obs, lane.cfg
    n, n_players, m = _validate_setup(game, plants, g, gains, obs, cfg.mode)
    if not is_strongly_connected(g):
        raise NotStronglyConnected("communication digraph must be strongly connected")
    output_mode = cfg.mode == MODE_OUTPUT
    if output_mode and cfg.dt > obs.mu / 10.0 + 1e-15:
        raise ConfigInvalid(
            f"output mode requires dt <= mu/10 = {obs.mu / 10.0:g}, got dt={cfg.dt:g}"
        )

    init = lane.init or InitialConditions()
    rng = np.random.default_rng(cfg.seed)
    if init.decisions is not None:
        x0 = np.asarray(init.decisions, dtype=float)
        if x0.shape != (n_players, m):
            raise ConfigInvalid(f"initial decisions must have shape {(n_players, m)}, got {x0.shape}")
    else:
        lo, hi = init.box
        x0 = rng.uniform(lo, hi, size=(n_players, m))

    layout = _Layout(n, n_players, m, output_mode)
    state = np.zeros(layout.size)
    chain = layout.chain(state)
    chain[0] = x0
    if init.derivatives is not None:
        derivs = np.asarray(init.derivatives, dtype=float)
        if derivs.shape != (n - 1, n_players, m):
            raise ConfigInvalid(f"initial derivatives must have shape {(n - 1, n_players, m)}, "
                                f"got {derivs.shape}")
        chain[1:] = derivs
    if output_mode:
        layout.z(state)[0] = x0  # observer position starts on the measured output

    x_star_mat = None if lane.x_star is None else np.asarray(lane.x_star, dtype=float).reshape(n_players, m)

    op = None
    if game.affine:
        model = (id(game), id(g), id(gains), id(obs), output_mode)
        if model not in probes:
            probes[model] = probe_affine(_make_rhs(game, g, gains, obs, layout), layout)
        op = probes[model]
    return _Start(lane, layout, state, op, x_star_mat)


def _batch_key(start: _Start) -> tuple:
    """Equal for the starts that ``run_lanes`` may step as one batch."""
    lane, layout = start.lane, start.layout
    drifts = tuple(p.drift for p in lane.plants)
    key = (layout.n, layout.N, layout.m, layout.output_mode, lane.cfg.dt,
           round(lane.cfg.horizon / lane.cfg.dt), lane.cfg.record_stride, drifts)
    if not (lane.game.affine and any(d is not None for d in drifts)):
        key += (id(lane.game), id(lane.g), id(lane.gains), id(lane.obs))
    return key


def _lane_squares(d: np.ndarray, out: np.ndarray) -> None:
    """Write each lane's squared 2-norm into out, (lanes, 1, 1), as the dot product np.linalg.norm takes.

    Its square root therefore matches np.linalg.norm bit for bit; an einsum
    or (d * d).sum() would sum in another order.
    """
    d = d.reshape(len(d), 1, -1)
    np.matmul(d, d.swapaxes(1, 2), out=out)


class _Recorder:
    """Every lane's samples, written from the (lanes, size) batch at once into rows sized up front.

    A masked lane, and the error norm of a lane without x_star, are recorded
    too; ``split`` drops them.
    """

    def __init__(self, layout: _Layout, x_stars: list, rows: int):
        lanes = len(x_stars)
        self.layout = layout
        self.x_stars = x_stars
        self.x_star = np.stack([np.zeros((layout.N, layout.m)) if x is None else x for x in x_stars])
        self.times = []
        self.decisions = np.empty((rows, lanes, layout.N, layout.m))
        self.squares = np.empty((2, rows, lanes, 1, 1))  # estimate disagreement, error
        self.obs_errors = np.empty((rows, lanes))

    def add(self, t: float, s: np.ndarray) -> None:
        row = len(self.times)
        self.times.append(t)
        x = self.decisions[row] = self.layout.chain(s)[0]
        _lane_squares(self.layout.x_hat(s) - x[:, None], self.squares[0, row])
        _lane_squares(x - self.x_star, self.squares[1, row])
        if self.layout.output_mode:
            np.max(np.abs(self.layout.z(s)[0] - x), axis=(1, 2), out=self.obs_errors[row])

    def split(self, failures: list) -> list:
        """Each lane's Trajectory, or its failure in its place."""
        n = len(self.times)
        times = np.asarray(self.times)
        disagreement, errors = np.sqrt(self.squares[:, :n]).reshape(2, n, -1)
        return [failure or Trajectory(times, self.decisions[:n, k], disagreement[:, k],
                                      None if x_star is None else errors[:, k],
                                      self.obs_errors[:n, k] if self.layout.output_mode else None)
                for k, (x_star, failure) in enumerate(zip(self.x_stars, failures))]


def _integrate(batch: list) -> list:
    """Step the starts of one batch key together; a Trajectory or Diverged per lane.

    One lane steps its (size,) state; more step one (lanes, size) state.
    """
    lane, layout = batch[0].lane, batch[0].layout
    cfg = lane.cfg
    lanes = len(batch)
    state = batch[0].state if lanes == 1 else np.stack([start.state for start in batch])
    groups = _drift_groups([start.lane.plants for start in batch], state.shape[:-1])
    if lane.game.affine and not groups:
        advance = folded_rk4(batch[0].op, cfg.dt)
    else:
        rhs = (stack_lanes([start.op for start in batch]).apply if lane.game.affine
               else _make_rhs(lane.game, lane.g, lane.gains, lane.obs, layout))
        rhs = _with_drift(rhs, groups, layout)

        def advance(s, t):
            return rk4_step(rhs, s, t, cfg.dt)

    steps = round(cfg.horizon / cfg.dt)
    # rows for step 0, every record_stride-th step and the last step
    recorder = _Recorder(layout, [start.x_star for start in batch], steps // cfg.record_stride + 2)
    failures = [None] * lanes
    recorder.add(0.0, state.reshape(lanes, -1))
    # a masked lane may overflow on its way out; the guard below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            state = advance(state, k * cfg.dt)
            peak = np.max(np.abs(state))
            if not peak <= STATE_MAGNITUDE_GUARD:  # also true for a NaN peak
                _mask_diverged(state.reshape(lanes, -1), failures, k, cfg.dt)
                if all(failures):
                    break
            if (k + 1) % cfg.record_stride == 0 or k + 1 == steps:
                recorder.add((k + 1) * cfg.dt, state.reshape(lanes, -1))
    return recorder.split(failures)


def _mask_diverged(lanes: np.ndarray, failures: list, k: int, dt: float) -> None:
    """Give each lane that just left the guard its Diverged and zero every masked lane.

    A masked lane keeps stepping with the batch, from zero, so it stays
    finite; ``_Recorder.split`` drops what it records.
    """
    peaks = np.max(np.abs(lanes), axis=1)
    for b in np.flatnonzero(~(peaks <= STATE_MAGNITUDE_GUARD)):
        if failures[b] is None:
            failures[b] = Diverged(
                f"non-finite state after step at t={k * dt:g}" if not np.isfinite(peaks[b]) else
                f"state magnitude exceeded {STATE_MAGNITUDE_GUARD:g} at t={(k + 1) * dt:g}")
    for b, failure in enumerate(failures):
        if failure is not None:
            lanes[b] = 0.0


def equilibrium_residual(game: Game, plants: Sequence[Plant], g: Digraph,
                         gains: GainSet, x_star: np.ndarray) -> float:
    """Infinity norm of the closed-loop right-hand side at the equilibrium tuple.

    The tuple sets all derivative states to zero, the estimates to exact
    consensus on x_star, and y to f(x_star, 0, ..., 0, w) / alpha2, which
    should annihilate the state-feedback closed loop when x_star is the
    equilibrium profile.
    """
    n, n_players, m = _validate_setup(game, plants, g, gains, None, MODE_STATE)
    layout = _Layout(n, n_players, m, output_mode=False)
    x_mat = np.asarray(x_star, dtype=float).reshape(n_players, m)
    state = np.zeros(layout.size)
    chain = layout.chain(state)
    chain[0] = x_mat
    drift_groups = _drift_groups([plants])
    f_star = np.zeros((n_players, m))
    _add_drifts(drift_groups, chain, f_star)
    layout.y(state)[:] = f_star / gains.alpha2
    layout.x_hat(state)[:] = x_mat[None, :, :]
    rhs = _with_drift(_make_rhs(game, g, gains, None, layout), drift_groups, layout)
    return float(np.max(np.abs(rhs(state, 0.0))))


def settle_time(traj: Trajectory, x_star: np.ndarray, tol_rel: float):
    """First recorded time after which the decisions stay within tolerance of x_star.

    Returns None when the trajectory never settles through the horizon
    (including diverging runs).
    """
    x_mat = np.asarray(x_star, dtype=float).reshape(traj.decisions.shape[1:])
    threshold = tol_rel * max(1.0, float(np.max(np.abs(x_mat))))
    deviation = np.max(np.abs(traj.decisions - x_mat[None, :, :]), axis=(1, 2))
    exceed = np.nonzero(deviation > threshold)[0]
    if exceed.size == 0:
        return float(traj.times[0])
    last_bad = exceed[-1]
    if last_bad == len(traj.times) - 1:
        return None
    return float(traj.times[last_bad + 1])


def fit_exponential_rate(traj: Trajectory, window: tuple) -> tuple[float, float]:
    """Least-squares slope of log error over the window: (decay rate, R^2)."""
    if traj.error_norms is None:
        raise NonPositiveError("trajectory has no recorded error norms")
    t_lo, t_hi = window
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    if np.count_nonzero(mask) < 2:
        raise EmptyWindow(f"window ({t_lo}, {t_hi}) selects fewer than two samples")
    t = traj.times[mask]
    e = traj.error_norms[mask]
    if np.any(e <= 0):
        raise NonPositiveError("window contains non-positive error samples")
    log_e = np.log(e)
    design = np.stack([t, np.ones_like(t)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, log_e, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-coef[0]), r_squared


def mid_decay_window(traj: Trajectory) -> tuple[float, float]:
    """Window between 10% and 90% of the total error drop (transients excluded)."""
    if traj.error_norms is None:
        raise NonPositiveError("trajectory has no recorded error norms")
    e = traj.error_norms
    e0 = e[0]
    e_min = float(e.min())
    hi_level = e0 - 0.1 * (e0 - e_min)
    lo_level = e0 - 0.9 * (e0 - e_min)
    below_hi = np.nonzero(e <= hi_level)[0]
    below_lo = np.nonzero(e <= lo_level)[0]
    if below_hi.size == 0 or below_lo.size == 0:
        raise EmptyWindow("error trace never decays; no mid-decay window")
    return float(traj.times[below_hi[0]]), float(traj.times[below_lo[0]])


def post_transient_observer_error(traj: Trajectory, fraction: float = 0.2):
    """Sup norm of the recorded observer position error after the initial transient."""
    if traj.observer_errors is None:
        return None
    mask = traj.times >= fraction * traj.times[-1]
    return float(np.max(traj.observer_errors[mask]))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the documented CSV: t, x_1_1, ..., x_N_m, err_norm, est_disagreement."""
    n_samples, n_players, m = traj.decisions.shape
    header = ["t"]
    header += [f"x_{i + 1}_{c + 1}" for i in range(n_players) for c in range(m)]
    header += ["err_norm", "est_disagreement"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in range(n_samples):
            row = [repr(float(traj.times[s]))]
            row += [repr(float(v)) for v in traj.decisions[s].ravel()]
            row.append("" if traj.error_norms is None else repr(float(traj.error_norms[s])))
            row.append(repr(float(traj.estimate_disagreement[s])))
            writer.writerow(row)
