"""Fixed-step integration of the closed-loop seeking dynamics and run metrics.

The global state is one flat vector laid out as

    [plant chains (n, N, m) |
     observer chains (e_0, z_1, ..., z_{n-1}) (n, N, m), output mode only |
     auxiliary y (N, m) | estimate tensor (N, N, m)]

and advanced with classical RK4.  e_0 = x - z_0 is the innovation, all the
observer law reads of z_0; its weights reach (eps/mu)^n = 1.6e9 on the
turbine loop, where an operator on x and z_0 lost 5e-11 relative a step.
The controller side of the right-hand side is the stacked laws of
:mod:`nashseek.control`; plant drifts are evaluated once per distinct drift
callable, over all players that share it, and are never visible to the
controller terms.

Under a game declared affine, everything but the drift is an affine map
``A s + b`` of the state.  The loop probes that map once from the stacked laws
(:mod:`nashseek.affine`) and keeps ``A`` as its nonzeros.  Every step is
classical RK4, ``affine.rk4_step``, as it is or folded into products
(``affine.fold_drift_rk4``); ``run`` lists the step kinds and which loops
take each.  Only record windows' coarse pass steps otherwise: ETDRK4 folded
the same way (``affine.fold_drift_etdrk4``), exact on the affine part.

``run_lanes`` integrates many loops at once.  Loops that share the layout,
the step grid and the drift callables (and, unless the game is affine with
drift, the model objects) step as the lanes of one ``(lanes, size)`` state:
one product per group of record intervals, one batched block product a step
and one stage-input product a stage, one sparse product with per-lane
nonzeros a stage or one structured call per stage, one call per distinct
drift a stage, and one record of every lane.
``_Recorder.extend`` is the one way to record: it copies a slab of full
states, one record or a group's ends, into a block of at most
RECORD_BLOCK_BYTES, reduced to the recorded series one block at a time.
Record i is the state at step min(i record_stride, steps), and its time
comes from that grid.
How a batch steps is a ``Plan`` that ``_plan`` prices in seconds from one
table of measured costs (STEP_S): "sparse" or "structured" one step at a
time, the fold one step at a time, groups of record intervals, or record
windows stepped by Parareal (``_parareal``), each window a lane of one fine
batch; ``_integrate`` runs the plan it is given.
A lane that diverges is masked and the others go on.  ``run`` is the one-lane
case, where the state keeps no lane axis; the same loop serves both shapes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import control
from .affine import (PHI_PRODUCTS, AffineOperator, DriftFold, FoldBlocks, fold_blocks, fold_drift_etdrk4,
                     fold_drift_rk4, phi_alphas, phi_doublings, probe_affine, rk4_limit_bound, rk4_step,
                     stack_lanes)
from .control import GainSet, ObserverSet
from .errors import (
    ConfigInvalid,
    Diverged,
    DimensionMismatch,
    EmptyWindow,
    NashseekError,
    NonPositiveError,
    NotStronglyConnected,
    finite,
    finite_array,
    integer,
)
from .game import Game, extended_pseudo_gradient
from .graph import Digraph, is_strongly_connected

STATE_MAGNITUDE_GUARD = 1e12

# Lanes per batch in run_lanes.  It bounds a batch's stepping arrays, above all stack_lanes'
# nonzeros at 24 bytes each, 21.6 KB a lane at N = 10 and 180 KB at N = 30, but not a sweep's
# memory, as run_lanes returns every Trajectory.  The step cost per lane stops falling well before it.
MAX_LANES = 64

# Bytes of full (lanes, size) states a run holds before it reduces them to
# the recorded series: 496 records of the turbine loop, one of a 64-lane
# vehicle batch.  Reducing one record at a time cost more than the turbine
# loop's own arithmetic; a few hundred records a pass cost little.  The
# record-interval maps a drift-free loop steps side by side take at most
# this many bytes too: 7 maps of the turbine loop, 4 in output mode.
RECORD_BLOCK_BYTES = 2 ** 18

# What ``_plan`` prices a plan by, in seconds.  A step over L lanes that
# reads B bytes for one lane and calls D distinct drifts costs fixed +
# D (drift + L drift_lane) + B (read + L lane), its magnitude guard included:
# "sparse" reads SPARSE_BYTES a nonzero of A (row, column, value; 4 stages) in
# every lane, "folded" its ``FoldBlocks.nbytes`` once for all lanes, a "group"
# product 8 G size^2 (its peaks in fixed).  A record call costs RECORD_S.  The
# fold's build steps each input of z once, PROBE_BYTE_S a byte of A's
# nonzeros with drift, and FREE_PROBE_S plus FREE_PROBE_BYTE_S a byte
# without; a dense product of size n costs BUILD_MADD_S n^2 (n +
# PRODUCT_ENTRY_MADDS): the groups' maps take stride + G - 2.  The record
# windows' ETDRK4 fold costs ETD_FIXED_S, its phi products
# (``affine.etd_maps``) at PHI_MADD_S in place of BUILD_MADD_S, and
# ETD_PROBE_MADD_S a multiply-add of its probe's dense maps
# (``_coarse_build_s``).  Fitted by least squares on
# relative error to ``tools/time_layers.py step 10 12 13 14 15 [output]
# lanes=L`` and ``step 6 10 14 19 20 turbines lanes=L``, L = 1, 4, 16, 64
# (folded_us, sparse_us; BLAS on one thread, 2-vCPU Xeon): sparse steps within
# 0.89-1.07 of their price, folded 0.79-1.32; ``step 25 30 turbines
# [lanes=4]`` (group_us 195 and 369 us at 4.5 and 8.8 MB read from memory, 441
# and 770 us on 4 lanes; intervals_s 33-39 ps a multiply-add from size 266
# on); the vehicle builds (fold_drift_rk4_s 3.9 and 4.5 ms); the drift-free
# builds of ``step 6 10 14 19 25 30 turbines [output]`` (fold_drift_rk4_s
# 0.7-100 ms, within 0.85-1.27 of their price but for one 1.9); the ETDRK4
# builds of the vehicle loops at N = 3-13 in both modes and c dt = 0.01-0.12
# (1-50 ms, within 0.68-1.17).  ``step`` prints each price by its time.
STEP_S = {  # fixed, per drift, per drift a lane, per byte read, per lane-byte
    "sparse": (14.8e-6, 32.2e-6, 2.7e-6, 0.0, 146e-12),
    "folded": (4.6e-6, 29.6e-6, 0.77e-6, 10.7e-12, 6.5e-12),
    "group": (10e-6, 0.0, 0.0, 27e-12, 15e-12),
}
SPARSE_BYTES = 96
RECORD_S = 3e-6
PROBE_BYTE_S = 0.13e-9
FREE_PROBE_S = 0.31e-3
FREE_PROBE_BYTE_S = 0.22e-9
BUILD_MADD_S = 37e-12
PRODUCT_ENTRY_MADDS = 60
ETD_FIXED_S = 0.96e-3
PHI_MADD_S = 58e-12
ETD_PROBE_MADD_S = 228e-12

# Bytes a "folded" step may read: the table's per-byte price holds within the
# 2 MB L2 cache a core has on the machine measured; past it one lane costs
# more (``step 14 15 [output]``: 98 and 107 us at 2.17 and 2.30 MB, priced 86
# and 88, where sparse took 74 and 76 us).  It folds vehicles up to N = 14 (13
# in output mode) and drift-free sizes up to 486 (N = 19); groups' maps are
# priced read from memory and have no such bound.
FOLD_DRIFT_BYTES = 19 * 10 ** 5

# Parareal over record windows (``_parareal``).  The stop test holds every
# state entry's window-end mismatch within PARAREAL_RTOL of that entry's
# largest magnitude: against the whole state's largest entry, a gap of 2e-12
# left the observer series of a 4 s output run (stride 7) 5.2e-11 off, as the
# innovation rows are 1e-4 of the decisions.
PARAREAL_RTOL = 2e-12

# Rows the CSV writer formats per write.  Formatting a whole vehicle run at
# once took 9 MB more peak memory; 256 rows take under 1 MB and no more time.
CSV_CHUNK_ROWS = 256

# The two seeking algorithms: a run is output feedback exactly when it is given an ObserverSet.
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
    record_stride: int = 10
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dt", finite(self.dt, "dt", positive=True))
        object.__setattr__(self, "horizon", finite(self.horizon, "horizon"))
        if not self.dt <= self.horizon:
            raise ConfigInvalid(f"horizon {self.horizon} must be at least one step {self.dt}")
        if not self.horizon / self.dt < np.inf:
            raise ConfigInvalid(f"horizon {self.horizon} over dt {self.dt} is not a finite step count")
        object.__setattr__(self, "record_stride", integer(self.record_stride, "record_stride", 1))
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))


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


class Stepping(NamedTuple):
    """How ``_integrate`` stepped a batch of lanes; each lane's Trajectory carries it."""

    kind: str               # the step kind, one of the three ``run`` lists
    group: Optional[int]    # record-interval maps per product, None without groups
    products: int           # group products
    one_step: int           # steps taken one at a time, those of every fine pass over the windows included
    windows: Optional[int]  # record windows stepped side by side, None without them
    passes: int             # fine passes over the windows
    coarse: Optional[int]   # the windows' coarse step c in fine steps, None without windows
    record_s: float         # seconds inside ``_Recorder.extend``, ``join`` and ``split``


@dataclass
class Trajectory:
    """Recorded samples of one run plus derived convergence series."""

    times: np.ndarray
    decisions: np.ndarray              # (T, N, m)
    estimate_disagreement: np.ndarray  # (T,)
    error_norms: Optional[np.ndarray] = None
    observer_errors: Optional[np.ndarray] = None
    stepping: Optional[Stepping] = None  # set by run and run_lanes, shared by a batch's lanes

    @property
    def final_decisions(self) -> np.ndarray:
        return self.decisions[-1]


class _Layout:
    """Offsets of the flat closed-loop state vector.

    A state is one loop's (size,) vector or a (lanes, size) batch.  The
    accessors return views with any lane axis after a chain's level axis:
    chain and z are (n, ..., N, m), y is (..., N, m) and x_hat (..., N, N, m).
    z is the observer block [e_0, z_1, ..., z_{n-1}], e_0 = x - z_0.
    """

    def __init__(self, n: int, n_players: int, m: int, output_mode: bool):
        self.n = n
        self.N = n_players
        self.m = m
        self.output_mode = output_mode
        block = n * n_players * m
        self.chain_sl = slice(0, block)
        self.z_sl = slice(block, 2 * block) if output_mode else None
        pos = 2 * block if output_mode else block
        self.y_sl = slice(pos, pos + n_players * m)
        pos += n_players * m
        self.hat_sl = slice(pos, pos + n_players * n_players * m)
        pos += n_players * n_players * m
        self.size = pos
        # the rows a drift adds to: the top level, and at n = 1 in output mode e_0' too
        top = slice(block - n_players * m, block)
        self.drift_sl = (top, slice(block, block + n_players * m)) if output_mode and n == 1 else (top,)

    def fold_rows(self, drifting: bool) -> tuple:
        """(reads, writes, q) of ``affine.fold_blocks``: the chain, drift_sl and N m; none without drift."""
        return (self.chain_sl, self.drift_sl, self.N * self.m) if drifting else (slice(0, 0), (), 0)

    def _levels(self, s, sl):
        if s.ndim == 1:
            return s[sl].reshape(self.n, self.N, self.m)
        return s[:, sl].reshape(len(s), self.n, self.N, self.m).swapaxes(0, 1)

    def chain(self, s):
        return self._levels(s, self.chain_sl)

    def z(self, s):
        return None if self.z_sl is None else self._levels(s, self.z_sl)

    def players(self, v):
        """A (..., N m) block as its (..., N, m) view."""
        return v.reshape(v.shape[:-1] + (self.N, self.m))

    def y(self, s):
        return self.players(s[..., self.y_sl])

    def x_hat(self, s):
        return s[..., self.hat_sl].reshape(s.shape[:-1] + (self.N, self.N, self.m))


def _validate_setup(game: Game, plants: Sequence[Plant], g: Digraph, gains: GainSet):
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


def _add_drifts(groups: list, chain: np.ndarray, *accs: np.ndarray) -> None:
    """Add every player's drift at the (n, ..., N, m) chain into each (..., N, m) acc."""
    for sel, drift, w in groups:
        d = drift(chain[..., sel, :], w)
        for acc in accs:
            acc[..., sel, :] += d


def _make_rhs(game: Game, g: Digraph, gains: GainSet, obs: Optional[ObserverSet], layout: _Layout):
    """Drift-free closed-loop right-hand side over a flat state or a batch of lanes."""

    def rhs(s, t):
        out = np.empty_like(s)
        chain = layout.chain(s)
        x_hat = layout.x_hat(s)
        x = chain[0]
        e = layout.z(s)

        grads = extended_pseudo_gradient(game, x, x_hat)
        levels = chain[1:] if e is None else e[1:]

        dchain = layout.chain(out)
        dchain[:-1] = chain[1:]
        dchain[-1] = control.stacked_control_input(levels, grads, layout.y(s), gains)
        if e is not None:
            # level 0 zeroed and e_0 as the output make the law's innovation
            # outputs - z_0 exactly e_0, where x - (x - e_0) loses its low bits
            z = np.concatenate([np.zeros_like(e[:1]), e[1:]])
            de = layout.z(out)
            de[:] = control.stacked_observer_rate(z, e[0], gains, obs)
            de[0] = dchain[0] - de[0]
        layout.y(out)[:] = control.stacked_aux_rate(levels, grads, gains)
        layout.x_hat(out)[:] = control.stacked_estimate_rate(x_hat, x, g, gains.alpha3)
        return out

    return rhs


def _with_drift(rhs, drift_groups: list, layout: _Layout):
    """The drift-free rhs plus every plant's drift in the rows of layout.drift_sl."""
    if not drift_groups:
        return rhs

    def rhs_with_drift(s, t):
        out = rhs(s, t)
        _add_drifts(drift_groups, layout.chain(s), *(layout.players(out[..., at]) for at in layout.drift_sl))
        return out

    return rhs_with_drift


def run(game: Game, plants: Sequence[Plant], g: Digraph, gains: GainSet,
        obs: Optional[ObserverSet], cfg: SimConfig,
        init: Optional[InitialConditions] = None,
        x_star: Optional[np.ndarray] = None) -> Trajectory:
    """Integrate the full closed loop and record the trajectory.

    obs None runs the state-feedback law; an ObserverSet runs the
    output-feedback law, the same law on the high-gain observer's estimates.
    x_star, when supplied, must come from an independent equilibrium solver;
    it is used only to fill the recorded error norms.  Like init.decisions
    and init.derivatives it must be finite numbers (``errors.finite_array``).

    This is ``run_lanes`` on one lane.  The step depends on the game and the
    drifts (``Trajectory.stepping`` names it), with size the flat state's length:

    * any affine game, every lane of the batch on one probed operator
      ("folded"): one batched product a step of z = [s, 1, d_1, ..., d_4]
      (z = [s, 1] without drift) with the blocks of ``affine.fold_blocks``,
      one per connected component of the operator, and with drift one
      product of a prefix of z and one call per distinct drift a stage
      (``affine.fold_drift_rk4``).  Without drift it may step groups: G full
      record intervals of r = record_stride steps are one dense O(G size^2)
      product with the r-, 2r-, ..., G r-step maps side by side
      (``DriftFold.intervals``).  An interval's end is kept when
      kappa |s|_inf + max_j |c_j|_inf stays within STATE_MAGNITUDE_GUARD at
      its start, and every interval of the group before it was kept; the
      first interval not kept, and the remainder interval, take the folded
      step with the per-step guard.  With drift it may step record windows
      by Parareal, from the starts an ETDRK4 coarse pass gives, corrected
      until the windows' ends meet the next starts within PARAREAL_RTOL of
      each entry's largest magnitude, weighed by the state's growth after
      them (``Stepping.windows``, ``passes`` and ``coarse``);
    * any other affine game ("sparse"): ``rk4_step`` on the probed sparse
      operator plus the stacked drift, one O(nonzeros) matvec and one call
      per distinct drift a stage;
    * otherwise ("structured"): ``rk4_step`` on the structured right-hand side.

    ``_plan`` takes the cheapest of these for the batch.
    Every affine kind probes the loop once (``probe_affine``) and raises
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

    Lanes share a batch when they have the same layout, dt, step count,
    record_stride and drift callable per player.  Under a game that is
    affine with drift each lane keeps its own probed operator, so the lanes
    may differ in game, graph, gains and observer; otherwise they must share
    those objects.  A batch steps up to MAX_LANES lanes as one (lanes, size)
    state, and a lane that leaves the magnitude guard is masked with its own
    Diverged while the others go on.  Loops that share their model objects
    are probed once, and a batch of them may fold its drift step where one
    of its lanes alone would not; a lane of such a batch agrees with its own
    run to rounding, not bit for bit (README).
    """
    results = [None] * len(lanes)
    probes = {}
    batches = {}
    with np.errstate(all="ignore"):  # an overflow in a probe, fold or masked lane: the finite checks report it
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
    n, n_players, m = _validate_setup(game, plants, g, gains)
    if not is_strongly_connected(g):
        raise NotStronglyConnected("communication digraph must be strongly connected")
    output_mode = obs is not None
    if output_mode and cfg.dt > obs.mu / 10.0 + 1e-15:
        raise ConfigInvalid(
            f"output mode requires dt <= mu/10 = {obs.mu / 10.0:g}, got dt={cfg.dt:g}"
        )

    init = lane.init or InitialConditions()
    try:
        lo, hi = (finite(v, "init.box") for v in init.box)
    except (ConfigInvalid, TypeError, ValueError):  # not a pair of finite numbers
        lo = hi = np.nan
    if not 0 <= hi - lo < np.inf:  # also false for NaN; rng.uniform takes no infinite width
        raise ConfigInvalid(f"init.box must be finite with low <= high and high - low finite; got {init.box!r}")
    rng = np.random.default_rng(cfg.seed)
    if init.decisions is not None:
        x0 = finite_array(init.decisions, "init.decisions")
        if x0.shape != (n_players, m):
            raise ConfigInvalid(f"init.decisions must have shape {(n_players, m)}, got {x0.shape}")
    else:
        x0 = rng.uniform(lo, hi, size=(n_players, m))

    layout = _Layout(n, n_players, m, output_mode)
    state = np.zeros(layout.size)
    chain = layout.chain(state)
    chain[0] = x0
    if init.derivatives is not None:
        derivs = finite_array(init.derivatives, "init.derivatives")
        if derivs.shape != (n - 1, n_players, m):
            raise ConfigInvalid(f"init.derivatives must have shape {(n - 1, n_players, m)}, got {derivs.shape}")
        chain[1:] = derivs

    x_star_mat = None
    if lane.x_star is not None:
        x_star_mat = finite_array(lane.x_star, "x_star")
        if x_star_mat.size != n_players * m:
            raise DimensionMismatch(f"x_star must hold {n_players * m} numbers, got {x_star_mat.size}")
        x_star_mat = x_star_mat.reshape(n_players, m)

    op = None
    if game.affine:
        model = (id(game), id(g), id(gains), id(obs))
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
    """Every lane's samples, written from (records, lanes, size) slabs into rows sized up front.

    ``extend`` only copies a slab of full states into a block, split at
    block ends; a full block, and the last one in ``split``, is reduced to
    the recorded series in one pass over its records and lanes.  times holds
    the time of every row.  A masked lane, and the error norm of a lane
    without x_star, are recorded too; ``split`` drops them.
    """

    def __init__(self, layout: _Layout, x_stars: list, times: np.ndarray):
        rows, lanes = len(times), len(x_stars)
        self.layout = layout
        self.x_stars = x_stars
        self.x_star = np.stack([np.zeros((layout.N, layout.m)) if x is None else x for x in x_stars])
        self.times = times
        self.decisions = np.empty((rows, lanes, layout.N, layout.m))
        self.squares = np.empty((2, rows, lanes, 1, 1))  # estimate disagreement, error
        self.obs_errors = np.empty((rows, lanes))
        block = max(1, RECORD_BLOCK_BYTES // (8 * lanes * layout.size))
        self.block = np.empty((min(rows, block), lanes, layout.size))
        self.recorded = 0
        self.reduced = 0  # records already reduced out of the block
        self.seconds = 0.0  # spent inside extend

    def extend(self, slab: np.ndarray) -> None:
        """Record each (lanes, size) state of the (records, lanes, size) slab in turn."""
        began, done = time.perf_counter(), 0
        while done < len(slab):
            row = self.recorded - self.reduced
            take = min(len(slab) - done, len(self.block) - row)
            self.block[row:row + take] = slab[done:done + take]
            self.recorded += take
            done += take
            if row + take == len(self.block):
                self._reduce()
        self.seconds += time.perf_counter() - began

    def _reduce(self) -> None:
        first, last = self.reduced, self.recorded
        s = self.block[:last - first].reshape(-1, self.layout.size)
        x = self.layout.chain(s)[0]
        decisions = self.decisions[first:last]
        decisions[:] = x.reshape(decisions.shape)
        _lane_squares(self.layout.x_hat(s) - x[:, None], self.squares[0, first:last].reshape(-1, 1, 1))
        _lane_squares((decisions - self.x_star).reshape(x.shape), self.squares[1, first:last].reshape(-1, 1, 1))
        if self.layout.output_mode:
            np.max(np.abs(self.layout.z(s)[0]), axis=(1, 2), out=self.obs_errors[first:last].reshape(-1))
        self.reduced = last

    def join(self, part: "_Recorder", windows: int) -> None:
        """Record the first windows windows of part in time order.

        part recorded each window as lanes: lane w L + l of its (windows, L)
        lanes is this recorder's lane l over window w, and its rows are that
        window's records after its start.
        """
        began = time.perf_counter()
        for owner in (self, part):
            if owner.recorded > owner.reduced:
                owner._reduce()
        rows, lanes, first = part.recorded, len(self.x_stars), self.recorded
        last = first + windows * rows

        def in_time(a):  # (rows, windows L, ...) -> (windows rows, L, ...)
            a = a[:rows, :windows * lanes].reshape((rows, windows, lanes) + a.shape[2:])
            return a.swapaxes(0, 1).reshape((windows * rows, lanes) + a.shape[3:])

        self.decisions[first:last] = in_time(part.decisions)
        for series, joined in zip(part.squares, self.squares):
            joined[first:last] = in_time(series)
        self.obs_errors[first:last] = in_time(part.obs_errors)
        self.recorded = self.reduced = last
        self.seconds += part.seconds + time.perf_counter() - began

    def split(self, failures: list, *stepped) -> list:
        """Each lane's Trajectory or its Diverged in its place, either carrying Stepping(*stepped, record_s)."""
        began, n = time.perf_counter(), self.recorded
        if n > self.reduced:
            self._reduce()
        disagreement, errors = np.sqrt(self.squares[:, :n]).reshape(2, n, -1)
        stepping = Stepping(*stepped, self.seconds + time.perf_counter() - began)
        for failure in filter(None, failures):
            failure.stepping = stepping
        return [failure or Trajectory(self.times[:n], self.decisions[:n, k], disagreement[:, k],
                                      None if x_star is None else errors[:, k],
                                      self.obs_errors[:n, k] if self.layout.output_mode else None, stepping)
                for k, (x_star, failure) in enumerate(zip(self.x_stars, failures))]


def _integrate(batch: list, plan: Optional["Plan"] = None) -> list:
    """Step the starts of one batch key together by plan, ``_plan``'s when None; a Trajectory or Diverged per lane.

    One lane steps its (size,) state; more step one (lanes, size) state.  A
    "folded" plan builds the fold once.  A plan with windows steps its
    record windows by ``_parareal`` first; then the loop goes over the
    record intervals left: a group product where the plan has groups, else
    one step at a time with the guard after each, so a Diverged names the
    step the one-step path would.
    """
    lane, layout, lanes = batch[0].lane, batch[0].layout, len(batch)
    cfg, stride = lane.cfg, lane.cfg.record_stride
    steps = round(cfg.horizon / cfg.dt)
    # rows for step 0, every record_stride-th step and the last step
    rows = steps // stride + 2
    try:
        # row i holds step min(i stride, steps); in floats, as i stride can pass int64
        times = np.minimum(np.arange(rows) * float(min(stride, steps)), steps) * cfg.dt
        recorder = _Recorder(layout, [start.x_star for start in batch], times)
    except (ValueError, MemoryError) as exc:  # too many rows for numpy or for memory
        return [ConfigInvalid(f"sim.horizon={cfg.horizon:g} over sim.dt={cfg.dt:g} at "
                              f"sim.record_stride={stride} needs {rows:.3g} records, "
                              f"which cannot be allocated: {exc}") for _ in batch]
    plan = plan or _plan(batch, steps)
    state = batch[0].state if lanes == 1 else np.stack([start.state for start in batch])
    groups = _drift_groups([start.lane.plants for start in batch], state.shape[:-1])
    if plan.kind == "folded":
        reads = layout.fold_rows(bool(groups))
        blocks = plan.blocks or fold_blocks(batch[0].op, *reads)
        fold = fold_drift_rk4(batch[0].op, cfg.dt, *reads, blocks)
        advance = _fold_stepper(fold, groups, layout, state)
        if plan.group is not None:
            maps, offsets, kappa, c_peak = fold.intervals(stride, plan.group)
    else:
        advance = _rk4_stepper(batch, groups)
    failures = [None] * lanes
    recorder.extend(state.reshape(1, lanes, -1))
    first = products = one_step = passes = 0
    windows = coarse = None
    if plan.windows is not None:
        solved = _parareal(plan, fold, blocks, batch, state, recorder)
        if solved is not None:  # else a pass left the guard: step the run one step at a time
            taken, one_step, passes, state = solved
            windows, coarse, first = plan.windows, plan.coarse, taken * (steps // stride // plan.windows * stride)
    while first < steps:
        full = (steps - first) // stride
        if plan.group is not None and full:
            # (lanes, intervals, size); interval j > 0 starts at end j - 1,
            # kept while the bound holds at every start (False for NaN)
            ends = (state @ maps + offsets).reshape(lanes, -1, layout.size)[:, :full]
            products += 1
            peaks = [np.abs(state).max()] + np.abs(ends[:, :-1]).max(axis=(0, 2)).tolist()
            taken = 0
            while taken < len(peaks) and kappa * peaks[taken] + c_peak <= STATE_MAGNITUDE_GUARD:
                taken += 1
            if taken:
                recorder.extend(ends[:, :taken].swapaxes(0, 1))
                state = ends[:, taken - 1].reshape(state.shape)
                first += taken * stride
                continue
        last = min(first + stride, steps)
        one_step += last - first
        for k in range(first, last):
            state = advance(state, k * cfg.dt)
            if not np.abs(state).max() <= STATE_MAGNITUDE_GUARD:  # also true for a NaN peak
                _mask_diverged(state.reshape(lanes, -1), failures, k, cfg.dt)
                if all(failures):
                    return recorder.split(failures, plan.kind, plan.group, products, one_step - (last - k - 1),
                                          windows, passes, coarse)
        recorder.extend(state.reshape(1, lanes, -1))
        first = last
    return recorder.split(failures, plan.kind, plan.group, products, one_step, windows, passes, coarse)


@dataclass(frozen=True)
class Plan:
    """How ``_integrate`` steps a batch (``run``, ``_plan``); blocks, found while pricing, is no part of it."""

    kind: str                       # "folded", "sparse" or "structured"
    group: Optional[int] = None     # record-interval maps per product, None without groups
    windows: Optional[int] = None   # record windows K stepped side by side, None without them
    coarse: Optional[int] = None    # the windows' coarse step c in fine steps, None without windows
    blocks: Optional[FoldBlocks] = field(default=None, compare=False, repr=False)


def _step_s(kind: str, lanes, nbytes: int, drifts: int = 0):
    """Seconds of a step of kind (STEP_S) on lanes lanes, or an array of counts, reading nbytes a lane."""
    fixed, drift, drift_lane, read, lane = STEP_S[kind]
    return fixed + drifts * (drift + lanes * drift_lane) + nbytes * (read + lanes * lane)


def _products_s(count, n: int, madd_s: float = BUILD_MADD_S):
    """Seconds of count dense products of size n: n^3 multiply-adds each, and its offset and
    inf-norm as PRODUCT_ENTRY_MADDS more an entry (``affine.DriftFold.intervals``)."""
    return count * madd_s * n ** 2 * (n + PRODUCT_ENTRY_MADDS)


def _pass_s(count, window: int, coarse, step):
    """Seconds of one ``_parareal`` pass: G's coarse steps over windows 1 to count - 2 and F's window
    of fine steps on all count windows; step(k) prices a folded step of k times the batch's lanes."""
    return (count - 2) * (window // coarse) * step(1) + window * step(count)


def _divisors(n: int, top: int) -> list:
    """The divisors of n from 2 to top, in increasing order."""
    low = (np.flatnonzero(n % np.arange(1, math.isqrt(n) + 1) == 0) + 1).tolist()
    return sorted({d for d in low + [n // d for d in low] if 2 <= d <= top})


def _coarse_build_s(op: AffineOperator, blocks: FoldBlocks, h) -> np.ndarray:
    """Seconds of ``affine.fold_drift_etdrk4`` at each step in h: ETD_FIXED_S, PHI_PRODUCTS + 4 s
    dense products of each distinct block (``affine.phi_alphas``, s its doublings at h), and the
    probe's three dense maps of every component on each of its lanes."""
    h = np.asarray(h, dtype=float)
    phis = sum(_products_s(PHI_PRODUCTS + 4 * phi_doublings(h * alpha), n, PHI_MADD_S)
               for n, alpha in phi_alphas(op))
    sizes = np.count_nonzero(blocks.cols < op.b.size, axis=1).astype(float)
    return ETD_FIXED_S + phis + ETD_PROBE_MADD_S * blocks.rows.shape[1] * 3 * float(np.sum(sizes ** 2))


def _plan(batch: list, steps: int) -> Plan:
    """The cheapest plan to step batch for steps steps, each candidate priced in seconds by STEP_S.

    A game that is not affine steps "structured".  Else the candidates are
    "sparse" and, when every lane steps one probed operator: the fold one
    step at a time, if its step reads at most FOLD_DRIFT_BYTES; without
    drift, groups of G record intervals, G up to the full intervals and to
    RECORD_BLOCK_BYTES // (8 size^2) (at least 1); with drift, record
    windows (K, c) within the byte bound: K equal windows of whole record
    intervals, K lanes at most MAX_LANES, c a divisor of the window with c
    dt within ``affine.rk4_limit_bound``, A's trace bound.  G is ETDRK4,
    exact on the loop's linear modes, so the spectrum cannot bound c and is
    not computed; a window plan is priced at two passes, with its coarse
    fold's build (``_coarse_build_s``).
    """
    lane, layout, op = batch[0].lane, batch[0].layout, batch[0].op
    if not lane.game.affine:
        return Plan("structured")
    lanes, stride, size = len(batch), lane.cfg.record_stride, layout.size
    drifts = len({p.drift for p in lane.plants} - {None})
    if any(start.op is not op for start in batch):
        return Plan("sparse")
    sparse = SPARSE_BYTES * op.vals.size
    records = RECORD_S * -(-steps // stride)  # one record call an interval, the groups' aside
    prices = {Plan("sparse"): records + steps * _step_s("sparse", lanes, sparse, drifts)}
    reads, writes, q = layout.fold_rows(bool(drifts))
    blocks = fold_blocks(op, reads, writes, q)
    build = (PROBE_BYTE_S * (size + 1 + 4 * q) * sparse if drifts
             else FREE_PROBE_S + FREE_PROBE_BYTE_S * (size + 1) * sparse)

    def folded(count):  # a folded step of count times the batch's lanes
        return _step_s("folded", count * lanes, blocks.nbytes, drifts)

    full, fits = steps // stride, blocks.nbytes <= FOLD_DRIFT_BYTES
    if fits:
        prices[Plan("folded", blocks=blocks)] = build + records + steps * folded(1)
    if not drifts:
        rest = steps % stride * folded(1) + RECORD_S * (steps % stride > 0)
        for group in range(1, min(full, max(1, RECORD_BLOCK_BYTES // (8 * size ** 2))) + 1):
            prices[Plan("folded", group, blocks=blocks)] = (
                build + _products_s(max(0, stride + group - 2), size) + rest
                + -(-full // group) * (RECORD_S + _step_s("group", lanes, 8 * group * size ** 2)))
    counts = np.arange(2, min(MAX_LANES // lanes, full) + 1)
    if drifts and fits and counts.size:
        window = full // counts * stride
        fixed = build + records + (window + steps - counts * window) * folded(1)
        reach = rk4_limit_bound(op) / lane.cfg.dt
        plans = [(k, c) for k, w in enumerate(window.tolist()) for c in _divisors(w, reach)]
        at, coarse = np.array(plans, dtype=np.int64).reshape(-1, 2).T
        costs = (fixed[at] + _coarse_build_s(op, blocks, coarse * lane.cfg.dt)
                 + 2 * _pass_s(counts[at], window[at], coarse, folded))
        if costs.size:
            k = int(np.argmin(costs))
            prices[Plan("folded", None, int(counts[at[k]]), int(coarse[k]), blocks)] = costs[k]
    return min(prices, key=prices.get)


def _pass_steppers(plan: Plan, fold: DriftFold, blocks: FoldBlocks, batch: list, state: np.ndarray) -> tuple:
    """``_parareal``'s steppers: G's on the batch's lanes by ETDRK4 at c dt (``affine.fold_drift_etdrk4``
    on blocks) and by fold's RK4 at dt, and F's (fold) on the (windows, lanes) lanes of one batch."""
    layout, dt = batch[0].layout, batch[0].lane.cfg.dt
    plants, wide = [start.lane.plants for start in batch], np.empty((plan.windows * len(batch), layout.size))
    groups = _drift_groups(plants, state.shape[:-1])
    coarse = fold_drift_etdrk4(batch[0].op, plan.coarse * dt, *layout.fold_rows(True), blocks)
    return (_fold_stepper(coarse, groups, layout, state), _fold_stepper(fold, groups, layout, state),
            _fold_stepper(fold, _drift_groups(plants * plan.windows, wide.shape[:-1]), layout, wide))


def _parareal(plan: Plan, fold: DriftFold, blocks: FoldBlocks, batch: list, state: np.ndarray,
              recorder: _Recorder) -> Optional[tuple]:
    """Step plan's windows by Parareal into recorder: (windows kept, fine steps, passes, the state after them).

    G steps the batch's lanes from window to window by ETDRK4 at c dt, built
    on the same blocks, and window 0, whose start is exact, once on fold
    itself; F steps fold on every window at once, as the (windows,
    lanes) lanes of one batch, into a recorder of its own.  The starts begin
    as G's ends and are corrected, U_{n+1} <- G(U_n new) + F(U_n old) -
    G(U_n old) (Lions, Maday & Turinici 2001), until every window's gap is
    within PARAREAL_RTOL; the last F pass is then joined into recorder.  A
    gap is the largest mismatch of an entry of a window's F end with the next
    start, relative to the entry's largest magnitude over the windows, times
    how much the state grows after that start (a later window end's largest
    magnitude over the start's own, at least 1), so a loop that grows is held
    to its own magnitude.  Another pass runs if every pass so far matched one
    more window and it costs less, at ``_plan``'s prices, than stepping the
    windows after the first mismatch one at a time; else those before it are
    kept and the serial loop steps on.  None when a pass leaves the magnitude
    guard: the run is then stepped one step at a time from its start.
    """
    layout, cfg = batch[0].layout, batch[0].lane.cfg
    count, coarse = plan.windows, plan.coarse
    window = round(cfg.horizon / cfg.dt) // cfg.record_stride // count * cfg.record_stride
    g_coarse, g_fine, f_step = _pass_steppers(plan, fold, blocks, batch, state)
    wide = (count * len(batch), layout.size)
    starts, g_new = np.empty((count,) + state.shape), np.empty((count - 1,) + state.shape)
    starts[0] = state
    part = _Recorder(layout, [start.x_star for start in batch] * count, np.empty(window // cfg.record_stride))
    drifts = len({p.drift for p in batch[0].lane.plants} - {None})

    def folded(k):  # a folded step of k times the batch's lanes
        return _step_s("folded", k * len(batch), blocks.nbytes, drifts)

    another = _pass_s(count, window, coarse, folded)
    ends = g_old = None
    passes = 0
    while True:
        for n in range(0 if ends is None else 1, count - 1):
            s = starts[n]
            for _ in range(window if n == 0 else window // coarse):
                s = (g_coarse if n else g_fine)(s, 0.0)
            g_new[n] = s
            starts[n + 1] = s if ends is None else s + (ends[n] - g_old[n])
        if not np.abs(starts).max() <= STATE_MAGNITUDE_GUARD:  # also true for a NaN
            return None
        part.recorded = part.reduced = 0
        s = starts.reshape(wide)
        for k in range(1, window + 1):
            s = f_step(s, 0.0)
            if not np.abs(s).max() <= STATE_MAGNITUDE_GUARD:
                return None
            if k % cfg.record_stride == 0:
                part.extend(s.reshape((1,) + wide))
        passes += 1
        ends, g_old = s.reshape(starts.shape).copy(), g_new.copy()
        scale = np.maximum(np.abs(starts).max(axis=0), np.abs(ends).max(axis=0))
        gaps = np.divide(np.abs(ends[:-1] - starts[1:]), scale, out=np.zeros(ends[1:].shape), where=scale > 0)
        peaks = np.abs(ends).reshape(count, -1).max(axis=1)
        own = np.maximum(np.abs(starts[1:]).reshape(count - 1, -1).max(axis=1), peaks[:-1])
        later = np.maximum.accumulate(peaks[::-1])[-2::-1]  # the largest of ends[n + 1:]
        growth = np.divide(later, own, out=np.full(count - 1, np.inf), where=own > 0)
        gaps = gaps.reshape(count - 1, -1).max(axis=1) * np.maximum(growth, 1.0)
        bad = np.flatnonzero(~(gaps <= PARAREAL_RTOL))  # NaN fails too
        kept = int(bad[0]) + 1 if bad.size else count
        if kept == count or kept <= passes or (count - kept) * window * folded(1) <= another:
            recorder.join(part, kept)
            return kept, window * (passes + 1), passes, ends[kept - 1]


def _fold_stepper(fold: DriftFold, groups: list, layout: _Layout, state: np.ndarray):
    """advance(s, t) of the "folded" step of fold, for a batch shaped like state.

    z = [s, 1, d_1, ..., d_4, 0] is one buffer with the batch's lane shape
    in front, and so is the product [s+, spare] (``affine.DriftFold``);
    without drift groups z is [s, 1, 0].  A step puts s into z, each stage's
    drift into its slot of z (stage j + 1 reads one product of the prefix of
    z up to the drifts before it with ``fold.stages[j - 1]``), gathers z
    into the blocks' rows, takes one batched product with the block stack,
    scatters it into the product in layout order and returns the product's
    state part.  A step reads nothing but s, so a lane that
    ``_mask_diverged`` zeroed steps on from zero.
    """
    reads, writes, q = layout.fold_rows(bool(groups))
    size, lanes = layout.size, state.shape[:-1]
    z = np.zeros(lanes + (size + 2 + 4 * q,))
    z[..., size] = 1.0
    out = np.empty(lanes + (size + 1,))
    slots = [layout.players(z[..., size + 1 + j * q:size + 1 + (j + 1) * q]) for j in range(4 if q else 0)]
    stage = np.empty(lanes + (reads.stop - reads.start,))
    # each lane's block rows and columns as flat indices into z and out; the
    # stacks hold them lane by lane, and the product takes them block by block
    lane = np.arange(z.size // z.shape[-1])[:, None, None]
    gather, scatter = lane * z.shape[-1] + fold.rows, lane * out.shape[-1] + fold.cols
    gathered, products = np.empty(gather.shape), np.empty(scatter.shape)
    flat = out.reshape(-1)

    def put(chain, slot):
        for sel, drift, w in groups:
            slot[..., sel, :] = drift(chain[..., sel, :], w)

    def advance(s, t):
        z[..., :size] = s
        if groups:
            put(layout.chain(s), slots[0])
            for j, matrix in enumerate(fold.stages, 1):
                np.matmul(z[..., :size + 1 + j * q], matrix, out=stage)
                put(layout.chain(stage), slots[j])
        np.take(z, gather, out=gathered, mode="clip")  # in range; "clip" writes into out unbuffered
        np.matmul(gathered.swapaxes(0, 1), fold.y, out=products.swapaxes(0, 1))
        flat[scatter] = products
        return out[..., :size]

    return advance


def _rk4_stepper(batch: list, groups: list):
    """advance(s, t) of the "sparse" step, ``rk4_step`` on the lanes' stacked probed operators, or
    of the "structured" step under a game that is not affine; either adds the drift groups."""
    lane, layout = batch[0].lane, batch[0].layout
    rhs = (stack_lanes([start.op for start in batch]).apply if lane.game.affine
           else _make_rhs(lane.game, lane.g, lane.gains, lane.obs, layout))
    rhs, dt = _with_drift(rhs, groups, layout), lane.cfg.dt
    return lambda s, t: rk4_step(rhs, s, t, dt)


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
    n, n_players, m = _validate_setup(game, plants, g, gains)
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
    """Window between 10% and 90% of the total error drop; EmptyWindow if the trace ends above the 10% level."""
    if traj.error_norms is None:
        raise NonPositiveError("trajectory has no recorded error norms")
    e = traj.error_norms
    e0 = e[0]
    e_min = float(e.min())
    hi_level = e0 - 0.1 * (e0 - e_min)
    lo_level = e0 - 0.9 * (e0 - e_min)
    below_hi = np.nonzero(e <= hi_level)[0]
    below_lo = np.nonzero(e <= lo_level)[0]
    if below_hi.size == 0 or below_lo.size == 0 or e[-1] > hi_level:
        raise EmptyWindow("error trace does not decay through the horizon; no mid-decay window")
    return float(traj.times[below_hi[0]]), float(traj.times[below_lo[0]])


def post_transient_observer_error(traj: Trajectory, fraction: float = 0.2):
    """Sup norm of the recorded observer position error after the initial transient."""
    if traj.observer_errors is None:
        return None
    mask = traj.times >= fraction * traj.times[-1]
    return float(np.max(traj.observer_errors[mask]))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the documented CSV: t, x_1_1, ..., x_N_m, err_norm, est_disagreement.

    Each cell is the repr of its float, err_norm is empty without x_star, and
    each line ends in CRLF as csv.writer ends it; no cell needs quoting.  The
    rows are formatted and written CSV_CHUNK_ROWS at a time.
    """
    n_samples, n_players, m = traj.decisions.shape
    header = ["t"]
    header += [f"x_{i + 1}_{c + 1}" for i in range(n_players) for c in range(m)]
    header += ["err_norm", "est_disagreement"]
    columns = [traj.times, *np.reshape(traj.decisions, (n_samples, -1)).T, traj.error_norms,
               traj.estimate_disagreement]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for first in range(0, n_samples, CSV_CHUNK_ROWS):
            cells = [repeat("") if c is None else
                     map(repr, np.asarray(c[first:first + CSV_CHUNK_ROWS], dtype=float).tolist())
                     for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
