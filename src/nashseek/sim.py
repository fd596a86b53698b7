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
take each.

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
A "folded" batch with drift that is long enough steps as Parareal over
record windows (``_windows``, ``_parareal``): K equal windows of whole
record intervals, K times the lanes at most MAX_LANES, each a lane of one
fine batch, their starts from a serial coarse pass at c dt, corrected until
every window's end meets the next window's start within PARAREAL_RTOL.
The plan is chosen by a cost rule in lane-steps (FOLD_STEP_LANES) that
prices the passes each K and c need from the spectrum of A
(``affine.parareal_contraction``), c dt under RK4's contraction limit
(``affine.rk4_limit``); each window is recorded as a lane and joined in
time order (``_Recorder.join``).  The stop test holds each state entry
within PARAREAL_RTOL of its largest magnitude, weighed by how much the
state grows after the window; the vehicle defaults and the vehicles-output
workload were priced two passes and took two.  A pass that leaves the
guard reruns the batch one step at a time.
A lane that diverges is masked and the others go on.  ``run`` is the one-lane
case, where the state keeps no lane axis; the same loop serves both shapes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import control
from .affine import (AffineOperator, DriftFold, FoldBlocks, eigenvalues, fold_blocks, fold_drift_rk4,
                     parareal_contraction, probe_affine, rk4_limit, rk4_step, stack_lanes)
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

# Bytes a "folded" step reads, all of its block stack and of its three stage
# matrices (``affine.FoldBlocks.nbytes``), so its bytes, not a flop count, set
# the cost: on the vehicle loops two blocks of (size / 2 + 1 + 2 N m) x size / 2
# floats, one per coordinate, and stage matrices of (size + 1 + j N m) x n N m
# floats, j = 1, 2, 3; without drift one (size + 1) x size block.  A folded step
# over a sparse one at one lane and at four (``tools/time_layers.py step 12 13
# 14 15 [output] [lanes=4]`` and ``step 18 19 20 turbines`` for the drift-free
# market of N generators, BLAS on one thread, three runs, drift-free four):
#   1.13 MB  N = 12 state    0.83-1.09  0.52-0.97 | 1.37 MB  N = 18 drift-free  0.63-0.74  0.46-0.53
#   1.35 MB  N = 12 output   0.81-0.91  0.65-0.74 | 1.67 MB  N = 19 drift-free  0.90-1.09  0.54-0.80
#   1.45 MB  N = 13 state    0.86-0.93  0.65-0.77 | 2.00 MB  N = 20 drift-free  1.27-1.38  1.35-1.42
#   1.72 MB  N = 13 output   0.98-1.04  0.78-0.81 | 2.17 MB  N = 14 output      1.23-1.38  0.88-0.95
#   1.84 MB  N = 14 state    0.99-1.11  0.75-0.82 | 2.30 MB  N = 15 state       1.40-1.45  1.02-1.08
# One lane crosses over near 1.8 MB, where four lanes still gain a fifth.  So
# one bound for every lane count, 1.9 MB, admits a one-lane step level with a
# sparse one (1.11 at worst) and none above 2 MB, where one lane loses a quarter
# or more: it folds vehicles up to N = 14 (N = 13 in output mode; the output
# default reads 0.79 MB) and drift-free sizes up to 486 (N = 19).
FOLD_DRIFT_BYTES = 19 * 10 ** 5

# Parareal over record windows (``_windows``, ``_parareal``).  A "folded" step
# of L lanes costs about L + FOLD_STEP_LANES lane-steps: on the vehicles/output
# loop 53 + 6.6 L us (``tools/time_layers.py step 10 output lanes=L``, L = 1, 4,
# 16, 60: 60, 77, 176 and 451 us).  The spectrum and the plan's pricing took
# 11-14 ms on the vehicle loops (one dense block of 150 or 130 states, as the
# two coordinates' blocks are equal), priced at EIG_LANE_STEPS lane-steps a
# state, 20-22 ms.  The plans are priced PLAN_CHUNK at a time: all at once,
# their (plans, modes) complex arrays took 1.3 MB more peak memory.  A plan is taken when the passes it needs cost at most
# PAYBACK of the serial run.  The stop test holds every state entry's
# window-end mismatch within PARAREAL_RTOL of that entry's largest magnitude:
# against the whole state's largest entry, a gap of 2e-12 left the observer
# series of a 4 s output run (stride 7) 5.2e-11 off, as the innovation rows
# are 1e-4 of the decisions.  Priced by ``affine.parareal_contraction``, the
# plans below need two passes and took two (BLAS on one thread; time over the
# serial ``sim.run``, min of 5 interleaved; largest gap of a recorded series
# to the serial run's, relative to its largest entry; equal settle_time):
#   vehicles-output workload, seed 3 (12 000 steps at 2e-3): 25 windows of 480
#     steps, c = 8, contraction 9.5e-7; 0.67, gap 5.0e-14
#   state default (40 000 steps at 1e-3): 32 x 1 250, c = 25, 1.1e-6; 0.42, 1.5e-13
#   output default (40 000 at 1e-3): 43 x 930, c = 15, 8.7e-7; 0.49, 2.3e-13
#   state 6 s: 21 x 280, c = 7, 9.8e-7; 0.74 | output 4.8 s: 17 x 280, c = 7; 0.81
# 3 s of either mode finds no plan that pays (1.06-1.10: the spectrum is paid).
# The passes must be priced: short windows need more (60 windows of 200 steps at
# c = 8 on the workload, contraction 1.8e-5, took three: gaps 4.6e-6, 6.8e-11 and
# 2.4e-15), and a rule that priced two for every plan made short runs lose (6 s
# of state mode took 1.21 of the serial run, 4.8 s of output mode 1.28).
FOLD_STEP_LANES = 7
EIG_LANE_STEPS = 10
PAYBACK = 0.8
PARAREAL_RTOL = 2e-12
COARSE_FRACTION = 0.66
PLAN_CHUNK = 16

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
      (``affine.fold_drift_rk4``).  It is taken when the blocks and the
      stage matrices take at most FOLD_DRIFT_BYTES and the input vectors of
      z are at most steps lanes, and whenever every plant is drift-free and
      a group pays back.  Such a loop also steps groups: G full record
      intervals of r = record_stride steps are one dense O(G size^2) product
      with the r-, 2r-, ..., G r-step maps side by side
      (``DriftFold.intervals``).  They take r + G - 1 O(size^3) products to
      build, so G >= 1 is the largest count with (r + G - 1) size <= steps
      lanes, at most RECORD_BLOCK_BYTES // (8 size^2) (or 1) and at most the
      full intervals.  An interval's end is kept when
      kappa |s|_inf + max_j |c_j|_inf stays within STATE_MAGNITUDE_GUARD at
      its start, and every interval of the group before it was kept; the
      first interval not kept, and the remainder interval, take the folded
      step with the per-step guard.  A batch with drift whose lanes times K
      is at most MAX_LANES steps K record windows by Parareal when its cost
      rule (``_windows``) says the passes they need pay back: a serial
      coarse pass of the fold at c dt, c dt at most COARSE_FRACTION of
      RK4's contraction limit, gives each window a start, the fold steps
      all windows as the lanes of one batch, and the starts are corrected
      until the windows' ends meet them within PARAREAL_RTOL of each
      entry's largest magnitude, weighed by the state's growth after them;
      two passes on the vehicle defaults (``Stepping.windows`` and
      ``passes``);
    * any other affine game ("sparse"): ``rk4_step`` on the probed sparse
      operator plus the stacked drift, one O(nonzeros) matvec and one call
      per distinct drift a stage;
    * otherwise ("structured"): ``rk4_step`` on the structured right-hand side.

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

    def split(self, failures: list, kind: str, group: Optional[int], products: int, one_step: int,
              windows: Optional[int], passes: int) -> list:
        """Each lane's Trajectory or its Diverged in its place, either carrying the batch's Stepping."""
        began, n = time.perf_counter(), self.recorded
        if n > self.reduced:
            self._reduce()
        disagreement, errors = np.sqrt(self.squares[:, :n]).reshape(2, n, -1)
        stepping = Stepping(kind, group, products, one_step, windows, passes,
                            self.seconds + time.perf_counter() - began)
        for failure in filter(None, failures):
            failure.stepping = stepping
        return [failure or Trajectory(self.times[:n], self.decisions[:n, k], disagreement[:, k],
                                      None if x_star is None else errors[:, k],
                                      self.obs_errors[:n, k] if self.layout.output_mode else None, stepping)
                for k, (x_star, failure) in enumerate(zip(self.x_stars, failures))]


def _integrate(batch: list) -> list:
    """Step the starts of one batch key together; a Trajectory or Diverged per lane.

    One lane steps its (size,) state; more step one (lanes, size) state.  It
    picks the step kind by ``run``'s rules and builds a "folded" batch's fold
    once.  A batch with drift for which ``_windows`` finds a plan steps its
    record windows by ``_parareal`` first; then it loops over the record
    intervals left: a group product where groups run, else one step at a
    time with the guard after each, so a Diverged names the step the
    one-step path would.
    """
    lane, layout = batch[0].lane, batch[0].layout
    cfg = lane.cfg
    lanes = len(batch)
    steps = round(cfg.horizon / cfg.dt)
    stride = cfg.record_stride
    state = batch[0].state if lanes == 1 else np.stack([start.state for start in batch])
    groups = _drift_groups([start.lane.plants for start in batch], state.shape[:-1])
    group = None
    # the group's maps take at most RECORD_BLOCK_BYTES (one at least);
    # building them costs stride + count - 1 products of size^3, stepping
    # costs lanes size^2 a step: build as many as keep that cheaper
    count = min(max(1, RECORD_BLOCK_BYTES // (8 * layout.size ** 2)), steps // stride,
                steps * lanes // layout.size - stride + 1)
    grouped = lane.game.affine and not groups and count >= 1
    blocks = _folds(batch, steps, bool(groups)) if lane.game.affine and not grouped else None
    if grouped or blocks is not None:
        kind = "folded"
        fold = fold_drift_rk4(batch[0].op, cfg.dt, *layout.fold_rows(bool(groups)), blocks)
        advance = _fold_stepper(fold, groups, layout, state)
        if grouped:
            group, (maps, offsets, kappa, c_peak) = count, fold.intervals(stride, count)
    else:
        kind = "sparse" if lane.game.affine else "structured"
        advance = _rk4_stepper(batch, groups)
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
    failures = [None] * lanes
    recorder.extend(state.reshape(1, lanes, -1))
    first = products = one_step = passes = 0
    windows = None
    plan = _windows(batch, steps) if kind == "folded" and groups else None
    if plan is not None:
        solved = _parareal(plan, fold, blocks, batch, state, recorder)
        if solved is not None:  # else a pass left the guard: step the run one step at a time
            taken, one_step, passes, state = solved
            windows, first = plan.count, taken * plan.steps
    while first < steps:
        full = (steps - first) // stride
        if group is not None and full:
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
                    return recorder.split(failures, kind, group, products, one_step - (last - k - 1),
                                          windows, passes)
        recorder.extend(state.reshape(1, lanes, -1))
        first = last
    return recorder.split(failures, kind, group, products, one_step, windows, passes)


def _folds(batch: list, steps: int, drifting: bool) -> Optional[FoldBlocks]:
    """The blocks of the fold's map when an affine batch steps the "folded" kind, else None.

    Every lane must step the same probed operator, so that one product
    serves them all, and what a step reads, the block stack and the stage
    matrices (``affine.fold_blocks`` on ``_Layout.fold_rows``, its
    ``nbytes``), must take at most FOLD_DRIFT_BYTES.  The build
    steps each of the width input vectors of z once through the sparse
    stages, so it is counted as width lane-steps, as the group rule counts
    a size^3 product as size of them: the steps of all lanes must be at
    least that many.
    """
    layout, op = batch[0].layout, batch[0].op
    reads, writes, q = layout.fold_rows(drifting)
    if not (all(start.op is op for start in batch) and layout.size + 1 + 4 * q <= steps * len(batch)):
        return None
    blocks = fold_blocks(op, reads, writes, q)
    return blocks if blocks.nbytes <= FOLD_DRIFT_BYTES else None


class _Windows(NamedTuple):
    """A Parareal plan: count windows of steps fine steps, the coarse step coarse fine steps long."""

    count: int
    steps: int
    coarse: int


def _windows(batch: list, steps: int) -> Optional[_Windows]:
    """The cheapest Parareal plan of a "folded" batch with drift, or None when none pays back.

    Costs are in lane-steps: a step of L lanes costs L + FOLD_STEP_LANES,
    so the serial run costs steps (L + FOLD_STEP_LANES).  The windows are
    count equal runs of whole record intervals, count L at most MAX_LANES,
    and the steps past the last one step one at a time as before.  A plan
    costs the first window's fine steps on L lanes once, the passes it
    needs of ``_parareal``'s coarse pass and of the window's fine steps on
    count L lanes, the steps past the windows, the second fold's build (its
    width, as ``_folds`` counts it) and the spectrum (EIG_LANE_STEPS a
    state).  The passes: a correction leaves ``affine.parareal_contraction``
    of a start's error, and the first pass's gap is about that too (the mode
    G misses most, as large as the state), so the gap after p passes is
    about the contraction to the p, and a plan needs the least p, at least
    two, that brings it within PARAREAL_RTOL.  A plan is taken when it costs
    at most PAYBACK of the serial run.  That must hold first for two passes
    with c a whole window, the cheapest plan there is, so a batch that
    cannot pay back computes no eigenvalue.  Then every c that divides the
    window, from 2 to MAX_LANES with c dt at most COARSE_FRACTION of RK4's
    contraction limit on A's spectrum (``affine.rk4_limit``), is priced, and
    the cheapest plan is taken.
    """
    lanes, cfg, layout = len(batch), batch[0].lane.cfg, batch[0].layout
    stride, full = cfg.record_stride, steps // cfg.record_stride
    step = lanes + FOLD_STEP_LANES
    budget = (PAYBACK * steps * step - (layout.size + 1 + 4 * layout.N * layout.m)
              - EIG_LANE_STEPS * layout.size)

    def cost(count, coarse, passes):
        window = full // count * stride
        return (window + steps - count * window) * step + passes * _pass_cost(count, window, coarse, lanes)

    counts = range(2, min(MAX_LANES // lanes, full) + 1)
    if not counts or min(cost(count, full // count * stride, 2) for count in counts) > budget:
        return None
    # R(h conj(lambda)) = conj(R(h lambda)), so half the spectrum serves, and repeated modes once
    # (np.unique cost 0.5 MB more peak memory than a sort)
    eigs = np.sort(np.round(eigenvalues(batch[0].op), 9))
    eigs = eigs[(eigs.imag >= 0) & np.r_[True, eigs[1:] != eigs[:-1]]]
    reach = min(MAX_LANES, int(COARSE_FRACTION * rk4_limit(eigs) // cfg.dt))
    plans = np.array([(count, c) for count in counts for c in range(2, reach + 1)
                      if full // count * stride % c == 0 and cost(count, c, 2) <= budget])
    if not plans.size:
        return None
    count, coarse = plans.T
    contraction = np.concatenate([parareal_contraction(eigs, cfg.dt, full // count[k:k + PLAN_CHUNK] * stride,
                                                       coarse[k:k + PLAN_CHUNK])
                                  for k in range(0, len(count), PLAN_CHUNK)])
    with np.errstate(divide="ignore"):
        passes = np.where(contraction < 1.0, np.ceil(np.log(PARAREAL_RTOL) / np.log(contraction)), np.inf)
    costs = cost(count, coarse, np.maximum(passes, 2))
    best = int(np.argmin(costs))
    if costs[best] > budget:
        return None
    return _Windows(int(count[best]), full // int(count[best]) * stride, int(coarse[best]))


def _pass_cost(count: int, window: int, coarse: int, lanes: int) -> int:
    """Lane-steps of one ``_parareal`` pass: G's coarse steps over windows 1 to count - 2 on lanes
    lanes, and F's window of fine steps on count lanes lanes."""
    return (count - 2) * (window // coarse) * (lanes + FOLD_STEP_LANES) + window * (count * lanes + FOLD_STEP_LANES)


def _pass_steppers(plan: _Windows, fold: DriftFold, blocks: FoldBlocks, batch: list, state: np.ndarray) -> tuple:
    """``_parareal``'s steppers: G's on the batch's lanes at c dt (fold rebuilt on blocks) and at dt
    (fold), and F's (fold) on the (windows, lanes) lanes of one batch."""
    layout, dt = batch[0].layout, batch[0].lane.cfg.dt
    plants, wide = [start.lane.plants for start in batch], np.empty((plan.count * len(batch), layout.size))
    groups = _drift_groups(plants, state.shape[:-1])
    coarse = fold_drift_rk4(batch[0].op, plan.coarse * dt, *layout.fold_rows(True), blocks)
    return (_fold_stepper(coarse, groups, layout, state), _fold_stepper(fold, groups, layout, state),
            _fold_stepper(fold, _drift_groups(plants * plan.count, wide.shape[:-1]), layout, wide))


def _parareal(plan: _Windows, fold: DriftFold, blocks: FoldBlocks, batch: list, state: np.ndarray,
              recorder: _Recorder) -> Optional[tuple]:
    """Step plan's windows by Parareal into recorder: (windows kept, fine steps, passes, the state after them).

    The coarse pass G steps the batch's lanes from window to window on
    fold's RK4 at c dt, built on the same blocks; window 0, whose start is
    exact, it steps once on fold itself.  The fine pass F steps fold on
    every window at once, as the (windows, lanes) lanes of one batch, and
    records each in a recorder of its own, written over by each pass.  The
    starts begin as G's ends and are corrected, U_{n+1} <- G(U_n new) +
    F(U_n old) - G(U_n old) (Lions, Maday & Turinici 2001), until the gap of
    every window is within PARAREAL_RTOL; the last F pass is then joined
    into recorder.  A window's gap is the largest mismatch of an entry of
    its F end with the start of the window after it, relative to the
    entry's largest magnitude over the windows, times how much the state
    grows after that start (the largest magnitude of a later window end
    over the start's own, at least 1): an error there grows with the state,
    so a loop whose drift makes it grow is held to its own magnitude, not
    its last.  Another pass runs if it costs less than stepping the windows
    after the first mismatch one at a time and every pass so far matched
    one more window, as Parareal does in exact arithmetic; else the windows
    before the mismatch are kept and the serial loop steps on.  None when a
    pass leaves the magnitude guard: the run is then stepped one step at a
    time from its start, so it fails where it would.
    """
    layout, cfg = batch[0].layout, batch[0].lane.cfg
    count, window, coarse = plan
    g_coarse, g_fine, f_step = _pass_steppers(plan, fold, blocks, batch, state)
    wide = (count * len(batch), layout.size)
    starts, g_new = np.empty((count,) + state.shape), np.empty((count - 1,) + state.shape)
    starts[0] = state
    part = _Recorder(layout, [start.x_star for start in batch] * count, np.empty(window // cfg.record_stride))
    step, another = len(batch) + FOLD_STEP_LANES, _pass_cost(count, window, coarse, len(batch))
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
        if kept == count or kept <= passes or (count - kept) * window * step <= another:
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
