"""The affine part of the closed loop, probed once from its structured right-hand side.

Under a game declared affine everything in the loop but the plant drift is an
affine map ``s' = A s + b`` of the flat state.  This module holds:

* ``probe_affine``, which evaluates the structured right-hand side on groups
  of columns whose rows cannot overlap, a chunk of groups at a time as the
  lanes of one batched call, and keeps ``A`` as its nonzeros
  (``AffineOperator``): 75 lanes and 2.4 ms at N = 10, 215 lanes and about
  25 ms at N = 30;
* ``stack_lanes``, the operators of a batch of loops side by side over a
  ``(lanes, size)`` state, each lane with its own nonzeros;
* ``rk4_step``, the one RK4 step, which every step kind runs or folds;
* ``fold_drift_rk4``, that step folded around the drift into one map of
  z = [s, 1, d_1, ..., d_4] (z = [s, 1] without drift) to the next state,
  kept as one block per connected component of A (``fold_blocks``), and
  three stage matrices that give each stage input from a prefix of z; a
  ``DriftFold`` probed by running ``rk4_step`` on lanes that carry one
  input of every block at once.  ``DriftFold.intervals`` puts a drift-free
  fold's blocks together into the maps of record intervals side by side,
  with a bound on every state their steps pass through;
* ``eigenvalues`` of A, one dense block per connected component, and what
  RK4 makes of them: ``rk4_limit``, the largest step that contracts every
  mode, and ``parareal_contraction``, what a Parareal correction leaves of a
  window start's change (``sim._parareal``).

``sim.run`` says which loops step which kind.  The layout argument is
``sim._Layout``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigInvalid


# The affine declaration is checked at one fixed state: the structured
# drift-free right-hand side must match A v + b in every row to this fraction
# of sum_j |A_ij v_j| + |b_i|.  At that state both built-in games, in either
# mode, stay below 6e-16 of it, and below 8e-15 over 20 other random states;
# a cubic term 1e-6 x_i^3 added to either game's gradient exceeds it.
AFFINE_CHECK_RTOL = 1e-10

# The probe evaluates its vectors as the lanes of one structured call, as
# many lanes as keep that (lanes, size) array within this many bytes; the
# arrays inside the call reach about ten times it.  The probe takes 75 lanes
# in 4 calls and 2.4 ms at N = 10 (size 260), and 215 lanes in 55 calls and
# 25 ms at N = 30 (size 1 980).  At N = 30, 16 and 32 KB chunks were 30-75%
# slower, and 128 and 256 KB chunks no faster with 0.6 and 1.6 MB more peak.
PROBE_CHUNK_BYTES = 2 ** 16

# Eigenvalues ``rk4_limit`` scans at once: its (rays, 256) complex arrays
# stay near 64 KB.
LIMIT_CHUNK = 16


def rk4_step(rhs, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical Runge-Kutta 4 update of a state or a (lanes, size) batch, its stages in order.

    It checks nothing: the run's guard masks a lane whose state is not finite.
    """
    k1 = rhs(state, t)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(state + dt * k3, t + dt)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class AffineOperator:
    """The drift-free closed loop s' = A s + b, with A kept as its nonzeros.

    b has the shape of the state it maps: (size,) for one loop, or
    (lanes, size) for a batch from ``stack_lanes``.  rows and cols index the
    flattened state, so lane k's entries sit at k * size onwards.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray

    def terms(self, s):
        return self.vals * s.ravel()[self.cols]

    def apply(self, s, t=0.0):
        """A s + b; t is ignored, so the operator can stand in for a right-hand side."""
        flat = np.bincount(self.rows, weights=self.terms(s), minlength=self.b.size)
        return (flat if self.b.ndim == 1 else flat.reshape(self.b.shape)) + self.b


def stack_lanes(ops) -> AffineOperator:
    """One operator over a (len(ops), size) batch whose lane k steps ops[k].

    Lane k's nonzeros are offset by k * size, so the lanes may differ (a gain
    sweep) and nothing of size^2 is formed.  All ops come from one layout.
    One operator is returned as it is, to step one loop's (size,) state.
    """
    if len(ops) == 1:
        return ops[0]
    size = ops[0].b.size
    return AffineOperator(
        np.concatenate([op.rows + k * size for k, op in enumerate(ops)]),
        np.concatenate([op.cols + k * size for k, op in enumerate(ops)]),
        np.concatenate([op.vals for op in ops]),
        np.stack([op.b for op in ops]),
    )


def probe_affine(rhs, layout) -> AffineOperator:
    """Probe the affine drift-free rhs, which takes a (lanes, size) batch, into its nonzeros.

    Column j of A is rhs(e_j) - b, with b = rhs(0).  Columns whose rows
    cannot overlap share one probe vector (the column grouping of Curtis,
    Powell & Reid 1974), found in three steps that use only the map's
    linearity:

    1. Every column sits in two partitions of the flat index, its block
       j // (N m) and its residue j % (N m).  One vector per block and one
       per residue, with random weights in [1, 2) on their columns, move the
       rows their columns reach.  The rows moved by both of column j's
       vectors hold its nonzeros: its candidate rows.
    2. A first-fit colouring puts in one colour only columns with no
       candidate row in common.
    3. One vector per colour, 1 on its columns, gives each column's values
       in its candidate rows.  The nonzeros are in column-major order.

    A last vector, a fixed random state, checks the game's affine
    declaration and raises ConfigInvalid when it fails; b or a step-1 output
    that is not finite raises it at once.  The vectors are evaluated
    PROBE_CHUNK_BYTES at a time as the lanes of one rhs call, and no
    (size, size) array is formed.
    """
    size = layout.size
    width = layout.N * layout.m
    n_blocks = size // width
    rng = np.random.default_rng(0)
    check = rng.uniform(-1.0, 1.0, size)
    weights = rng.uniform(1.0, 2.0, size)
    per_call = max(1, PROBE_CHUNK_BYTES // (8 * size))
    column = np.arange(size)

    # step 1: lane 0 is the zero vector, then one lane per block and per residue
    members = np.concatenate((column, column.reshape(n_blocks, width).T.ravel()))
    starts = np.cumsum([0, 0] + [width] * n_blocks + [n_blocks] * width)
    moved = np.empty((len(starts) - 1, size), dtype=bool)
    filled = 0
    for _, _, out in _probe_calls(rhs, members, starts, weights, per_call):
        if not filled:
            b = out[0].copy()
        _require_finite(out)
        moved[filled:filled + len(out)] = out != b
        filled += len(out)
    rows, bounds = _candidates(moved[1:1 + n_blocks], moved[1 + n_blocks:])

    # step 2: first-fit colours, no two columns of a colour sharing a candidate row
    members, starts = _greedy_colours(rows, bounds)

    # step 3: one lane per colour and an empty last lane for the check state;
    # each column reads its candidate rows from its colour's lane
    vals = np.empty(rows.size)
    for here, lane, out in _probe_calls(rhs, members, np.append(starts, size), np.ones(size), per_call,
                                        last=check):
        first, count = bounds[here], bounds[here + 1] - bounds[here]
        picked = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
        at = rows[picked]
        vals[picked] = out[np.repeat(lane, count), at] - b[at]
    nonzero = vals != 0.0
    cols = np.repeat(column, np.diff(bounds))[nonzero]
    op = AffineOperator(rows[nonzero], cols, vals[nonzero], b)

    terms = op.terms(check)
    mismatch = np.abs(out[-1] - op.apply(check))
    scale = np.bincount(op.rows, weights=np.abs(terms), minlength=size) + np.abs(b)
    failed = np.flatnonzero(~(mismatch <= AFFINE_CHECK_RTOL * scale))  # NaN fails too
    if failed.size:
        row = int(failed[0])
        raise ConfigInvalid(
            f"game is declared affine but the closed loop is not affine in the state: "
            f"state row {row} is off by {mismatch[row]:.3e} at a test point "
            f"(allowed {AFFINE_CHECK_RTOL:g} x {scale[row]:.3e})"
        )
    return op


def _require_finite(out) -> None:
    """Raise ConfigInvalid when a probe output is not finite."""
    if not np.isfinite(out).all():
        row = int(np.flatnonzero(~np.isfinite(out).all(axis=0))[0])
        raise ConfigInvalid(f"the closed loop is not finite at a probe state (state row {row}): "
                            "a game, graph or gain parameter is NaN or infinite")


def _probe_calls(rhs, members, starts, values, per_call, last=None):
    """Yield (columns, their lanes, rhs output) for the probe lanes, per_call lanes a call.

    Lane k holds values[j] in the columns j = members[starts[k]:starts[k + 1]]
    and 0 elsewhere; last, when given, replaces the final lane.
    """
    n_lanes = len(starts) - 1
    lane_of = np.repeat(np.arange(n_lanes), np.diff(starts))
    for start in range(0, n_lanes, per_call):
        stop = min(start + per_call, n_lanes)
        cols = members[starts[start]:starts[stop]]
        lane = lane_of[starts[start]:starts[stop]] - start
        lanes = np.zeros((stop - start, len(values)))
        lanes[lane, cols] = values[cols]
        if last is not None and stop == n_lanes:
            lanes[-1] = last
        yield cols, lane, rhs(lanes, 0.0)


def _candidates(block_moved, residue_moved):
    """The candidate rows of every column, as rows and column bounds.

    Column j = b * width + r, of block b and residue r (width =
    len(residue_moved)), has the rows that both lanes moved,
    rows[bounds[j]:bounds[j + 1]] in increasing order.  Each block is read
    only on the rows it moved, so no (size, size) array is formed.
    """
    rows, counts = [], []
    for moved in block_moved:
        hit = np.flatnonzero(moved)
        residue, at = np.nonzero(residue_moved[:, hit])
        rows.append(hit[at])
        counts.append(np.bincount(residue, minlength=len(residue_moved)))
    bounds = np.zeros(block_moved.shape[1] + 1, dtype=np.intp)
    np.cumsum(np.concatenate(counts), out=bounds[1:])
    return np.concatenate(rows), bounds


def _greedy_colours(rows, bounds):
    """First-fit colours such that no two columns of a colour share a row, as (members, starts).

    Column j's rows are rows[bounds[j]:bounds[j + 1]]; each row keeps the
    colours already taken in it as the bits of one int.  Colour k holds
    columns members[starts[k]:starts[k + 1]].
    """
    size = len(bounds) - 1
    taken = [0] * size
    rows = memoryview(rows)
    ends = bounds.tolist()
    colours = []
    for j in range(size):
        seg = rows[ends[j]:ends[j + 1]]
        used = 0
        for r in seg:
            used |= taken[r]
        bit = ~used & (used + 1)
        for r in seg:
            taken[r] |= bit
        colour = bit.bit_length() - 1
        if colour == len(colours):
            colours.append([])
        colours[colour].append(j)
    members = np.fromiter(itertools.chain.from_iterable(colours), dtype=np.intp, count=size)
    return members, np.cumsum([0] + [len(c) for c in colours])


def _powers(y, c):
    """The j-step maps (Y_j, c_j), j = 1, 2, ..., of s <- s y + c: Y_{j+1} = Y_j y, c_{j+1} = c_j y + c."""
    y_j, c_j = y, c
    while True:
        yield y_j, c_j
        y_j, c_j = y_j @ y, c_j @ y + c


def _inf_norm(y) -> float:
    """Induced inf-norm of the row-vector map v -> v @ y: the largest column sum of |y|."""
    return float(np.max(np.abs(y).sum(axis=0)))


class FoldBlocks(NamedTuple):
    """What a ``DriftFold`` step multiplies by: the blocks its map splits into, as the entries each
    one reads and writes, and the shapes of its three stage matrices.

    Block g maps z[rows[g]] to the product's columns cols[g].  z and the
    product each end in a spare entry: a padding row reads z's, a zero, and a
    padding column writes the product's.  Probe lane r of the build carries
    row r of every block.
    """

    rows: np.ndarray  # (G, R) indices into z = [s, 1, d_1, ..., d_4, 0]
    cols: np.ndarray  # (G, C) indices into the product [s+, spare]
    stages: tuple     # (size + 1 + j q, p) for j = 1, 2, 3

    @property
    def nbytes(self) -> int:
        """The bytes a step reads, all of the (G, R, C) block stack and of the stage matrices."""
        return 8 * (self.rows.size * self.cols.shape[1] + sum(r * c for r, c in self.stages))


def _components(op: AffineOperator) -> np.ndarray:
    """Each state's connected component in the undirected graph of A's nonzeros, named by its smallest state.

    Label propagation with pointer jumping: every nonzero gives both its ends
    the smaller of their labels, then every label is replaced by its own
    label until none changes.
    """
    label = np.arange(op.b.size)
    while True:
        low = np.minimum(label[op.rows], label[op.cols])
        hooked = label.copy()
        np.minimum.at(hooked, op.rows, low)
        np.minimum.at(hooked, op.cols, low)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def eigenvalues(op: AffineOperator) -> np.ndarray:
    """The eigenvalues of A, one dense block per connected component (``_components``).

    A permutation that groups each component's states makes A block diagonal,
    so its spectrum is the union of the blocks' spectra: two blocks of 150
    states took 19.5 ms on the vehicles/output loop, where the dense 300 x 300
    A took 46 ms.  Equal blocks are solved once: the vehicle loops' two
    blocks, one per coordinate, are equal to 1.8e-15 of their largest entry.
    """
    _, comp = np.unique(_components(op), return_inverse=True)
    at = np.empty_like(comp)
    # (block, its eigenvalues): blocks equal up to the probe's rounding (1e-12 of their largest
    # entry), such as one per coordinate, share them
    out, seen = [], []
    for g in range(comp.max() + 1):
        states = np.flatnonzero(comp == g)
        at[states] = np.arange(len(states))
        mine = comp[op.rows] == g
        block = np.zeros((len(states), len(states)))
        np.add.at(block, (at[op.rows[mine]], at[op.cols[mine]]), op.vals[mine])
        eigs = next((e for b, e in seen if b.shape == block.shape
                     and np.abs(b - block).max() <= 1e-12 * np.abs(block).max()), None)
        if eigs is None:
            eigs = np.linalg.eigvals(block)
            seen.append((block, eigs))
        out.append(eigs)
    return np.concatenate(out)


def rk4_limit(eigs: np.ndarray) -> float:
    """The largest step h with RK4's |R(h lambda)| <= 1 at every eigenvalue on all of (0, h].

    R is ``_rk4_factor``.  |R(z)| > 1 beyond |z| = 2.83, so each ray is scanned
    on 256 points up to 3 / |lambda| for its first point past 1, and that
    crossing is bisected.  0.0 when an eigenvalue has no negative real part.
    The rays are scanned LIMIT_CHUNK at a time: the scan of the vehicles/output
    loop's 84 distinct modes at once took 1 MB more peak memory.
    """
    if not eigs.size or not np.all(eigs.real < 0):
        return 0.0

    def past_one(h, lam):
        return np.abs(_rk4_factor(h * lam)) > 1.0

    def bracket(eigs):  # each ray's last scan point within 1 and first past it
        grid = np.linspace(0.0, 3.0, 257)[1:] / np.abs(eigs)[:, None]
        first = np.argmax(past_one(grid, eigs[:, None]), axis=1)  # a point past 3 / |lambda| always is
        rays = np.arange(len(eigs))
        return np.where(first > 0, grid[rays, first - 1], 0.0), grid[rays, first]

    lo, hi = map(np.concatenate, zip(*(bracket(eigs[k:k + LIMIT_CHUNK]) for k in range(0, len(eigs), LIMIT_CHUNK))))
    near = lo < hi.min()  # only these rays can cross first
    eigs, lo, hi = eigs[near], lo[near], hi[near]
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        past = past_one(mid, eigs)
        lo, hi = np.where(past, lo, mid), np.where(past, mid, hi)
    return float(lo.min())


def parareal_contraction(eigs: np.ndarray, dt: float, steps, coarse) -> np.ndarray:
    """How much a Parareal pass shrinks a window start's error on s' = A s: max |R(c h lambda)^(n / c) - R(h lambda)^n|.

    A window is n steps of RK4 at h (F) or n / c steps at c h (G), and on
    a mode lambda a correction leaves F - G of the start's change (Gander &
    Vandewalle 2007).  On the vehicles-output workload it read 1.8e-5 at
    c = 8, where the second pass's gap was 1.5e-5 of the first's.  steps
    and coarse may be arrays of plans, each c a divisor of its n; the result
    has their broadcast shape.  The powers are taken as exp(k log R).
    """
    steps, coarse = (a[..., None] for a in np.broadcast_arrays(steps, coarse))
    fine = np.log(_rk4_factor(dt * eigs + 0j))
    return np.max(np.abs(np.exp(steps // coarse * np.log(_rk4_factor(coarse * dt * eigs + 0j)))
                         - np.exp(steps * fine)), axis=-1)


def _rk4_factor(z):
    """R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the factor one ``rk4_step`` of s' = lambda s takes at z = h lambda."""
    return np.polyval([1 / 24, 1 / 6, 1 / 2, 1, 1], z)


def fold_blocks(op: AffineOperator, reads: slice, writes: tuple, q: int) -> FoldBlocks:
    """The blocks of op's ``fold_drift_rk4`` map: one per connected component of A (``_components``).

    A state belongs to its own component, drift slot (j, i) to the
    components of its E rows (writes), and the constant to every block.  The
    stages multiply exact zeros between components, so the map's entries
    there are exact zeros and the blocks leave out no term.  A block's rows
    are the inputs that reach it alone, padded to the most any block has,
    then the inputs that reach more than one block, each in every block it
    reaches; its columns are its states, padded to the most any block has.
    The stack is taken when it holds fewer numbers than the whole map, else
    one block holds the whole map.  The stage matrices read the p rows of
    reads and are dense.
    """
    size = op.b.size
    width = size + 1 + 4 * q
    stages = tuple((size + 1 + j * q, reads.stop - reads.start) for j in (1, 2, 3))
    _, comp = np.unique(_components(op), return_inverse=True)
    count = comp.max() + 1
    slots = np.zeros((count, q), dtype=bool)
    for at in writes:
        slots[comp[at], np.arange(q)] = True
    reach = np.hstack([comp == np.arange(count)[:, None], np.ones((count, 1), dtype=bool), np.tile(slots, 4)])
    alone = reach.sum(axis=0) == 1
    shared = np.flatnonzero(~alone)
    rows = np.hstack([_stacked([np.flatnonzero(r & alone) for r in reach], width),
                      np.where(reach[:, shared], shared, width)])
    cols = _stacked([np.flatnonzero(comp == g) for g in range(count)], size)
    if rows.size * cols.shape[1] >= width * size:
        return FoldBlocks(np.arange(width)[None], np.arange(size)[None], stages)
    return FoldBlocks(rows, cols, stages)


def _stacked(parts: list, fill: int) -> np.ndarray:
    """The index arrays parts as the rows of one array, each padded with fill to the longest."""
    out = np.full((len(parts), max(map(len, parts))), fill)
    for g, part in enumerate(parts):
        out[g, :len(part)] = part
    return out


@dataclass(frozen=True)
class DriftFold:
    """One RK4 step of s' = A s + b + E d(P s) as products over the four stage drifts.

    P reads the chain rows a drift sees and E adds the drift where it acts.
    Every stage input u_j is affine in the state s and the earlier stage
    drifts d_i = d(P u_i), so with z = [s, 1, d_1, d_2, d_3, d_4, 0]:

    * P u_{j+1} = z[:size + 1 + j q] @ stages[j - 1] for j = 1, 2, 3, one
      product of the state, the constant and the j drifts before it;
    * the map z -> s+ gives the next state.  It is kept as the blocks of
      ``fold_blocks``: block g takes z[rows[g]] @ y[g] into the columns
      cols[g] of the product [s+, spare].

    A step reads nothing but its state, so it may start from any state.  z,
    the product and the stage inputs may carry a lane axis in front.
    """

    y: np.ndarray          # (G, R, C) block stack
    rows: np.ndarray       # (G, R) indices into z
    cols: np.ndarray       # (G, C) indices into the product [s+, spare]
    stages: tuple          # (size + 1 + j q, p) for j = 1, 2, 3

    def intervals(self, r: int, count: int) -> tuple:
        """(y, c, kappa, c_peak): count record intervals of r steps of a fold without drift slots, side by side.

        The blocks put together are the one-step map s <- s Y + c.  y = [Y_r,
        Y_r^2, ..., Y_r^count] and c = [c_r, ..., c_{count r}], so s @ y + c
        holds the count successive interval ends of s, one size-block each.
        kappa bounds the induced inf-norm of every j-step map with j <= r and
        c_peak the inf-norm of its offset, so every state the steps pass
        through to the first end lies within kappa |s|_inf + c_peak in every
        entry.  It costs r + count - 2 products of size^3 and keeps count
        size^2 arrays.
        """
        size = len(self.stages[0]) - 1  # without drift slots stages[0] reads z[:size + 1] = [s, 1]
        whole = np.zeros((size + 2, size + 1))  # z = [s, 1, 0] by the product [s+, spare]
        for y, rows, cols in zip(self.y, self.rows, self.cols):
            whole[rows[:, None], cols] = y
        kappa = c_peak = 0.0
        for y, c in itertools.islice(_powers(whole[:size, :size].copy(), whole[size, :size].copy()), r):
            kappa, c_peak = max(kappa, _inf_norm(y)), max(c_peak, float(np.max(np.abs(c))))
        ys, cs = zip(*itertools.islice(_powers(y, c), count))
        return np.hstack(ys), np.concatenate(cs), kappa, c_peak


def fold_drift_rk4(op: AffineOperator, dt: float, reads: slice, writes: tuple, q: int,
                   blocks: Optional[FoldBlocks] = None) -> DriftFold:
    """Probe one classical RK4 step of s' = A s + b + E d(P s) into a ``DriftFold`` on blocks.

    reads is the slice of the p rows that P selects; each slice in writes
    holds q rows and E adds d there; blocks is ``fold_blocks`` of the same
    arguments, found here when None; a drift-free loop has none of them, and
    z = [s, 1].  The step is ``rk4_step`` on the sparse operator plus the
    drift, with the drifts as extra inputs, so it is linear in z = [s, 1,
    d_1, ..., d_4].  It runs on probe lanes,
    PROBE_CHUNK_BYTES at a time: lane r is 1 in row r of every block and 0
    elsewhere, as an input moves no block it does not reach.  That gives the
    blocks' next states, and each input's stage inputs [P u_2, P u_3, P u_4],
    read in the block of their P rows; stage j + 1 keeps the rows of the
    inputs before d_{j+1}.  No map but the blocks is formed, and no (size,
    size) array.
    """
    size = op.b.size
    p = reads.stop - reads.start
    width = size + 1 + 4 * q
    rows, cols, _ = fold_blocks(op, reads, writes, q) if blocks is None else blocks
    y = np.empty((len(rows), rows.shape[1], cols.shape[1]))
    # lane r's input in the block of each stage-input column; padding goes to a spare last row
    block_of = np.empty(size + 1, dtype=np.intp)
    block_of[cols] = np.arange(len(cols))[:, None]
    stage_rows = rows[np.tile(block_of[reads], 3)].T
    inputs = np.zeros((width + 1, 3 * p))

    lane_ops = {}  # the operator of each chunk's lanes, by lane count

    def step(z, t):  # [s+, a spare zero, P u_2, P u_3, P u_4] of z without its spare entry
        if len(z) not in lane_ops:
            lane_ops[len(z)] = stack_lanes([op] * len(z))
        after, stage_inputs = _rk4_stages(lane_ops[len(z)], dt, reads, writes, z[:, :width])
        return np.hstack([after, np.zeros((len(z), 1)), stage_inputs])

    done = 0
    for _, _, out in _probe_calls(step, rows.T.ravel(), np.arange(0, rows.size + 1, len(rows)),
                                  np.ones(width + 1), max(1, PROBE_CHUNK_BYTES // (8 * (width + 1)))):
        y[:, done:done + len(out)] = out[:, cols].swapaxes(0, 1)
        inputs[stage_rows[done:done + len(out)], np.arange(3 * p)] = out[:, size + 1:]
        done += len(out)
    stages = tuple(np.ascontiguousarray(inputs[:size + 1 + j * q, (j - 1) * p:j * p]) for j in (1, 2, 3))
    return DriftFold(y, rows, cols, stages)


def _rk4_stages(op: AffineOperator, dt: float, reads: slice, writes: tuple, z: np.ndarray):
    """The next states of the (lanes, size + 1 + 4 q) inputs z, and their stage inputs [P u_2, P u_3, P u_4].

    op steps z's lanes (``stack_lanes`` of one loop's operator).  The step is
    ``rk4_step``'s, which evaluates its stages in order, so the right-hand
    side's j-th call is stage j: it adds z's constant times b and E d_j to
    A u_j and keeps P u_j.
    """
    size = op.b.shape[-1]
    one = z[:, size, None]
    drifts = z[:, size + 1:].reshape(len(z), 4, -1)
    inputs = []

    def rhs(u, t):
        j = len(inputs)
        inputs.append(u[:, reads])
        k = np.bincount(op.rows, weights=op.terms(u), minlength=u.size).reshape(u.shape)
        k += one * op.b
        for at in writes:
            k[:, at] += drifts[:, j]
        return k

    after = rk4_step(rhs, z[:, :size], 0.0, dt)
    return after, np.hstack(inputs[1:])
