"""The affine part of the closed loop, probed once from its structured right-hand side.

Under a game declared affine everything in the loop but the plant drift is an
affine map ``s' = A s + b`` of the flat state.  ``probe_affine`` evaluates the
structured right-hand side on groups of columns whose rows cannot overlap, a
chunk of groups at a time as the lanes of one batched call, and keeps ``A`` as
its nonzeros, so a drifting loop costs one sparse matvec per RK4 stage.  At
N = 30 that is 215 lanes and about 25 ms; at N = 10, 75 lanes and 2.4 ms.
``stack_lanes`` puts the operators of a batch of loops side by side over a
``(lanes, size)`` state, each lane with its own nonzeros.  ``folded_rk4``
turns a drift-free loop into one dense ``Propagator``, ``s <- Phi s + c``;
``Propagator.intervals`` folds record intervals of r such steps each and puts
their maps side by side, so one product gives the ends of all of them, with a
bound on every state the steps pass through on the way to the first end.
``fold_drift_rk4`` folds an RK4 step of a drifting loop around its drift: the
drift reads only the chain rows and adds only to the top level (and at n = 1
in output mode to e_0'), so each stage input is affine in the state and the
earlier stage drifts, and one product ``[s, 1, d_1, ..., d_4] @ y``
(``DriftFold``) gives the next state and its drift-free stage inputs.  It is
probed by running the sparse RK4 stages on unit vectors, about 10 ms at
N = 10.  The layout argument is ``sim._Layout``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Propagator:
    """s <- s Y + c: a folded RK4 step, or several, of a (size,) state or a (lanes, size) batch.

    Every state the steps pass through lies within kappa |s|_inf + c_peak in
    every entry: kappa bounds the induced inf-norm of each j-step map and
    c_peak the inf-norm of its offset c_j.  An ``intervals`` propagator holds
    several record-interval maps side by side and bounds the steps to its
    first end.
    """

    y: np.ndarray
    c: np.ndarray
    kappa: float
    c_peak: float

    def __call__(self, s, t=0.0):
        """The propagated state; t is ignored, so a one-step propagator is a step(s, t)."""
        return s @ self.y + self.c

    def intervals(self, r: int, count: int) -> "Propagator":
        """count record intervals of r steps of this one-step propagator side by side, as one product.

        y = [Y_r, Y_r^2, ..., Y_r^count] and c = [c_r, ..., c_{count r}], so
        s @ y + c holds the count successive interval ends of s, one
        size-block each.  kappa and c_peak are taken over every j-step map
        and offset with j <= r, so they bound the steps to the first end.  It
        costs r + count - 2 products of size^3 and keeps count size^2 arrays.
        """
        kappa = c_peak = 0.0
        for y, c in itertools.islice(_powers(self.y, self.c), r):
            kappa, c_peak = max(kappa, _inf_norm(y)), max(c_peak, float(np.max(np.abs(c))))
        ys, cs = zip(*itertools.islice(_powers(y, c), count))
        return Propagator(np.hstack(ys), np.concatenate(cs), kappa, c_peak)


def _powers(y, c):
    """The j-step maps (Y_j, c_j), j = 1, 2, ..., of s <- s y + c: Y_{j+1} = Y_j y, c_{j+1} = c_j y + c."""
    y_j, c_j = y, c
    while True:
        yield y_j, c_j
        y_j, c_j = y_j @ y, c_j @ y + c


def _inf_norm(y) -> float:
    """Induced inf-norm of the row-vector map v -> v @ y: the largest column sum of |y|."""
    return float(np.max(np.abs(y).sum(axis=0)))


@dataclass(frozen=True)
class DriftFold:
    """One RK4 step of s' = A s + b + E d(P s) as products over the four stage drifts.

    P reads the chain rows a drift sees and E adds the drift where it acts.
    Every stage input u_j is affine in the state s and the earlier stage
    drifts d_i = d(P u_i), so with z = [s, 1, d_1, d_2, d_3, d_4]:

    * ``z @ y`` = [s+, w_2, w_3, w_4], the next state and its drift-free
      stage inputs w_j = P u_j(s+) at zero drift;
    * P u_j = w_j + [d_1 ... d_{j-1}] @ couplings[j - 2], so the stage
      inputs of a step come from its own drifts and the previous product;
    * ``[s, 1] @ start`` = [w_2, w_3, w_4] of s, to begin from any state.

    z, y and the stage inputs may carry a lane axis in front.
    """

    y: np.ndarray          # (size + 1 + 4 q, size + 3 p)
    couplings: tuple       # ((j - 1) q, p) for j = 2, 3, 4
    start: np.ndarray      # (size + 1, 3 p)


def fold_drift_rk4(op: AffineOperator, dt: float, reads: slice, writes: tuple, q: int) -> DriftFold:
    """Probe one classical RK4 step of s' = A s + b + E d(P s) into a ``DriftFold``.

    reads is the slice of the p rows that P selects; each slice in writes
    holds q rows and E adds d there.  The step's stages are the ones
    ``rk4_step`` takes on the sparse operator plus the drift, with the
    drifts as extra inputs, so they are linear in z = [s, 1, d_1, ..., d_4].
    They run on the unit vectors of z, PROBE_CHUNK_BYTES at a time as lanes,
    which gives y's next states, start and the couplings; y's stage inputs
    are then [s+, 1] @ start.  No (size, size) array is formed but y's own
    block.
    """
    size = op.b.size
    p = reads.stop - reads.start
    width = size + 1 + 4 * q
    y = np.empty((width, size + 3 * p))
    inputs = np.empty((width, 3 * p))
    unit = np.arange(width)
    per_call = max(1, PROBE_CHUNK_BYTES // (8 * width))
    for cols, _, out in _probe_calls(lambda z, t: np.hstack(_rk4_stages(op, dt, reads, writes, z)),
                                     unit, np.append(unit, width), np.ones(width), per_call):
        y[cols, :size], inputs[cols] = out[:, :size], out[:, size:]
    start, couplings = inputs[:size + 1], inputs[size + 1:]
    y[:, size:] = y[:, :size] @ start[:size]
    y[size, size:] += start[size]  # the constant's row: its next state keeps the 1
    # stage j + 1 reads the drifts of the j stages before it
    return DriftFold(y, tuple(np.ascontiguousarray(couplings[:j * q, (j - 1) * p:j * p]) for j in (1, 2, 3)),
                     start)


def _rk4_stages(op: AffineOperator, dt: float, reads: slice, writes: tuple, z: np.ndarray):
    """The next states of the (lanes, size + 1 + 4 q) inputs z, and their stage inputs [P u_2, P u_3, P u_4].

    Stage j adds z's constant times b and E d_j to A u_j; the arithmetic is
    ``rk4_step``'s.
    """
    size = op.b.size
    lanes = len(z)
    s, one = z[:, :size], z[:, size, None]
    drifts = z[:, size + 1:].reshape(lanes, 4, -1)
    offsets = (size * np.arange(lanes))[:, None]
    rows, cols = (op.rows + offsets).ravel(), (op.cols + offsets).ravel()
    vals = np.tile(op.vals, lanes)

    def rhs(u, j):
        k = np.bincount(rows, weights=vals * u.take(cols), minlength=u.size).reshape(u.shape)
        k += one * op.b
        for at in writes:
            k[:, at] += drifts[:, j]
        return k

    k1 = rhs(s, 0)
    u2 = s + 0.5 * dt * k1
    k2 = rhs(u2, 1)
    u3 = s + 0.5 * dt * k2
    k3 = rhs(u3, 2)
    u4 = s + dt * k3
    k4 = rhs(u4, 3)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), np.hstack([u[:, reads] for u in (u2, u3, u4)])


def folded_rk4(op: AffineOperator, dt: float) -> Propagator:
    """One classical RK4 step of the probed s' = A s + b, folded into s <- Phi s + c.

    With M = dt A, RK4 gives Phi = I + M + M^2/2 + M^3/6 + M^4/24 and
    c = dt (I + M/2 + M^2/6 + M^3/24) b.  Building it costs O(size^3); a step
    costs one O(size^2) product, s @ Phi^T, so s may be one state or a
    (lanes, size) batch of loops that share the operator.
    ``Propagator.intervals`` folds several such steps into one product.
    """
    eye = np.eye(op.b.size)
    m = np.zeros_like(eye)
    m[op.rows, op.cols] = dt * op.vals
    taylor = eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0  # I + M/2 + M^2/6 + M^3/24
    c = dt * (taylor @ op.b)
    y = (eye + taylor @ m).T  # Phi^T = (I + (I + M/2 + M^2/6 + M^3/24) M)^T
    return Propagator(y, c, _inf_norm(y), float(np.max(np.abs(c))))
