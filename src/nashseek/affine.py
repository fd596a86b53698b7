"""The affine part of the closed loop, probed once from its structured right-hand side.

Under a game declared affine everything in the loop but the plant drift is an
affine map ``s' = A s + b`` of the flat state.  ``probe_affine`` evaluates the
structured right-hand side on unit columns, a chunk of them at a time as the
lanes of one batched call, and keeps ``A`` as its nonzeros, so a drifting loop
costs one sparse matvec per RK4 stage.  ``stack_lanes`` puts the operators of
a batch of loops side by side over a ``(lanes, size)`` state, each lane with
its own nonzeros.  ``folded_rk4`` turns a drift-free loop into one dense
propagator ``s <- Phi s + c``.  The layout argument is ``sim._Layout``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigInvalid


def innovation_basis(layout):
    """v = B s, the state with z_0 replaced by the innovation x - z_0; None in state mode.

    The observer law reads only that innovation, and its weights reach
    (eps/mu)^n = 1.6e9 on the turbine loop, so a matrix that multiplied x and
    z_0 separately before they cancel lost about 5e-11 relative per step.  B
    is its own inverse, so the same map also takes a probe vector v back to
    the state B v it stands for.  It acts on the last axis, so it maps a
    (lanes, size) batch row by row, and applied to the identity it gives the
    matrix B^T.
    """
    if not layout.output_mode:
        return None
    width = layout.N * layout.m
    x_sl = slice(layout.chain_sl.start, layout.chain_sl.start + width)
    z_sl = slice(layout.z_sl.start, layout.z_sl.start + width)

    def basis(s):
        v = s.copy()
        v[..., z_sl] = s[..., x_sl] - s[..., z_sl]
        return v

    return basis


# The affine declaration is checked at one fixed state: the structured
# drift-free right-hand side must match A v + b in every row to this fraction
# of sum_j |A_ij v_j| + |b_i|.  At that state both built-in games, in either
# mode, stay below 6e-16 of it, and below 8e-15 over 20 other random states;
# a cubic term 1e-6 x_i^3 added to either game's gradient exceeds it.
AFFINE_CHECK_RTOL = 1e-10

# The probe evaluates its unit columns as the lanes of one structured call,
# as many lanes as keep that (lanes, size) array within this many bytes.  The
# arrays inside the call reach about ten times it.  At N = 10 (size 260, 9
# calls) the probe takes 2 ms where one call per column took 28 ms, and 256
# KB chunks took as long with 2 MB more peak memory.  At N = 30 and 50 the
# probe's arithmetic dominates, and chunks from 32 KB to 2 MB probe equally
# fast while 2 MB chunks add 15 MB of peak memory.
PROBE_CHUNK_BYTES = 2 ** 16


@dataclass(frozen=True)
class AffineOperator:
    """The drift-free closed loop s' = A B s + b, with A B kept as its nonzeros.

    b has the shape of the state it maps: (size,) for one loop, or
    (lanes, size) for a batch from ``stack_lanes``.  rows and cols index the
    flattened state, so lane k's entries sit at k * size onwards.  B is the
    innovation basis in output mode and the identity otherwise.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    basis: Optional[Callable[[np.ndarray], np.ndarray]]

    def terms(self, s):
        v = s if self.basis is None else self.basis(s)
        return self.vals * v.ravel()[self.cols]

    def apply(self, s, t=0.0):
        """A B s + b; t is ignored, so the operator can stand in for a right-hand side."""
        flat = np.bincount(self.rows, weights=self.terms(s), minlength=self.b.size)
        return (flat if self.b.ndim == 1 else flat.reshape(self.b.shape)) + self.b


def stack_lanes(ops) -> AffineOperator:
    """One operator over a (len(ops), size) batch whose lane k steps ops[k].

    Lane k's nonzeros are offset by k * size, so the lanes may differ (a gain
    sweep) and nothing of size^2 is formed.  All ops come from one layout.
    """
    size = ops[0].b.size
    return AffineOperator(
        np.concatenate([op.rows + k * size for k, op in enumerate(ops)]),
        np.concatenate([op.cols + k * size for k, op in enumerate(ops)]),
        np.concatenate([op.vals for op in ops]),
        np.stack([op.b for op in ops]),
        ops[0].basis,
    )


def probe_affine(rhs, layout) -> AffineOperator:
    """Probe the affine drift-free rhs, which takes a (lanes, size) batch, into its nonzeros.

    The probe vectors are 0, giving b, then B e_j for every column j, giving
    column j of A B as rhs(B e_j) - b, then a fixed non-basis state that
    checks the game's affine declaration (ConfigInvalid when it fails).  They
    are evaluated PROBE_CHUNK_BYTES at a time as the lanes of one rhs call, so
    nothing of size^2 is formed.
    """
    size = layout.size
    basis = innovation_basis(layout)
    check = np.random.default_rng(0).uniform(-1.0, 1.0, size)
    n_probes = size + 2  # 0, e_0 .. e_{size-1}, the check state
    per_call = max(1, PROBE_CHUNK_BYTES // (8 * size))
    rows, cols, vals = [], [], []
    b = None
    for start in range(0, n_probes, per_call):
        stop = min(start + per_call, n_probes)
        # probe p is e_{p-1} for 1 <= p <= size; the slice skips the 0 and check lanes
        lanes = np.zeros((stop - start, size))
        units = np.arange(max(start, 1), min(stop, size + 1))
        lanes[units - start, units - 1] = 1.0
        if basis is not None:
            lanes = basis(lanes)
        if stop == n_probes:
            lanes[-1] = check
        out = rhs(lanes, 0.0)
        if b is None:
            b = out[0].copy()
        columns = out[units - start] - b
        lane, row = np.nonzero(columns)
        rows.append(row)
        cols.append(units[lane] - 1)
        vals.append(columns[lane, row])
    op = AffineOperator(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), b, basis)

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


def folded_rk4(op: AffineOperator, dt: float):
    """step(s, t): one classical RK4 step of the probed s' = A s + b, folded into Phi s + c.

    With M = dt A, RK4 gives Phi = I + M + M^2/2 + M^3/6 + M^4/24 and
    c = dt (I + M/2 + M^2/6 + M^3/24) b.  Building it costs O(size^3); a step
    costs one O(size^2) product, s @ Phi^T, so s may be one state or a
    (lanes, size) batch of loops that share the operator.  In output mode the
    step reads the innovation basis, Phi B v with v = B s.
    """
    eye = np.eye(op.b.size)
    a_basis = np.zeros_like(eye)  # A B
    a_basis[op.rows, op.cols] = op.vals
    if op.basis is None:
        basis, a = eye, a_basis
    else:
        basis = op.basis(eye).T
        a = a_basis @ basis  # B is its own inverse
    m = dt * a
    taylor = eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0  # I + M/2 + M^2/6 + M^3/24
    c = dt * (taylor @ op.b)
    if op.basis is None:
        phi_t = (eye + taylor @ m).T
        return lambda s, t: s @ phi_t + c
    phi_basis_t = (basis + taylor @ (dt * a_basis)).T
    return lambda s, t: op.basis(s) @ phi_basis_t + c
