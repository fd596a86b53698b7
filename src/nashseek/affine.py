"""The affine part of the closed loop, probed once from its structured right-hand side.

Under a game declared affine everything in the loop but the plant drift is an
affine map ``s' = A s + b`` of the flat state.  ``probe_affine`` evaluates the
structured right-hand side column by column and keeps ``A`` as its nonzeros,
so a drifting loop costs one sparse matvec per RK4 stage; ``folded_rk4``
turns a drift-free loop into one dense propagator ``s <- Phi s + c``.  The
layout argument is ``sim._Layout``.
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
    the state B v it stands for.  It acts on the leading axis, so applied to
    the identity it gives the matrix B.
    """
    if not layout.output_mode:
        return None
    width = layout.N * layout.m
    x_sl = slice(layout.chain_sl.start, layout.chain_sl.start + width)
    z_sl = slice(layout.z_sl.start, layout.z_sl.start + width)

    def basis(s):
        v = s.copy()
        v[z_sl] = s[x_sl] - s[z_sl]
        return v

    return basis


# The affine declaration is checked at one fixed state: the structured
# drift-free right-hand side must match A v + b in every row to this fraction
# of sum_j |A_ij v_j| + |b_i|.  At that state both built-in games, in either
# mode, stay below 6e-16 of it, and below 8e-15 over 20 other random states;
# a cubic term 1e-6 x_i^3 added to either game's gradient exceeds it.
AFFINE_CHECK_RTOL = 1e-10


@dataclass(frozen=True)
class AffineOperator:
    """The drift-free closed loop s' = A B s + b, with A B kept as its nonzeros.

    B is the innovation basis in output mode and the identity otherwise.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    basis: Optional[Callable[[np.ndarray], np.ndarray]]

    def terms(self, s):
        v = s if self.basis is None else self.basis(s)
        return self.vals * v[self.cols]

    def apply(self, s, t=0.0):
        """A B s + b; t is ignored, so the operator can stand in for a right-hand side."""
        return np.bincount(self.rows, weights=self.terms(s), minlength=self.b.size) + self.b


def probe_affine(rhs, layout) -> AffineOperator:
    """Probe the affine drift-free rhs column by column into its nonzeros.

    b = rhs(0) and column j of A B is rhs(B e_j) - b, with one reused unit
    vector e_j, so nothing of size^2 is formed.  This costs size + 1 rhs
    evaluations, and one more at a fixed non-basis state checks the game's
    affine declaration (ConfigInvalid when it fails).
    """
    size = layout.size
    basis = innovation_basis(layout)

    def at(v):
        return rhs(v if basis is None else basis(v), 0.0)

    b = at(np.zeros(size))
    rows, cols, vals = [], [], []
    unit = np.zeros(size)
    for j in range(size):
        unit[j] = 1.0
        column = at(unit) - b
        unit[j] = 0.0
        nz = np.flatnonzero(column)
        rows.append(nz)
        cols.append(np.full(nz.size, j))
        vals.append(column[nz])
    op = AffineOperator(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), b, basis)

    s = np.random.default_rng(0).uniform(-1.0, 1.0, size)
    terms = op.terms(s)
    mismatch = np.abs(rhs(s, 0.0) - op.apply(s))
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


def folded_rk4(rhs, layout, dt: float):
    """step(s, t): one classical RK4 step of an affine rhs, folded into Phi s + c.

    The map s' = A s + b comes from ``probe_affine``.  With M = dt A, RK4
    gives Phi = I + M + M^2/2 + M^3/6 + M^4/24 and
    c = dt (I + M/2 + M^2/6 + M^3/24) b.  Building it costs size + 2 rhs
    evaluations and O(size^3); a step costs one O(size^2) matvec.  In output
    mode the step reads the innovation basis, Phi B v with v = B s.
    """
    op = probe_affine(rhs, layout)
    eye = np.eye(layout.size)
    a_basis = np.zeros_like(eye)  # A B
    a_basis[op.rows, op.cols] = op.vals
    if op.basis is None:
        basis, a = eye, a_basis
    else:
        basis = op.basis(eye)
        a = a_basis @ basis  # B is its own inverse
    m = dt * a
    taylor = eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0  # I + M/2 + M^2/6 + M^3/24
    c = dt * (taylor @ op.b)
    if op.basis is None:
        phi = eye + taylor @ m
        return lambda s, t: phi @ s + c
    phi_basis = basis + taylor @ (dt * a_basis)
    return lambda s, t: phi_basis @ op.basis(s) + c
