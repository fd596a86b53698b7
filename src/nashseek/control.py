"""Gain synthesis and the two distributed seeking laws.

The state-feedback law drives each player's n-th order chain with its own
derivative states; the output-feedback law replaces those derivatives with a
high-gain observer chain reconstructed from the decision (output) alone.  Both
share the auxiliary integrator y and the consensus estimate dynamics.

This module never sees the plant drift or its hidden parameters: every
operation takes measured states, estimates, and an externally evaluated
gradient.  Per-player functions define the laws exactly as written; the
``stacked_*`` variants are the vectorized equivalents.  The integrator's
right-hand side is built from the ``stacked_*`` forms alone, and they are
cross-checked against the per-player forms in the test suite.

The stacked forms also broadcast over leading lane axes, so one call serves a
batch of loops: a chain of levels is (n, ..., N, m) with the level axis
first, and every other argument is (..., N, m) or (..., N, N, m).
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigInvalid, DimensionMismatch, EmptyGains, NotHurwitz, SingularLyapunov
from .graph import Digraph
from .linalg import is_symmetric_positive_definite, lyapunov_solve

LYAPUNOV_P_TOL = 1e-10


def default_hurwitz_gains(n: int) -> np.ndarray:
    """Coefficients k_1..k_{n-1} of (s+1)^{n-1}, constant term first.

    All chain roots sit at -1; returns an empty vector for n = 1 where the
    feedback sums are empty.
    """
    if n < 1:
        raise ConfigInvalid(f"plant order must be >= 1, got {n}")
    return np.array([math.comb(n - 1, n - l) for l in range(1, n)], dtype=float)


def default_observer_gains(n: int) -> np.ndarray:
    """Coefficients beta_1..beta_n of (s+1)^n (all observer roots at -1)."""
    if n < 1:
        raise ConfigInvalid(f"plant order must be >= 1, got {n}")
    return np.array([math.comb(n, l) for l in range(1, n + 1)], dtype=float)


def companion_matrix(k) -> np.ndarray:
    """Companion matrix of s^{n-1} + k_{n-1} s^{n-2} + ... + k_1.

    Top block [0 | I], bottom row (-k_1, ..., -k_{n-1}).
    """
    k = np.asarray(k, dtype=float)
    if k.size == 0:
        raise EmptyGains("companion matrix needs at least one coefficient (n >= 2)")
    p = k.size
    a = np.zeros((p, p))
    if p > 1:
        a[:-1, 1:] = np.eye(p - 1)
    a[-1, :] = -k
    return a


def _monic_from_gains(k) -> np.ndarray:
    """Leading-first coefficient vector [1, k_{n-1}, ..., k_1]."""
    k = np.asarray(k, dtype=float)
    return np.concatenate([[1.0], k[::-1]])


def routh_hurwitz_stable(coeffs) -> bool:
    """True iff the polynomial (leading coefficient first) has all roots in the open LHP.

    Boundary cases are rejected: a zero or non-finite coefficient, or a zero
    first-column entry or pivot in the Routh array, reports not stable.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient vector must be non-empty and 1-D")
    if c[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if c[0] < 0:
        c = -c
    if not 0 < c.min() <= c.max() < np.inf:  # false for NaN too
        return False  # necessary condition for a Hurwitz polynomial
    if c.size == 1:
        return True  # constant polynomial, no roots
    width = (c.size + 1) // 2
    row_prev = np.zeros(width + 1)
    row_cur = np.zeros(width + 1)
    row_prev[: len(c[0::2])] = c[0::2]
    row_cur[: len(c[1::2])] = c[1::2]
    for _ in range(c.size - 2):
        pivot = row_cur[0]
        if pivot == 0:
            return False
        nxt = (pivot * row_prev[1:] - row_prev[0] * row_cur[1:]) / pivot
        row_prev = row_cur
        row_cur = np.append(nxt, 0.0)
        if row_cur[0] <= 0:
            return False
    return True


def lyapunov_P(a: np.ndarray) -> np.ndarray:
    """Solve P A + A^T P = -I for the symmetric positive definite P.

    Uses the sign-function solver of ``linalg.lyapunov_solve``.  Raises
    NotHurwitz when that solve fails (a singular iterate, or an iteration that
    does not reach sign(A) = -I), the residual exceeds 1e-10, or P fails the
    Cholesky test (all symptoms of a matrix with closed-right-half-plane
    eigenvalues).
    """
    a = np.asarray(a, dtype=float)
    try:
        p = lyapunov_solve(a)
    except SingularLyapunov as exc:
        raise NotHurwitz(f"Lyapunov solve failed: {exc}") from exc
    residual = float(np.linalg.norm(p @ a + a.T @ p + np.eye(a.shape[0])))
    if not np.isfinite(residual) or residual >= LYAPUNOV_P_TOL:
        raise NotHurwitz(f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_P_TOL}")
    if not is_symmetric_positive_definite(p):
        raise NotHurwitz("Lyapunov solution is not positive definite")
    return p


@dataclass(frozen=True)
class GainSet:
    """Feedback gains: chain coefficients k, time-scale epsilon, loop gains alpha."""

    order_n: int
    k: tuple
    epsilon: float
    alpha1: float
    alpha2: float
    alpha3: float
    check: InitVar[bool] = True

    def __post_init__(self, check):
        object.__setattr__(self, "k", tuple(float(v) for v in np.atleast_1d(np.asarray(self.k, dtype=float)).ravel()))
        if not check:
            return
        if self.order_n < 1:
            raise ConfigInvalid(f"plant order must be >= 1, got {self.order_n}")
        if len(self.k) != self.order_n - 1:
            raise ConfigInvalid(
                f"expected {self.order_n - 1} chain coefficients for order {self.order_n}, got {len(self.k)}"
            )
        for name in ("epsilon", "alpha1", "alpha2", "alpha3"):
            if not 0 < getattr(self, name) < math.inf:  # false for NaN too
                raise ConfigInvalid(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.order_n >= 2 and not routh_hurwitz_stable(_monic_from_gains(self.k)):
            raise ConfigInvalid(f"chain polynomial with k={self.k} is not Hurwitz")


@dataclass(frozen=True)
class ObserverSet:
    """High-gain observer coefficients beta_1..beta_n and time constant mu."""

    beta: tuple
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(v) for v in np.atleast_1d(np.asarray(self.beta, dtype=float)).ravel()))
        if not 0 < self.mu < math.inf:
            raise ConfigInvalid(f"mu must be finite and positive, got {self.mu}")
        if len(self.beta) < 1:
            raise ConfigInvalid("observer needs at least one coefficient")
        coeffs = np.concatenate([[1.0], np.asarray(self.beta)])
        if not routh_hurwitz_stable(coeffs):
            raise ConfigInvalid(f"observer polynomial with beta={self.beta} is not Hurwitz")


@dataclass
class SeekerState:
    """Per-player controller state: auxiliary y, estimate matrix, observer chain."""

    y: np.ndarray
    x_hat: np.ndarray
    z_chain: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.x_hat = np.asarray(self.x_hat, dtype=float)
        if self.x_hat.ndim != 2 or self.x_hat.shape[1] != self.y.shape[0]:
            raise DimensionMismatch(
                f"estimate matrix shape {self.x_hat.shape} inconsistent with y of dim {self.y.shape}"
            )
        if self.z_chain is not None:
            self.z_chain = np.asarray(self.z_chain, dtype=float)
            if self.z_chain.ndim != 2 or self.z_chain.shape[1] != self.y.shape[0]:
                raise DimensionMismatch(f"observer chain shape {self.z_chain.shape} inconsistent")


@dataclass(frozen=True)
class GainOrderingReport:
    """Advisory check of the strict ordering eps^{n-1} < alpha2 < alpha1 < eps^n."""

    lower: float
    upper: float
    lower_lt_alpha2: bool
    alpha2_lt_alpha1: bool
    alpha1_lt_upper: bool
    warning: str | None

    @property
    def passed(self) -> bool:
        return self.lower_lt_alpha2 and self.alpha2_lt_alpha1 and self.alpha1_lt_upper


def check_gain_ordering(gains: GainSet) -> GainOrderingReport:
    """Evaluate the sufficient-ordering inequalities; never blocks a run."""
    lower = gains.epsilon ** (gains.order_n - 1)
    upper = gains.epsilon ** gains.order_n
    c1 = lower < gains.alpha2
    c2 = gains.alpha2 < gains.alpha1
    c3 = gains.alpha1 < upper
    warning = None
    if not (c1 and c2 and c3):
        parts = []
        if not c1:
            parts.append(f"eps^(n-1)={lower:g} >= alpha2={gains.alpha2:g}")
        if not c2:
            parts.append(f"alpha2={gains.alpha2:g} >= alpha1={gains.alpha1:g}")
        if not c3:
            parts.append(f"alpha1={gains.alpha1:g} >= eps^n={upper:g}")
        warning = (
            "gain ordering eps^(n-1) < alpha2 < alpha1 < eps^n violated ("
            + "; ".join(parts)
            + "); the condition is sufficient only, proceeding"
        )
    return GainOrderingReport(lower, upper, c1, c2, c3, warning)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The weights are memoised per (frozen, hashable) gain and observer set, so the
# stacked laws can recompute them on every right-hand-side evaluation for the
# price of a dictionary lookup.  Cached arrays are read-only because every
# caller receives the same objects.
@functools.lru_cache(maxsize=256)
def feedback_weights(gains: GainSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-level weights of the feedback and auxiliary sums plus the scaled alpha1.

    Returns (w_u, w_y, a1s) with w_u[l-1] = eps^{n-l} k_l, w_y[l-1] = eps^{1-l} k_l
    and a1s = alpha1 / eps^{n-1}.  The arrays are read-only.
    """
    n, eps = gains.order_n, gains.epsilon
    k = np.asarray(gains.k)
    levels = np.arange(1, n)
    w_u = eps ** (n - levels) * k
    w_y = eps ** (1.0 - levels) * k
    return _read_only(w_u), _read_only(w_y), gains.alpha1 / eps ** (n - 1)


@functools.lru_cache(maxsize=256)
def observer_weights(gains: GainSet, obs: ObserverSet) -> np.ndarray:
    """Innovation weights eps^l beta_l / mu^l for l = 1..n (a read-only array)."""
    n, eps = gains.order_n, gains.epsilon
    beta = np.asarray(obs.beta)
    if beta.size != n:
        raise DimensionMismatch(f"observer needs {n} coefficients, got {beta.size}")
    levels = np.arange(1, n + 1)
    return _read_only(eps ** levels * beta / obs.mu ** levels)


# ---------------------------------------------------------------------------
# Stacked (all players at once) forms; the integrator's right-hand side.


def stacked_control_input(derivative_levels: np.ndarray, grads: np.ndarray,
                          y: np.ndarray, gains: GainSet) -> np.ndarray:
    """u for all players: derivative_levels has rows x^(1)..x^(n-1) (or the z versions)."""
    w_u, _, _ = feedback_weights(gains)
    u = -gains.alpha1 * grads - gains.alpha2 * y
    if w_u.size:
        u = u - np.tensordot(w_u, derivative_levels, axes=1)
    return u


def stacked_aux_rate(derivative_levels: np.ndarray, grads: np.ndarray,
                     gains: GainSet) -> np.ndarray:
    """dy/dt for all players."""
    _, w_y, a1s = feedback_weights(gains)
    dy = a1s * grads
    if w_y.size:
        dy = dy + np.tensordot(w_y, derivative_levels, axes=1)
    return dy


def stacked_estimate_rate(x_hat: np.ndarray, x: np.ndarray, g: Digraph,
                          alpha3: float) -> np.ndarray:
    """Estimate dynamics for the full (..., N, N, m) tensor of estimates.

    Axis -3 is the estimating player i, axis -2 the estimated player j, and
    x is (..., N, m).  The consensus term gathers x_hat[head] - x_hat[tail]
    over the E in-edges and scatters the weighted differences to their heads
    with one (N, E) incidence matmul per lane, O(E N m).  Both terms are formed
    from explicit differences so that a consensus state (every row of x_hat
    equal to x) maps to an exactly zero rate.
    """
    edges = g.in_edges
    n_players, m = x_hat.shape[-2:]
    diffs = x_hat[..., edges.heads, :, :] - x_hat[..., edges.tails, :, :]
    consensus = edges.incidence @ diffs.reshape(diffs.shape[:-2] + (n_players * m,))
    anchor = g.weights[:, :, None] * (x_hat - x[..., None, :, :])
    return -alpha3 * (consensus.reshape(x_hat.shape) + anchor)


def stacked_observer_rate(z_chain: np.ndarray, outputs: np.ndarray,
                          gains: GainSet, obs: ObserverSet) -> np.ndarray:
    """Observer chain derivatives for the (n, ..., N, m) stacked chain."""
    w_z = observer_weights(gains, obs)
    innovation = outputs - z_chain[0]
    dz = np.empty_like(z_chain)
    if z_chain.shape[0] > 1:
        dz[:-1] = z_chain[1:] + np.multiply.outer(w_z[:-1], innovation)
    dz[-1] = w_z[-1] * innovation
    return dz


# ---------------------------------------------------------------------------
# Per-player forms.


def _estimate_rate_single(i: int, x_hat_i: np.ndarray, neighbor_data,
                          g: Digraph, alpha3: float) -> np.ndarray:
    row = g.weights[i]
    rate = np.zeros_like(x_hat_i)
    for k in np.nonzero(row > 0)[0]:
        try:
            est_k, x_k = neighbor_data[k]
        except KeyError as exc:
            raise DimensionMismatch(f"missing in-neighbor {k} of player {i}") from exc
        est_k = np.asarray(est_k, dtype=float)
        x_k = np.asarray(x_k, dtype=float)
        if est_k.shape != x_hat_i.shape:
            raise DimensionMismatch(
                f"neighbor {k} estimate shape {est_k.shape} != {x_hat_i.shape}"
            )
        rate += row[k] * (x_hat_i - est_k)
        rate[k] += row[k] * (x_hat_i[k] - x_k)
    return -alpha3 * rate


def state_feedback_rhs(i: int, plant_state: np.ndarray, seeker: SeekerState,
                       grad_i: np.ndarray, neighbor_data, gains: GainSet,
                       g: Digraph):
    """State-feedback law for player i.

    plant_state rows are (x_i, x_i^(1), ..., x_i^(n-1)); grad_i is the player's
    own cost gradient evaluated at (x_i, current estimates).  Returns
    (u_i, dy_i, dx_hat_i).
    """
    plant_state = np.asarray(plant_state, dtype=float)
    if plant_state.shape != (gains.order_n, seeker.y.shape[0]):
        raise DimensionMismatch(
            f"plant state shape {plant_state.shape} != ({gains.order_n}, {seeker.y.shape[0]})"
        )
    grad_i = np.asarray(grad_i, dtype=float)
    w_u, w_y, a1s = feedback_weights(gains)
    derivs = plant_state[1:]
    u = -w_u @ derivs - gains.alpha1 * grad_i - gains.alpha2 * seeker.y
    dy = w_y @ derivs + a1s * grad_i
    dx_hat = _estimate_rate_single(i, seeker.x_hat, neighbor_data, g, gains.alpha3)
    return u, dy, dx_hat


def output_feedback_rhs(i: int, output_x_i: np.ndarray, seeker: SeekerState,
                        grad_i: np.ndarray, neighbor_data, gains: GainSet,
                        obs: ObserverSet, g: Digraph):
    """Output-feedback law for player i; sees only the decision x_i, never its derivatives.

    Returns (u_i, dy_i, dz_chain_i, dx_hat_i).
    """
    if seeker.z_chain is None:
        raise DimensionMismatch("output feedback requires an observer chain in the seeker state")
    output_x_i = np.asarray(output_x_i, dtype=float)
    z = seeker.z_chain
    if z.shape != (gains.order_n, output_x_i.shape[0]):
        raise DimensionMismatch(
            f"observer chain shape {z.shape} != ({gains.order_n}, {output_x_i.shape[0]})"
        )
    grad_i = np.asarray(grad_i, dtype=float)
    w_u, w_y, a1s = feedback_weights(gains)
    w_z = observer_weights(gains, obs)
    derivs = z[1:]
    u = -w_u @ derivs - gains.alpha1 * grad_i - gains.alpha2 * seeker.y
    dy = w_y @ derivs + a1s * grad_i
    innovation = output_x_i - z[0]
    dz = np.empty_like(z)
    if z.shape[0] > 1:
        dz[:-1] = z[1:] + w_z[:-1, None] * innovation[None, :]
    dz[-1] = w_z[-1] * innovation
    dx_hat = _estimate_rate_single(i, seeker.x_hat, neighbor_data, g, gains.alpha3)
    return u, dy, dz, dx_hat
