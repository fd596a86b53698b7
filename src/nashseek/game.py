"""Cost gradients, the stacked pseudo-gradient, and an independent equilibrium solver.

A game is supplied as one vectorized ``profile_gradient``: every player's
own-cost gradient, each at the profile as that player sees it.  A
``cost_oracle`` is used only for finite-difference validation of the
gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NoConvergence

CostOracle = Callable[[int, np.ndarray], float]
ProfileGradient = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Game:
    """N-player game over R^m decisions, described through its gradients.

    profile_gradient maps an (N, N, m) tensor whose row i is the full profile
    as seen by player i to the (N, m) matrix of own-gradients: row i is the
    gradient of player i's cost in its own decision, evaluated at row i of
    the tensor alone.  It must also broadcast over leading axes,
    (..., N, N, m) -> (..., N, m), because the simulator evaluates a batch of
    loops in one call.

    affine declares that profile_gradient is affine in the profiles, as it is
    for quadratic costs.  The simulator then probes the drift-free part of
    the loop once into one sparse linear map; it checks that map against the
    right-hand side at one fixed state and raises ConfigInvalid when a
    declared game is not affine.
    """

    n_players: int
    decision_dim: int
    profile_gradient: ProfileGradient
    cost_oracle: Optional[CostOracle] = None
    affine: bool = False


@dataclass(frozen=True)
class MonotonicityReport:
    """Empirical strong-monotonicity and Lipschitz bounds from paired sampling."""

    omega_hat: float
    theta_hat: float


def _check_profile_dim(game: Game, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    want = game.n_players * game.decision_dim
    if x.shape != (want,):
        raise DimensionMismatch(f"profile must have shape ({want},), got {x.shape}")
    return x


def gradient_matrix(game: Game, profiles: np.ndarray) -> np.ndarray:
    """Own-gradients of all players, row i evaluated at profile row profiles[i].

    profiles has shape (..., N, N, m): profiles[..., i, j, :] is what player i
    uses as player j's decision, and the result is (..., N, m).
    """
    return game.profile_gradient(profiles)


def pseudo_gradient(game: Game, x: np.ndarray) -> np.ndarray:
    """Stacked own-gradients evaluated at the true decision profile."""
    x = _check_profile_dim(game, x)
    n, m = game.n_players, game.decision_dim
    x_mat = x.reshape(n, m)
    profiles = np.broadcast_to(x_mat, (n, n, m))
    return gradient_matrix(game, profiles).reshape(-1)


def extended_pseudo_gradient(game: Game, x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Own-gradients with each player at its own decision and its estimates of the others.

    x is (..., N, m) and x_hat (..., N, N, m), row i of x_hat holding player
    i's estimates of every player; its own entry x_hat[..., i, i, :] is
    replaced by the true x_i.  Returns (..., N, m).
    """
    n, m = game.n_players, game.decision_dim
    x, x_hat = np.asarray(x, dtype=float), np.asarray(x_hat, dtype=float)
    if x.shape[-2:] != (n, m) or x_hat.shape[-3:] != (n, n, m):
        raise DimensionMismatch(f"decisions and estimates must end in {(n, m)} and {(n, n, m)}, "
                                f"got {x.shape} and {x_hat.shape}")
    profiles = x_hat.copy()
    idx = np.arange(n)
    profiles[..., idx, idx, :] = x
    return gradient_matrix(game, profiles)


def _fd_jacobian(game: Game, x: np.ndarray) -> np.ndarray:
    dim = x.size
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    jac = np.empty((dim, dim))
    for j in range(dim):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (pseudo_gradient(game, xp) - pseudo_gradient(game, xm)) / (2 * h)
    return jac


def nash_solve(game: Game, x0, tol: float, max_iters: int = 200,
               max_halvings: int = 40) -> np.ndarray:
    """Find the zero of the pseudo-gradient by damped Newton iteration.

    Backtracking halves the step while the pseudo-gradient norm does not
    decrease; when a Newton direction stalls entirely the iteration falls back
    to an explicit pseudo-gradient-flow step.  This solver is the independent
    reference used to judge the closed-loop simulations.

    Raises NoConvergence after the iteration budget, which for well-posed
    inputs signals a game without a strongly monotone pseudo-gradient.
    """
    x = _check_profile_dim(game, x0).copy()
    f = pseudo_gradient(game, x)
    for _ in range(max_iters):
        if np.max(np.abs(f)) <= tol:
            return x
        try:
            step = np.linalg.solve(_fd_jacobian(game, x), -f)
        except np.linalg.LinAlgError:
            step = -f
        norm0 = np.linalg.norm(f)
        improved = False
        for trial_step in (step, -f):  # Newton direction, then gradient-flow fallback
            scale = 1.0
            for _ in range(max_halvings + 1):
                candidate = x + scale * trial_step
                f_candidate = pseudo_gradient(game, candidate)
                if np.linalg.norm(f_candidate) < norm0:
                    x, f = candidate, f_candidate
                    improved = True
                    break
                scale *= 0.5
            if improved:
                break
        if not improved:
            raise NoConvergence("Newton and gradient-flow steps both stalled")
    if np.max(np.abs(f)) <= tol:
        return x
    raise NoConvergence(f"no convergence to tol={tol:g} within {max_iters} iterations")


def probe_monotonicity(game: Game, rng, n_samples: int = 2000,
                       box: tuple = (-10.0, 10.0)) -> MonotonicityReport:
    """Sample point pairs to bound the monotonicity and Lipschitz moduli.

    omega_hat is the smallest observed (x-y)^T (F(x)-F(y)) / ||x-y||^2 and
    theta_hat the largest observed ||F(x)-F(y)|| / ||x-y||.  Coincident pairs
    are skipped.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dim = game.n_players * game.decision_dim
    lo, hi = box
    omega = np.inf
    theta = 0.0
    for _ in range(n_samples):
        x = rng.uniform(lo, hi, dim)
        y = rng.uniform(lo, hi, dim)
        d = x - y
        dd = float(d @ d)
        if dd < 1e-24:
            continue
        df = pseudo_gradient(game, x) - pseudo_gradient(game, y)
        omega = min(omega, float(d @ df) / dd)
        theta = max(theta, float(np.linalg.norm(df)) / np.sqrt(dd))
    return MonotonicityReport(float(omega), float(theta))


def gradient_consistency(game: Game, rng, n_points: int = 50,
                         box: tuple = (-10.0, 10.0), step_scale: float = 1e-6) -> float:
    """Worst relative gap between the profile gradient and central differences of the cost.

    The per-component relative error uses a unit floor so that near-zero
    gradient components do not inflate the ratio.
    """
    if game.cost_oracle is None:
        raise ValueError("gradient_consistency requires a cost oracle")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n, m = game.n_players, game.decision_dim
    lo, hi = box
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(lo, hi, n * m)
        grads = pseudo_gradient(game, x).reshape(n, m)
        h = step_scale * max(1.0, float(np.linalg.norm(x)))
        for i in range(n):
            for c in range(m):
                xp = x.copy()
                xm = x.copy()
                xp[i * m + c] += h
                xm[i * m + c] -= h
                fd = (game.cost_oracle(i, xp) - game.cost_oracle(i, xm)) / (2 * h)
                err = abs(fd - grads[i, c]) / max(1.0, abs(grads[i, c]))
                worst = max(worst, err)
    return worst
