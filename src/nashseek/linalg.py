"""Small dense linear-algebra helpers used by the certificate checks.

The Lyapunov solver is the matrix-sign-function iteration of Roberts (1980,
Int. J. Control) with determinant scaling, as in Benner & Quintana-Orti (1999,
Numer. Algorithms).  It works on a stack of matrices at once and needs only
batched ``inv`` and ``slogdet``: O(n^3) per matrix and iteration, against the
O(n^6) of a dense Kronecker-vectorized solve.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularLyapunov

LYAPUNOV_MAX_ITER = 50
# Inside this distance of -I the Newton sign iteration contracts quadratically,
# so an error that stops falling there has hit round-off.
_SIGN_BASIN = 0.1


def lyapunov_solve(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve X A + A^T X = -I for each Hurwitz matrix A of a stack (..., n, n).

    The iteration A <- (A/c + c A^-1)/2, X <- (X/c + c A^-T X A^-1)/2 from
    X = I drives A to sign(A) = -I and X to 2 X_*, with c = |det A|^(1/n) per
    matrix taken from ``slogdet``, because plain ``det`` overflows on large
    blocks (n = 100 with weights near 1e3).  It stops when the largest
    ||A + I||_F reaches round-off.

    This is the one certificate of a solution: it returns the symmetric
    stack X with the Frobenius norm of X A + A^T X + I over the whole stack,
    having checked that the norm is finite and every X positive definite
    (one batched Cholesky).  A caller only bounds the residual.

    Raises SingularLyapunov when an iterate is singular or non-finite, when the
    error stops falling above round-off, when the iteration cap is reached
    (A has an eigenvalue off the open left half-plane, so sign(A) != -I), or
    when the solution fails either check.
    """
    a0 = np.array(a, dtype=float)
    n = a0.shape[-1]
    if a0.ndim < 2 or a0.shape[-2] != n:
        raise ValueError(f"lyapunov_solve expects a stack of square matrices, got {a0.shape}")
    eye = np.eye(n)
    a, x = a0, np.broadcast_to(eye, a0.shape).copy()
    tol = 100.0 * n * np.finfo(float).eps
    err_prev = np.inf
    for _ in range(LYAPUNOV_MAX_ITER):
        _, logdet = np.linalg.slogdet(a)
        if not np.all(np.isfinite(logdet)):
            raise SingularLyapunov("sign iteration met a singular matrix")
        c = np.exp(logdet / n)[..., None, None]
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise SingularLyapunov(f"sign iteration met a singular matrix: {exc}") from exc
        x = 0.5 * (x / c + c * (np.swapaxes(inv, -1, -2) @ x @ inv))
        a = 0.5 * (a / c + c * inv)
        err = float(np.max(np.linalg.norm(a + eye, axis=(-2, -1))))
        if not np.isfinite(err):
            raise SingularLyapunov("sign iteration produced non-finite entries")
        if err <= tol:
            x = 0.25 * (x + np.swapaxes(x, -1, -2))
            # a non-finite entry of x makes the residual non-finite too
            residual = float(np.linalg.norm(x @ a0 + np.swapaxes(a0, -1, -2) @ x + eye))
            if not np.isfinite(residual):
                raise SingularLyapunov("sign iteration produced non-finite entries")
            try:
                np.linalg.cholesky(x)
            except np.linalg.LinAlgError as exc:
                raise SingularLyapunov("Lyapunov solution is not positive definite") from exc
            return x, residual
        if err_prev < _SIGN_BASIN and err >= err_prev:
            raise SingularLyapunov(f"sign iteration stalled at ||A + I|| = {err:.3e}")
        err_prev = err
    raise SingularLyapunov(
        f"sign iteration did not reach -I in {LYAPUNOV_MAX_ITER} steps "
        f"(||A + I|| = {err:.3e}): the matrix is not Hurwitz")
