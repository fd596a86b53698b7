"""Weighted digraphs, Laplacians, and the certificates behind the estimate dynamics.

Conventions: entry ``weights[i, j]`` is the weight a_ij of edge (i, j), meaning
node i receives information from node j.  In-degree of i is the i-th row sum,
out-degree the i-th column sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, SingularLyapunov
from .linalg import is_symmetric_positive_definite, lyapunov_solve

WEIGHT_BALANCE_TOL = 1e-12


class InEdges(NamedTuple):
    """The positive-weight edges of a digraph, in row-major order of the weights.

    Edge e carries information from tails[e] to heads[e]; incidence is the
    (N, E) matrix with incidence[heads[e], e] = a_{heads[e], tails[e]} and
    zeros elsewhere, so ``incidence @ v`` sums weighted per-edge values into
    their receiving nodes.
    """

    heads: np.ndarray
    tails: np.ndarray
    incidence: np.ndarray


@dataclass(frozen=True)
class Digraph:
    """Weighted directed graph on nodes 0..N-1 with no self loops.

    The weights are read once for ``in_edges``; do not modify them in place.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ConfigInvalid(f"adjacency matrix must be square, got shape {w.shape}")
        if np.any(w < 0):
            raise ConfigInvalid("edge weights must be nonnegative")
        if np.any(np.diag(w) != 0):
            raise ConfigInvalid("self loops are not allowed (diagonal must be zero)")

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def in_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @property
    def out_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=0)

    @cached_property
    def in_edges(self) -> InEdges:
        heads, tails = np.nonzero(self.weights > 0)
        incidence = np.zeros((self.n_nodes, heads.size))
        incidence[heads, np.arange(heads.size)] = self.weights[heads, tails]
        return InEdges(heads, tails, incidence)

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "Digraph":
        """Build from 1-based edge records {"to": i, "from": j, "w": a_ij}."""
        w = np.zeros((n, n))
        for e in edges:
            try:
                i, j, a = int(e["to"]), int(e["from"]), float(e["w"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigInvalid(f"bad edge record {e!r}: {exc}") from exc
            if not (1 <= i <= n and 1 <= j <= n):
                raise ConfigInvalid(f"edge ({i},{j}) outside 1..{n}")
            w[i - 1, j - 1] = a
        return cls(w)


@dataclass
class GraphCertificate:
    """Result of the positive-definiteness / Lyapunov check on a digraph.

    min_sym_eigenvalue is the smallest eigenvalue of the symmetric part of
    L_ext + M, i.e. the bilinear-form notion of positive definiteness.  That
    is strictly stronger than what the estimate dynamics need: convergence
    rests on positive stability, certified by the Lyapunov solution Q.  Long
    weight-skewed directed cycles can have a negative symmetric-part
    eigenvalue while Q exists with a tiny residual, so ``passed`` gates on the
    Lyapunov certificate and reports the eigenvalue as a diagnostic.
    """

    laplacian: np.ndarray
    strongly_connected: bool
    weight_balanced: bool
    min_sym_eigenvalue: float
    lyapunov_Q: np.ndarray | None = None
    lyapunov_residual: float = field(default=float("inf"))

    @property
    def passed(self) -> bool:
        return (
            self.strongly_connected
            and self.lyapunov_Q is not None
            and self.lyapunov_residual < 1e-8
        )


def laplacian(g: Digraph) -> np.ndarray:
    """In-degree Laplacian L = D_in - A (rows sum to zero)."""
    return np.diag(g.in_degrees) - g.weights


def is_strongly_connected(g: Digraph) -> bool:
    """True when node 0 reaches every node and every node reaches node 0."""
    adj = g.weights > 0

    def reaches_all(step: np.ndarray) -> bool:
        seen = np.zeros(g.n_nodes, dtype=bool)
        frontier = seen.copy()
        frontier[0] = True
        while frontier.any():
            seen |= frontier
            frontier = step[frontier].any(axis=0) & ~seen
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def is_weight_balanced(g: Digraph) -> bool:
    """True when every node's weighted in-degree equals its out-degree."""
    return bool(np.max(np.abs(g.in_degrees - g.out_degrees)) <= WEIGHT_BALANCE_TOL)


def estimation_block_matrix(g: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """Return (L kron I_N, M) driving the stacked estimate dynamics.

    Stacking is row-major over (estimating player i, estimated player j), so
    M is diagonal with blocks M_i = diag(a_i1, ..., a_iN).
    """
    n = g.n_nodes
    l_ext = np.kron(laplacian(g), np.eye(n))
    m = np.diag(g.weights.ravel())
    return l_ext, m


def estimation_certificate(g: Digraph) -> GraphCertificate:
    """Certify the matrix S = L_ext + M that drives the stacked estimate dynamics.

    Reports the smallest eigenvalue of (S + S^T)/2 (the bilinear-form
    positive-definiteness diagnostic) and solves the Lyapunov equation
    Q S + S^T Q = I by dense vectorization; S block-decouples over the
    estimated-player index (block j is L + diag of column j of A), which keeps
    the vectorized solves at N^2 unknowns each.  The residual is evaluated
    against the full assembled equation.

    Raises SingularLyapunov when the solve is singular despite strong
    connectivity (possible only for degenerate graphs, e.g. a single node).
    """
    lap = laplacian(g)
    connected = is_strongly_connected(g)
    balanced = is_weight_balanced(g)
    l_ext, m = estimation_block_matrix(g)
    s = l_ext + m
    min_eig = float(np.linalg.eigvalsh(0.5 * (s + s.T)).min())

    if not connected:
        return GraphCertificate(lap, False, balanced, min_eig)

    n = g.n_nodes
    q = np.zeros_like(s)
    eye_n = np.eye(n)
    for j in range(n):
        block = lap + np.diag(g.weights[:, j])
        q_block = lyapunov_solve(block, eye_n)
        idx = j + n * np.arange(n)
        q[np.ix_(idx, idx)] = q_block
    residual = float(np.linalg.norm(q @ s + s.T @ q - np.eye(n * n)))
    if not np.isfinite(residual):
        raise SingularLyapunov("Lyapunov residual is non-finite")
    q = 0.5 * (q + q.T)
    if not is_symmetric_positive_definite(q):
        raise SingularLyapunov("Lyapunov solution is not positive definite")
    return GraphCertificate(lap, True, balanced, min_eig, q, residual)
