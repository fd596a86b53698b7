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

from .errors import ConfigInvalid, finite, integer
from .linalg import lyapunov_solve

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

    weights is a read-only float copy of the array given, so ``in_edges``
    and every other reading of it stay in step.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ConfigInvalid(f"adjacency matrix must be square, got shape {w.shape}")
        if not np.all((w >= 0) & (w < np.inf)):  # false for NaN too
            raise ConfigInvalid("edge weights must be finite and nonnegative")
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
        """Build from 1-based edge records {"to": i, "from": j, "w": a_ij}.

        n, to and from must be integers (a float only without a fraction).
        """
        n = integer(n, "graph n", 1)
        w = np.zeros((n, n))
        for e in edges:
            try:
                i = integer(e["to"], f"edge {e!r}: 'to'", 1)
                j = integer(e["from"], f"edge {e!r}: 'from'", 1)
                a = e["w"]
            except (KeyError, TypeError) as exc:
                raise ConfigInvalid(f"bad edge record {e!r}: {exc}") from exc
            if not (i <= n and j <= n):
                raise ConfigInvalid(f"edge ({i},{j}) outside 1..{n}")
            if finite(a, f"edge ({i},{j}) weight") < 0:
                raise ConfigInvalid(f"edge ({i},{j}) weight must be nonnegative, got {a}")
            w[i - 1, j - 1] = a
        return cls(w)


@dataclass
class GraphCertificate:
    """Result of the positive-definiteness / Lyapunov check on a digraph.

    Stack the N^2 estimates row-major over (estimating player i, estimated
    player j), so estimate (i, j) is entry i*N + j.  The estimate dynamics
    are then driven by S = L_ext + M with L_ext = L kron I_N and M the
    diagonal matrix of the weights in the same order, M[i*N + j, i*N + j] =
    a_ij.  min_sym_eigenvalue is the smallest eigenvalue of the symmetric
    part of S, i.e. the bilinear-form notion of positive definiteness.  That
    is strictly stronger than what the estimate dynamics need: convergence
    rests on positive stability, certified by the Lyapunov solution Q.  Long
    weight-skewed directed cycles can have a negative symmetric-part
    eigenvalue while Q exists with a tiny residual, so ``passed`` gates on the
    Lyapunov certificate and reports the eigenvalue as a diagnostic.

    Both are computed block by block (see ``estimation_certificate``).
    q_blocks is the (N, N, N) stack of the blocks Q_j of the N^2 x N^2
    solution Q of Q S + S^T Q = I: entry (i*N + j, k*N + j) of Q is
    q_blocks[j, i, k] and every other entry is zero.  lyapunov_residual is
    the Frobenius norm of that equation's residual.
    """

    laplacian: np.ndarray
    strongly_connected: bool
    weight_balanced: bool
    min_sym_eigenvalue: float
    q_blocks: np.ndarray | None = None
    lyapunov_residual: float = field(default=float("inf"))

    @property
    def passed(self) -> bool:
        return (
            self.strongly_connected
            and self.q_blocks is not None
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


def estimation_blocks(g: Digraph) -> np.ndarray:
    """The (N, N, N) stack of blocks B_j = L + diag(a_1j, ..., a_Nj).

    S = L_ext + M maps row (i, j) to column (k, j) only, with entry B_j[i, k],
    so S is a permutation of blockdiag_j(B_j): the estimates of player j
    evolve under B_j alone.
    """
    n = g.n_nodes
    blocks = np.repeat(laplacian(g)[None], n, axis=0)
    idx = np.arange(n)
    blocks[:, idx, idx] += g.weights.T
    return blocks


def estimation_certificate(g: Digraph) -> GraphCertificate:
    """Certify the matrix S = L_ext + M that drives the stacked estimate dynamics.

    S block-decouples over the estimated-player index j into the N x N blocks
    B_j of ``estimation_blocks``, so every quantity is computed per block:
    the smallest eigenvalue of (S + S^T)/2 (the bilinear-form
    positive-definiteness diagnostic) is the minimum over one batched
    ``eigvalsh`` of the blocks' symmetric parts; Q_j solves
    Q_j B_j + B_j^T Q_j = I through one batched sign-function solve
    (``linalg.lyapunov_solve`` on -B_j), which also certifies every Q_j
    (finite, positive definite) and returns the Frobenius norm of the
    residual of Q S + S^T Q = I over the blocks.  This function only keeps
    the books.  The cost is O(N^4), and Q is kept as its (N, N, N) blocks.

    Raises SingularLyapunov when the solve fails despite strong connectivity
    (possible only for degenerate graphs, e.g. a single node).
    """
    lap = laplacian(g)
    connected = is_strongly_connected(g)
    balanced = is_weight_balanced(g)
    blocks = estimation_blocks(g)
    sym = 0.5 * (blocks + np.swapaxes(blocks, 1, 2))
    min_eig = float(np.linalg.eigvalsh(sym).min())

    if not connected:
        return GraphCertificate(lap, False, balanced, min_eig)
    q_blocks, residual = lyapunov_solve(-blocks)
    return GraphCertificate(lap, True, balanced, min_eig, q_blocks, residual)
