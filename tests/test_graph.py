"""Digraph, Laplacian, and certificate tests."""

import numpy as np
import pytest

from nashseek.control import companion_matrix, lyapunov_P
from nashseek.errors import ConfigInvalid, SingularLyapunov
from nashseek.graph import (
    Digraph,
    estimation_blocks,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    estimation_certificate,
)
from nashseek.linalg import lyapunov_solve
from nashseek.scenarios import default_cycle_digraph
from nashseek.verify import random_strongly_connected_digraph
from oracles import kronecker_estimate_form


def assembled_q(cert):
    """The N^2 x N^2 Q of a certificate: entry (i*N + j, k*N + j) is q_blocks[j, i, k]."""
    n = cert.q_blocks.shape[0]
    q = np.zeros((n, n, n, n))
    idx = np.arange(n)
    q[:, idx, :, idx] = cert.q_blocks
    return q.reshape(n * n, n * n)


def two_node(a12=1.0, a21=2.0):
    return Digraph(np.array([[0.0, a12], [a21, 0.0]]))


def three_cycle():
    # node i receives from i+1 (mod 3), unit weights
    return Digraph(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))


class TestDigraphValidation:
    def test_rejects_negative_weights(self):
        for bad in (-1.0, np.nan, np.inf):  # and the non-finite ones
            with pytest.raises(ConfigInvalid):
                Digraph(np.array([[0.0, bad], [1.0, 0.0]]))

    def test_rejects_self_loops(self):
        with pytest.raises(ConfigInvalid):
            Digraph(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ConfigInvalid):
            Digraph(np.zeros((2, 3)))

    @pytest.mark.parametrize("cached", [False, True])
    def test_keeps_a_read_only_copy_of_the_weights(self, cached):
        # an edit to the caller's array, before or after in_edges is cached,
        # must not reach the graph, so the consensus incidence, the anchor
        # weights and the Laplacian stay in step
        w = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.5, 0.0, 0.0]])
        g = Digraph(w)
        if cached:
            g.in_edges
        w[0, 1] = 5.0
        assert g.weights[0, 1] == 1.0
        assert np.array_equal(g.in_edges.incidence.sum(axis=1), g.in_degrees)
        assert np.array_equal(laplacian(g), [[1.0, -1.0, 0.0], [0.0, 2.0, -2.0], [-1.5, 0.0, 1.5]])
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0

    def test_from_edge_list_one_based(self):
        g = Digraph.from_edge_list(2, [{"to": 1, "from": 2, "w": 1.0},
                                       {"to": 2, "from": 1, "w": 2.0}])
        assert np.array_equal(g.weights, two_node().weights)

    def test_from_edge_list_bad_index(self):
        with pytest.raises(ConfigInvalid):
            Digraph.from_edge_list(2, [{"to": 3, "from": 1, "w": 1.0}])
        # a fraction, a string or a bool is no index; int() would truncate or parse it
        for n, to, tail, key in [(2.9, 1, 2, "graph n"), ("2", 1, 2, "graph n"), (True, 1, 2, "graph n"),
                                 (2, 1.5, 2, "'to'"), (2, 1, 2.7, "'from'"), (2, 1, "2", "'from'")]:
            with pytest.raises(ConfigInvalid, match=f"{key} must be an integer"):
                Digraph.from_edge_list(n, [{"to": to, "from": tail, "w": 1.0}])
        with pytest.raises(ConfigInvalid, match="graph n must be at least 1"):
            Digraph.from_edge_list(-1, [])
        assert np.array_equal(Digraph.from_edge_list(2.0, [{"to": 1.0, "from": np.int64(2), "w": 1.0},
                                                           {"to": 2, "from": 1, "w": 2.0}]).weights,
                              two_node().weights)

    def test_from_edge_list_bad_record(self):
        with pytest.raises(ConfigInvalid):
            Digraph.from_edge_list(2, [{"to": 1, "w": 1.0}])


class TestLaplacian:
    def test_two_node(self):
        expected = np.array([[1.0, -1.0], [-2.0, 2.0]])
        assert np.array_equal(laplacian(two_node()), expected)

    def test_edgeless(self):
        g = Digraph(np.zeros((4, 4)))
        assert np.array_equal(laplacian(g), np.zeros((4, 4)))

    def test_three_cycle(self):
        expected = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(laplacian(three_cycle()), expected)


class TestConnectivity:
    def test_cycle_strongly_connected(self):
        assert is_strongly_connected(three_cycle())

    def test_one_way_pair_not_strongly_connected(self):
        g = Digraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not is_strongly_connected(g)

    def test_single_node(self):
        assert is_strongly_connected(Digraph(np.zeros((1, 1))))

    def test_matches_reachability_oracle(self):
        # brute-force transitive closure as the independent oracle; sizes up
        # to the 30-player formation, densities down to the edgeless graph
        rng = np.random.default_rng(5)
        outcomes = []
        for n in range(1, 31):
            for density in (0.0, 0.05, 0.15, 0.3):
                w = (rng.random((n, n)) < density).astype(float)
                np.fill_diagonal(w, 0.0)
                reach = (w > 0) | np.eye(n, dtype=bool)
                for _ in range(n):
                    reach = reach | (reach @ reach)
                expected = bool(np.all(reach & reach.T))
                assert is_strongly_connected(Digraph(w)) == expected
                outcomes.append(expected)
        assert 10 < sum(outcomes) < len(outcomes) - 10  # both answers well covered


class TestWeightBalance:
    def test_two_node_unbalanced(self):
        assert not is_weight_balanced(two_node())

    def test_equal_weight_cycle_balanced(self):
        assert is_weight_balanced(three_cycle())

    def test_symmetric_graphs_balanced(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            w = rng.random((n, n))
            w = w + w.T
            np.fill_diagonal(w, 0.0)
            assert is_weight_balanced(Digraph(w))


class TestEstimationBlockMatrix:
    def test_two_node_m_matrix(self):
        _, m = kronecker_estimate_form(two_node())
        assert np.array_equal(np.diag(m), np.array([0.0, 1.0, 2.0, 0.0]))

    def test_edgeless_m_zero(self):
        _, m = kronecker_estimate_form(Digraph(np.zeros((3, 3))))
        assert np.array_equal(m, np.zeros((9, 9)))

    def test_shapes_and_trace(self):
        rng = np.random.default_rng(21)
        g = random_strongly_connected_digraph(rng, 5)
        l_ext, m = kronecker_estimate_form(g)
        assert l_ext.shape == (25, 25) and m.shape == (25, 25)
        assert np.array_equal(m, np.diag(np.diag(m)))
        assert np.isclose(np.trace(m), g.weights.sum())

    def test_kronecker_identity_on_replicated_vectors(self):
        rng = np.random.default_rng(22)
        g = random_strongly_connected_digraph(rng, 4)
        l_ext, _ = kronecker_estimate_form(g)
        v = rng.standard_normal(4)
        stacked = np.tile(v, 4)  # 1_N kron v
        assert np.max(np.abs(l_ext @ stacked)) < 1e-12


class TestEstimationCertificate:
    def test_three_cycle_certificate(self):
        cert = estimation_certificate(three_cycle())
        assert cert.strongly_connected
        assert cert.min_sym_eigenvalue > 0
        assert cert.lyapunov_residual < 1e-8
        assert cert.passed

    def test_unbalanced_two_node_certificate(self):
        cert = estimation_certificate(two_node())
        assert cert.passed and not cert.weight_balanced

    def test_one_way_pair_flags_connectivity(self):
        cert = estimation_certificate(Digraph(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert not cert.strongly_connected
        assert cert.q_blocks is None
        assert not cert.passed

    def test_q_is_symmetric_positive_definite(self):
        cert = estimation_certificate(two_node())
        q = assembled_q(cert)
        assert np.array_equal(q, q.T)
        assert np.linalg.eigvalsh(q).min() > 0

    def test_q_solves_full_lyapunov_equation(self):
        # the block certificate against the fully assembled N^2 x N^2 equation;
        # every other graph loses all in-edges of one node, so both verdicts occur
        rng = np.random.default_rng(31)
        verdicts = set()
        for trial in range(30):
            n = int(rng.integers(2, 11))
            w = random_strongly_connected_digraph(rng, n).weights.copy()
            if trial % 2:
                w[rng.integers(n)] = 0.0
            g = Digraph(w)
            cert = estimation_certificate(g)
            l_ext, m = kronecker_estimate_form(g)
            s = l_ext + m
            assert abs(cert.min_sym_eigenvalue - np.linalg.eigvalsh(0.5 * (s + s.T)).min()) < 1e-12
            reach = np.linalg.matrix_power(np.eye(n) + (w > 0), n - 1)
            assert cert.strongly_connected == bool(np.all(reach > 0))
            assert cert.weight_balanced == bool(np.max(np.abs(l_ext.sum(axis=0))) <= 1e-12)
            if cert.strongly_connected:
                q = assembled_q(cert)
                residual = np.linalg.norm(q @ s + s.T @ q - np.eye(n * n))
                assert residual < 1e-8
                assert abs(residual - cert.lyapunov_residual) < 1e-12
                assert cert.passed == bool(np.linalg.eigvalsh(q).min() > 0)
            else:
                assert not cert.passed and cert.q_blocks is None
            verdicts.add(cert.passed)
        assert verdicts == {True, False}

    def test_residual_is_the_one_the_blocks_give(self):
        # the solver owns the residual that verify prints; it must be the
        # Frobenius norm of Q_j B_j + B_j^T Q_j - I over the blocks, bit for bit
        g = default_cycle_digraph(10)
        cert = estimation_certificate(g)
        q, b = cert.q_blocks, estimation_blocks(g)
        assert cert.lyapunov_residual == float(np.linalg.norm(q @ b + np.swapaxes(b, 1, 2) @ q - np.eye(10)))

    def test_certificate_and_lyapunov_p_assemble_no_kronecker_product(self, monkeypatch):
        def no_kron(*args):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        assert estimation_certificate(default_cycle_digraph(10)).passed
        lyapunov_P(companion_matrix([1.0, 2.0]))

    def test_n100_block_needs_log_determinant_scaling(self):
        # plain det overflows on this block, so the scaling must come from slogdet
        g = Digraph(1e3 * default_cycle_digraph(100).weights)
        block = estimation_blocks(g)[0]
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.det(block))
        q, _ = lyapunov_solve(-block)
        assert np.linalg.norm(q @ block + block.T @ q - np.eye(100)) < 1e-8
        assert np.linalg.eigvalsh(q).min() > 0

    def test_skewed_cycle_keeps_lyapunov_certificate(self):
        # A strongly skewed one-way cycle loses the bilinear-form positive
        # definiteness (negative symmetric-part eigenvalue) while remaining
        # positive stable: the Lyapunov certificate still exists.
        g = Digraph(np.array([[0.0, 1.0], [8.0, 0.0]]))
        cert = estimation_certificate(g)
        assert cert.strongly_connected
        assert cert.min_sym_eigenvalue < 0
        assert cert.lyapunov_residual < 1e-8
        assert np.linalg.eigvalsh(assembled_q(cert)).min() > 0
        assert cert.passed

    def test_single_node_is_degenerate(self):
        # L + M is the 1x1 zero matrix; the certificate cannot exist
        with pytest.raises(SingularLyapunov):
            estimation_certificate(Digraph(np.zeros((1, 1))))
