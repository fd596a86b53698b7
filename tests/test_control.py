"""Gain machinery and seeking-law tests."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import nashseek.control as control
from nashseek.control import (
    GainSet,
    ObserverSet,
    SeekerState,
    check_gain_ordering,
    companion_matrix,
    default_hurwitz_gains,
    default_observer_gains,
    feedback_weights,
    lyapunov_P,
    output_feedback_rhs,
    routh_hurwitz_stable,
    stacked_aux_rate,
    stacked_control_input,
    stacked_estimate_rate,
    stacked_observer_rate,
    state_feedback_rhs,
)
from nashseek.errors import ConfigInvalid, DimensionMismatch, EmptyGains, NotHurwitz
from nashseek.graph import Digraph
from nashseek.verify import random_strongly_connected_digraph


class TestDefaultGains:
    def test_n2(self):
        assert np.array_equal(default_hurwitz_gains(2), [1.0])

    def test_n4_binomials(self):
        assert np.array_equal(default_hurwitz_gains(4), [1.0, 3.0, 3.0])

    def test_n1_empty(self):
        assert default_hurwitz_gains(1).size == 0

    def test_observer_defaults(self):
        assert np.array_equal(default_observer_gains(2), [2.0, 1.0])
        assert np.array_equal(default_observer_gains(4), [4.0, 6.0, 4.0, 1.0])

    def test_defaults_place_all_roots_at_minus_one(self):
        # repeated eigenvalues of a defective companion are ill-conditioned,
        # so check the (well-conditioned) characteristic polynomial instead
        for n in range(2, 9):
            a = companion_matrix(default_hurwitz_gains(n))
            binomial = [float(math.comb(n - 1, j)) for j in range(n)]
            assert np.allclose(np.poly(a), binomial, atol=1e-9)
            assert np.allclose(np.linalg.eigvals(a), -1.0, atol=1e-2)


class TestCompanionMatrix:
    def test_scalar_case(self):
        assert np.array_equal(companion_matrix([1.0]), [[-1.0]])

    def test_two_by_two(self):
        a = companion_matrix([2.0, 3.0])
        assert np.array_equal(a, [[0.0, 1.0], [-2.0, -3.0]])
        assert np.allclose(sorted(np.linalg.eigvals(a).real), [-2.0, -1.0], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyGains):
            companion_matrix([])


class TestRouthHurwitz:
    def test_known_stable(self):
        assert routh_hurwitz_stable([1.0, 3.0, 2.0])  # roots -1, -2

    def test_rhp_root(self):
        assert not routh_hurwitz_stable([1.0, -1.0])  # root +1

    def test_imaginary_axis_rejected(self):
        assert not routh_hurwitz_stable([1.0, 0.0, 1.0])
        assert not routh_hurwitz_stable([1.0, 1.0, 1.0, 1.0])  # (s+1)(s^2+1)

    def test_constant_polynomial(self):
        assert routh_hurwitz_stable([5.0])

    def test_negative_leading_normalized(self):
        assert routh_hurwitz_stable([-1.0, -3.0, -2.0])

    def test_zero_leading_invalid(self):
        with pytest.raises(ValueError):
            routh_hurwitz_stable([0.0, 1.0])

    @pytest.mark.parametrize("coeffs", [
        [1.0, np.nan], [np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, 3.0, -np.inf], [np.nan], [np.inf]])
    def test_non_finite_coefficient_not_stable(self, coeffs):
        assert not routh_hurwitz_stable(coeffs)

    def test_against_root_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 80:
            degree = int(rng.integers(1, 7))
            coeffs = rng.uniform(-2, 2, degree + 1)
            if abs(coeffs[0]) < 1e-3:
                continue
            max_real = np.max(np.roots(coeffs).real) if degree else -1.0
            if abs(max_real) < 1e-6:
                continue  # ambiguous near the boundary
            assert routh_hurwitz_stable(coeffs) == (max_real < 0)
            checked += 1


class TestLyapunovP:
    def test_scalar(self):
        assert np.allclose(lyapunov_P(np.array([[-1.0]])), [[0.5]])

    def test_two_by_two_residual(self):
        a = companion_matrix([2.0, 3.0])
        p = lyapunov_P(a)
        assert np.array_equal(p, p.T)
        assert np.linalg.norm(p @ a + a.T @ p + np.eye(2)) < 1e-10
        assert np.linalg.eigvalsh(p).min() > 0

    def test_not_hurwitz_scalar(self):
        with pytest.raises(NotHurwitz):
            lyapunov_P(np.array([[1.0]]))

    def test_imaginary_axis_matrix(self):
        with pytest.raises(NotHurwitz):
            lyapunov_P(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_default_companions_certified(self):
        for n in range(2, 9):
            a = companion_matrix(default_hurwitz_gains(n))
            p = lyapunov_P(a)
            assert np.linalg.norm(p @ a + a.T @ p + np.eye(n - 1)) < 1e-10

    @pytest.mark.parametrize("a", [
        -companion_matrix(default_hurwitz_gains(5)),  # every eigenvalue at +1
        np.diag([-1.0, 2.0]),
        np.array([[0.1, 5.0], [-5.0, 0.1]]),
    ])
    def test_unstable_matrix_raises_instead_of_returning_p(self, a):
        # P A + A^T P = -I is solvable here (P indefinite or negative definite),
        # but the sign iteration converges to sign(A) != -I and must not return it
        with pytest.raises(NotHurwitz):
            lyapunov_P(a)


class TestGainSetValidation:
    def test_valid_set(self):
        GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)

    def test_non_hurwitz_k_rejected(self):
        with pytest.raises(ConfigInvalid):
            GainSet(2, (-1.0,), 2.0, 3.0, 2.2, 18.0)

    def test_wrong_k_length(self):
        with pytest.raises(ConfigInvalid):
            GainSet(3, (1.0,), 2.0, 3.0, 2.2, 18.0)

    def test_nonpositive_alpha(self):
        with pytest.raises(ConfigInvalid):
            GainSet(2, (1.0,), 2.0, -3.0, 2.2, 18.0)

    @pytest.mark.parametrize("name", ["epsilon", "alpha1", "alpha2", "alpha3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    def test_scalar_must_be_finite_positive(self, name, value):
        values = {"epsilon": 2.0, "alpha1": 3.0, "alpha2": 2.2, "alpha3": 18.0, name: value}
        with pytest.raises(ConfigInvalid, match=f"^{name} must be finite and positive"):
            GainSet(2, (1.0,), **values)

    def test_nan_k_rejected(self):
        with pytest.raises(ConfigInvalid, match="not Hurwitz"):
            GainSet(2, (np.nan,), 2.0, 3.0, 2.2, 18.0)

    def test_order_one_empty_k(self):
        GainSet(1, (), 2.0, 1.8, 1.5, 5.0)

    def test_unchecked_path_for_experiments(self):
        g = GainSet(2, (0.0,), 1.0, 0.0, 0.0, 0.0, check=False)
        assert g.alpha1 == 0.0

    def test_observer_validation(self):
        ObserverSet((2.0, 1.0), 0.02)
        with pytest.raises(ConfigInvalid):
            ObserverSet((2.0, 1.0), -0.1)
        with pytest.raises(ConfigInvalid):
            ObserverSet((-1.0, 1.0), 0.02)
        with pytest.raises(ConfigInvalid, match="^mu must be finite and positive"):
            ObserverSet((2.0, 1.0), np.nan)
        with pytest.raises(ConfigInvalid, match="not Hurwitz"):
            ObserverSet((np.nan, 1.0), 0.02)


class TestGainOrdering:
    def test_passing_window(self):
        report = check_gain_ordering(GainSet(4, (1.0, 3.0, 3.0), 2.0, 14.0, 10.0, 1.0))
        assert report.passed and report.warning is None
        assert report.lower == 8.0 and report.upper == 16.0

    def test_large_epsilon_violates(self):
        report = check_gain_ordering(GainSet(4, (1.0, 3.0, 3.0), 20.0, 500.0, 400.0, 400.0))
        assert not report.passed
        assert not report.lower_lt_alpha2  # eps^3 = 8000 > alpha2 = 400
        assert "violated" in report.warning

    def test_order_one_bounds(self):
        report = check_gain_ordering(GainSet(1, (), 2.0, 1.8, 1.5, 5.0))
        assert report.lower == 1.0 and report.upper == 2.0
        assert report.passed


def vehicle_like_gains():
    return GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)


class TestStateFeedbackLaw:
    def test_hand_substitution(self):
        # n=2, k1=1, eps=2: u = -2 v - 3 g - 2.2 y and dy = v + 1.5 g
        gains = vehicle_like_gains()
        rng = np.random.default_rng(0)
        v, grad, y = rng.standard_normal((3, 2))
        x = rng.standard_normal(2)
        seeker = SeekerState(y=y, x_hat=np.zeros((3, 2)))
        g = Digraph(np.zeros((3, 3)))
        u, dy, _ = state_feedback_rhs(0, np.stack([x, v]), seeker, grad, {}, gains, g)
        assert np.allclose(u, -2.0 * v - 3.0 * grad - 2.2 * y)
        assert np.allclose(dy, v + 1.5 * grad)

    def test_all_zero_inputs_give_zero_rates(self):
        gains = vehicle_like_gains()
        g = Digraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
        seeker = SeekerState(y=np.zeros(2), x_hat=np.zeros((2, 2)))
        zeros = {k: (np.zeros((2, 2)), np.zeros(2)) for k in range(2)}
        u, dy, dxh = state_feedback_rhs(0, np.zeros((2, 2)), seeker, np.zeros(2), zeros, gains, g)
        assert not u.any() and not dy.any() and not dxh.any()

    def test_estimate_anchor_hand_case(self):
        # two players, only edge a_12 = 1, alpha3 = 1; player 1 estimates
        # player 2 at 1 while player 2 holds 0 and estimates itself at 0
        gains = GainSet(2, (1.0,), 1.0, 1.0, 1.0, 1.0)
        g = Digraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        x_hat_1 = np.array([[0.0], [1.0]])
        neighbor = {1: (np.array([[0.0], [0.0]]), np.array([0.0]))}
        seeker = SeekerState(y=np.zeros(1), x_hat=x_hat_1)
        _, _, dxh = state_feedback_rhs(0, np.zeros((2, 1)), seeker, np.zeros(1), neighbor, gains, g)
        assert np.allclose(dxh, [[0.0], [-2.0]])

    def test_missing_neighbor_raises(self):
        gains = vehicle_like_gains()
        g = Digraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
        seeker = SeekerState(y=np.zeros(2), x_hat=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            state_feedback_rhs(0, np.zeros((2, 2)), seeker, np.zeros(2), {}, gains, g)

    def test_wrong_plant_state_shape(self):
        gains = vehicle_like_gains()
        g = Digraph(np.zeros((2, 2)))
        seeker = SeekerState(y=np.zeros(2), x_hat=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            state_feedback_rhs(0, np.zeros((3, 2)), seeker, np.zeros(2), {}, gains, g)


class TestOutputFeedbackLaw:
    def test_observer_innovation_weights(self):
        # n=2, eps=2, beta=(2,1), mu=0.02: dz0 = z1 + 200 (x - z0)
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        rng = np.random.default_rng(1)
        x, z0, z1 = rng.standard_normal((3, 2))
        seeker = SeekerState(y=np.zeros(2), x_hat=np.zeros((1, 2)), z_chain=np.stack([z0, z1]))
        g = Digraph(np.zeros((1, 1)))
        _, _, dz, _ = output_feedback_rhs(0, x, seeker, np.zeros(2), {}, gains, obs, g)
        assert np.allclose(dz[0], z1 + 200.0 * (x - z0))
        assert np.allclose(dz[1], (4.0 * 1.0 / 0.02 ** 2) * (x - z0))

    def test_observer_at_rest_on_truth(self):
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        x = np.array([1.5, -0.5])
        y = np.array([0.3, 0.1])
        grad = np.array([0.2, -0.4])
        seeker = SeekerState(y=y, x_hat=np.zeros((1, 2)),
                             z_chain=np.stack([x, np.zeros(2)]))
        g = Digraph(np.zeros((1, 1)))
        u, dy, dz, _ = output_feedback_rhs(0, x, seeker, grad, {}, gains, obs, g)
        assert not dz.any()
        assert np.allclose(u, -3.0 * grad - 2.2 * y)

    def test_structural_identity_with_state_law(self):
        # when the observer chain equals the true chain, u coincides
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        rng = np.random.default_rng(2)
        chain = rng.standard_normal((2, 2))
        y = rng.standard_normal(2)
        grad = rng.standard_normal(2)
        g = Digraph(np.zeros((1, 1)))
        seeker_s = SeekerState(y=y, x_hat=np.zeros((1, 2)))
        seeker_o = SeekerState(y=y, x_hat=np.zeros((1, 2)), z_chain=chain.copy())
        u_s, dy_s, _ = state_feedback_rhs(0, chain, seeker_s, grad, {}, gains, g)
        u_o, dy_o, _, _ = output_feedback_rhs(0, chain[0], seeker_o, grad, {}, gains, obs, g)
        assert np.array_equal(u_s, u_o)
        assert np.array_equal(dy_s, dy_o)

    def test_requires_observer_chain(self):
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        seeker = SeekerState(y=np.zeros(2), x_hat=np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            output_feedback_rhs(0, np.zeros(2), seeker, np.zeros(2), {}, gains, obs,
                                Digraph(np.zeros((1, 1))))


class TestStackedForms:
    def test_consensus_is_exact_fixed_point(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_strongly_connected_digraph(rng, n)
            x = rng.standard_normal((n, 2))
            x_hat = np.broadcast_to(x, (n, n, 2)).copy()
            rate = stacked_estimate_rate(x_hat, x, g, alpha3=18.0)
            assert not rate.any()  # exactly zero, not merely small

    def test_stacked_matches_per_player(self):
        rng = np.random.default_rng(4)
        n, m, order = 4, 2, 3
        g = random_strongly_connected_digraph(rng, n)
        gains = GainSet(order, tuple(default_hurwitz_gains(order)), 1.7, 2.5, 1.9, 7.0)
        obs = ObserverSet(tuple(default_observer_gains(order)), 0.05)
        chains = rng.standard_normal((order, n, m))
        z = rng.standard_normal((order, n, m))
        y = rng.standard_normal((n, m))
        x_hat = rng.standard_normal((n, n, m))
        grads = rng.standard_normal((n, m))
        x = chains[0]

        u_stack = stacked_control_input(chains[1:], grads, y, gains)
        dy_stack = stacked_aux_rate(chains[1:], grads, gains)
        dxh_stack = stacked_estimate_rate(x_hat, x, g, gains.alpha3)
        dz_stack = stacked_observer_rate(z, x, gains, obs)

        for i in range(n):
            neighbor = {k: (x_hat[k], x[k]) for k in range(n)}
            seeker = SeekerState(y=y[i], x_hat=x_hat[i], z_chain=z[:, i, :])
            u_i, dy_i, dxh_i = state_feedback_rhs(i, chains[:, i, :], seeker, grads[i],
                                                  neighbor, gains, g)
            assert np.allclose(u_i, u_stack[i], atol=1e-12)
            assert np.allclose(dy_i, dy_stack[i], atol=1e-12)
            assert np.allclose(dxh_i, dxh_stack[i], atol=1e-12)
            u_o, dy_o, dz_i, _ = output_feedback_rhs(i, x[i], seeker, grads[i],
                                                     neighbor, gains, obs, g)
            assert np.allclose(dz_i, dz_stack[:, i, :], atol=1e-12)
            zu = stacked_control_input(z[1:], grads, y, gains)
            assert np.allclose(u_o, zu[i], atol=1e-12)
            zy = stacked_aux_rate(z[1:], grads, gains)
            assert np.allclose(dy_o, zy[i], atol=1e-12)

    def test_order_one_sums_are_empty(self):
        gains = GainSet(1, (), 2.0, 1.8, 1.5, 5.0)
        grads = np.ones((3, 1))
        y = np.full((3, 1), 2.0)
        levels = np.zeros((0, 3, 1))
        u = stacked_control_input(levels, grads, y, gains)
        assert np.allclose(u, -1.8 * grads - 1.5 * y)
        dy = stacked_aux_rate(levels, grads, gains)
        assert np.allclose(dy, 1.8 * grads)  # alpha1 / eps^0

    def test_feedback_weights_values(self):
        w_u, w_y, a1s = feedback_weights(GainSet(4, (1.0, 3.0, 3.0), 2.0, 14.0, 10.0, 40.0))
        assert np.allclose(w_u, [8.0, 12.0, 6.0])
        assert np.allclose(w_y, [1.0, 1.5, 0.75])
        assert a1s == 14.0 / 8.0


def test_control_module_never_imports_the_plant_side():
    # the seeking laws are model-free: no dependency on sim or scenarios
    source = Path(control.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any("sim" in name or "scenario" in name for name in imported)
