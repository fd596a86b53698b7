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
    check_gain_ordering,
    companion_matrix,
    default_hurwitz_gains,
    default_observer_gains,
    feedback_weights,
    lyapunov_P,
    routh_hurwitz_stable,
    stacked_aux_rate,
    stacked_control_input,
    stacked_estimate_rate,
    stacked_observer_rate,
)
from nashseek.errors import ConfigInvalid, EmptyGains, NotHurwitz, SingularLyapunov
from nashseek.graph import Digraph
from nashseek.linalg import lyapunov_solve
from nashseek.sim import _Layout, _make_rhs
from nashseek.verify import identity_game, random_strongly_connected_digraph
from oracles import player_law


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

    def test_non_definite_solution_rejected(self, monkeypatch):
        # a Hurwitz A always has a positive definite solution, so the check is
        # reached by handing the real Cholesky the negated, negative definite X
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda x: cholesky(-x))
        a = companion_matrix([2.0, 3.0])
        with pytest.raises(SingularLyapunov, match="not positive definite"):
            lyapunov_solve(a)
        with pytest.raises(NotHurwitz, match="not positive definite"):
            lyapunov_P(a)

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
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, True, np.True_])
    def test_scalar_must_be_finite_positive(self, name, value):
        values = {"epsilon": 2.0, "alpha1": 3.0, "alpha2": 2.2, "alpha3": 18.0, name: value}
        fault = "a number" if isinstance(value, (bool, np.bool_)) else "finite and positive"
        with pytest.raises(ConfigInvalid, match=f"^{name} must be {fault}"):
            GainSet(2, (1.0,), **values)

    @pytest.mark.parametrize("order, epsilon", [(2, 1e200), (2, 1e-200), (4, 1e100), (4, 1e-110)])
    def test_epsilon_powers_must_stay_finite_and_nonzero(self, order, epsilon):
        # the laws take eps^(1-n) .. eps^n; 1e-200 ** 2 is 0, and eps^n with n = 4 overflows at 1e100
        k = tuple(default_hurwitz_gains(order))
        GainSet(order, k, 1e70 if order == 4 else 1e150, 3.0, 2.2, 18.0)
        with pytest.raises(ConfigInvalid, match="^gains.epsilon="):
            GainSet(order, k, epsilon, 3.0, 2.2, 18.0)

    def test_nan_k_rejected(self):
        with pytest.raises(ConfigInvalid, match="not Hurwitz"):
            GainSet(2, (np.nan,), 2.0, 3.0, 2.2, 18.0)

    def test_order_one_empty_k(self):
        GainSet(1, (), 2.0, 1.8, 1.5, 5.0)

    def test_observer_validation(self):
        ObserverSet((2.0, 1.0), 0.02)
        with pytest.raises(ConfigInvalid):
            ObserverSet((2.0, 1.0), -0.1)
        with pytest.raises(ConfigInvalid):
            ObserverSet((-1.0, 1.0), 0.02)
        for mu, fault in ((np.nan, "finite and positive"), (True, "a number")):
            with pytest.raises(ConfigInvalid, match=f"^mu must be {fault}"):
                ObserverSet((2.0, 1.0), mu)
        with pytest.raises(ConfigInvalid, match="not Hurwitz"):
            ObserverSet((np.nan, 1.0), 0.02)


class TestGainOrdering:
    def test_passing_window(self):
        assert check_gain_ordering(GainSet(4, (1.0, 3.0, 3.0), 2.0, 14.0, 10.0, 1.0)) is None
        # the window's ends are eps^3 = 8 and eps^4 = 16; touching either warns
        warning = check_gain_ordering(GainSet(4, (1.0, 3.0, 3.0), 2.0, 16.0, 8.0, 1.0))
        assert "eps^(n-1)=8 >= alpha2=8" in warning and "alpha1=16 >= eps^n=16" in warning
        assert "alpha2=8 >= alpha1" not in warning

    def test_large_epsilon_violates(self):
        warning = check_gain_ordering(GainSet(4, (1.0, 3.0, 3.0), 20.0, 500.0, 400.0, 400.0))
        assert "violated" in warning
        assert "eps^(n-1)=8000 >= alpha2=400" in warning

    def test_order_one_bounds(self):
        assert check_gain_ordering(GainSet(1, (), 2.0, 1.8, 1.5, 5.0)) is None
        warning = check_gain_ordering(GainSet(1, (), 2.0, 2.0, 1.0, 5.0))
        assert "eps^(n-1)=1 >= alpha2=1" in warning and "alpha1=2 >= eps^n=2" in warning


def vehicle_like_gains():
    return GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)


class TestStateFeedbackLaw:
    def test_hand_substitution(self):
        # n=2, k1=1, eps=2: u = -2 v - 3 g - 2.2 y and dy = v + 1.5 g
        gains = vehicle_like_gains()
        rng = np.random.default_rng(0)
        v, grad, y = rng.standard_normal((3, 2))
        u = stacked_control_input(v[None], grad, y, gains)
        dy = stacked_aux_rate(v[None], grad, gains)
        assert np.allclose(u, -2.0 * v - 3.0 * grad - 2.2 * y)
        assert np.allclose(dy, v + 1.5 * grad)

    def test_all_zero_inputs_give_zero_rates(self):
        gains = vehicle_like_gains()
        g = Digraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
        levels, zeros = np.zeros((1, 2, 2)), np.zeros((2, 2))
        u = stacked_control_input(levels, zeros, zeros, gains)
        dy = stacked_aux_rate(levels, zeros, gains)
        dxh = stacked_estimate_rate(np.zeros((2, 2, 2)), zeros, g, gains.alpha3)
        assert not u.any() and not dy.any() and not dxh.any()

    def test_estimate_anchor_hand_case(self):
        # two players, only edge a_12 = 1, alpha3 = 1; player 1 estimates
        # player 2 at 1 while player 2 holds 0 and estimates itself at 0
        g = Digraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        x_hat = np.array([[[0.0], [1.0]], [[0.0], [0.0]]])
        dxh = stacked_estimate_rate(x_hat, np.zeros((2, 1)), g, alpha3=1.0)
        assert np.allclose(dxh[0], [[0.0], [-2.0]])
        assert not dxh[1].any()  # player 2 has no in-neighbour


class TestOutputFeedbackLaw:
    def test_observer_innovation_weights(self):
        # n=2, eps=2, beta=(2,1), mu=0.02: dz0 = z1 + 200 (x - z0)
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        rng = np.random.default_rng(1)
        x, z0, z1 = rng.standard_normal((3, 2))
        dz = stacked_observer_rate(np.stack([z0, z1]), x, gains, obs)
        assert np.allclose(dz[0], z1 + 200.0 * (x - z0))
        assert np.allclose(dz[1], (4.0 * 1.0 / 0.02 ** 2) * (x - z0))

    def test_observer_at_rest_on_truth(self):
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        x = np.array([1.5, -0.5])
        y = np.array([0.3, 0.1])
        grad = np.array([0.2, -0.4])
        z = np.stack([x, np.zeros(2)])
        dz = stacked_observer_rate(z, x, gains, obs)
        u = stacked_control_input(z[1:], grad, y, gains)
        assert not dz.any()
        assert np.allclose(u, -3.0 * grad - 2.2 * y)

    def test_structural_identity_with_state_law(self):
        # the integrator's output-mode rhs on an observer chain equal to the
        # true chain (innovation x - z_0 = 0, z_1 = x') gives the state-mode
        # u, dy and estimate rates, and the observer stays on the chain
        gains = vehicle_like_gains()
        obs = ObserverSet((2.0, 1.0), 0.02)
        game = identity_game(3, 2)
        g = Digraph(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1.5, 0.0, 0.0]]))
        state_layout, output_layout = _Layout(2, 3, 2, False), _Layout(2, 3, 2, True)
        s = np.random.default_rng(2).standard_normal(state_layout.size)
        o = np.zeros(output_layout.size)
        for part in ("chain", "y", "x_hat"):
            getattr(output_layout, part)(o)[:] = getattr(state_layout, part)(s)
        output_layout.z(o)[1:] = state_layout.chain(s)[1:]
        ds = _make_rhs(game, g, gains, None, state_layout)(s, 0.0)
        do = _make_rhs(game, g, gains, obs, output_layout)(o, 0.0)
        for part in ("chain", "y", "x_hat"):
            assert np.array_equal(getattr(output_layout, part)(do), getattr(state_layout, part)(ds))
        assert not output_layout.z(do).any()


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

        zu = stacked_control_input(z[1:], grads, y, gains)
        zy = stacked_aux_rate(z[1:], grads, gains)
        for i in range(n):
            u_i, dy_i, dxh_i, _ = player_law(i, chains, y, x_hat, grads, gains, g)
            assert np.allclose(u_i, u_stack[i], atol=1e-12)
            assert np.allclose(dy_i, dy_stack[i], atol=1e-12)
            assert np.allclose(dxh_i, dxh_stack[i], atol=1e-12)
            u_o, dy_o, _, dz_i = player_law(i, chains, y, x_hat, grads, gains, g, obs, z)
            assert np.allclose(dz_i, dz_stack[:, i, :], atol=1e-12)
            assert np.allclose(u_o, zu[i], atol=1e-12)
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
