"""Invariant battery behind the `verify` command.

Each check re-derives an expected property from an independent route (random
graph families, analytic Jacobian bounds, closed forms, convergence-order
studies) and compares it against the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config, control, game as game_mod, graph as graph_mod, scenarios, sim

GROUPS = ("graph", "control", "game", "sim")


@dataclass
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str


def random_strongly_connected_digraph(rng: np.random.Generator, n: int) -> graph_mod.Digraph:
    """Random strongly connected digraph with bidirectional links and skewed weights.

    Every link of a random Hamiltonian cycle (and of the extra links) carries
    independently drawn weights in each direction, so the graphs are almost
    surely weight-unbalanced while keeping the symmetric part of L_ext + M
    positive definite (one-way weight-skewed cycles can lose that property
    even though their Lyapunov certificate survives).  Weights live on a 1/16
    grid so Laplacian row sums cancel exactly in floating point.
    """

    def draw():
        return rng.integers(12, 25) / 16.0

    w = np.zeros((n, n))
    order = rng.permutation(n)
    for pos in range(n):
        i, j = order[pos], order[(pos + 1) % n]
        w[i, j] = draw()
        w[j, i] = draw()
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j and rng.random() < 0.5:
            w[i, j] = draw()
            w[j, i] = draw()
    return graph_mod.Digraph(w)


def _check_graph() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(12345)
    worst_eig = np.inf
    worst_residual = 0.0
    exact_rows = True
    all_pass = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = random_strongly_connected_digraph(rng, n)
        cert = graph_mod.estimation_certificate(g)
        worst_eig = min(worst_eig, cert.min_sym_eigenvalue)
        worst_residual = max(worst_residual, cert.lyapunov_residual)
        exact_rows &= bool(np.all(cert.laplacian.sum(axis=1) == 0.0))
        all_pass &= cert.passed
    results.append(CheckResult(
        "graph", "random certificates (100 digraphs, N<=8)",
        all_pass and worst_eig > 0 and worst_residual < 1e-8 and exact_rows,
        f"min eig {worst_eig:.3e}, max residual {worst_residual:.3e}, exact row sums: {exact_rows}",
    ))
    for name, g in (("vehicles", scenarios.build_vehicle_formation()[2]),
                    ("turbines", scenarios.build_turbine_market()[2])):
        cert = graph_mod.estimation_certificate(g)
        ok = cert.passed and not cert.weight_balanced
        results.append(CheckResult(
            "graph", f"default {name} graph (Lyapunov certificate, unbalanced)",
            ok,
            f"connected={cert.strongly_connected}, balanced={cert.weight_balanced}, "
            f"min eig {cert.min_sym_eigenvalue:.3e}, residual {cert.lyapunov_residual:.3e}",
        ))
    certs = {n: graph_mod.estimation_certificate(scenarios.default_cycle_digraph(n)) for n in (30, 50)}
    results.append(CheckResult(
        "graph", "default weighted cycle at N = 30 and 50 (block certificate)",
        all(c.passed for c in certs.values()),
        ", ".join(f"N={n} residual {c.lyapunov_residual:.3e}" for n, c in certs.items()),
    ))
    return results


def _check_control() -> list[CheckResult]:
    results = []
    ok = True
    details = []
    for n in range(2, 9):
        k = control.default_hurwitz_gains(n)
        a = control.companion_matrix(k)
        stable = control.routh_hurwitz_stable(control._monic_from_gains(k))
        try:
            p = control.lyapunov_P(a)
            residual = float(np.linalg.norm(p @ a + a.T @ p + np.eye(n - 1)))
        except Exception as exc:  # pragma: no cover - failure reporting only
            ok = False
            details.append(f"n={n}: {exc}")
            continue
        if not stable or residual >= 1e-10:
            ok = False
            details.append(f"n={n}: stable={stable} residual={residual:.2e}")
    results.append(CheckResult(
        "control", "default companions Hurwitz with certified P (n=2..8)",
        ok, "; ".join(details) if details else "all residuals < 1e-10",
    ))
    return results


def identity_game(n_players: int = 3, m: int = 2) -> game_mod.Game:
    """Quadratic game J_i = ||x_i||^2 / 2 with the origin as its equilibrium."""
    def gradient(i, x_i, x_others):
        return np.asarray(x_i, dtype=float)

    def cost(i, profile):
        x = np.asarray(profile, dtype=float).reshape(n_players, m)[i]
        return 0.5 * float(x @ x)

    return game_mod.Game(n_players, m, gradient, cost_oracle=cost)


def _check_game() -> list[CheckResult]:
    results = []
    veh_game, _, _, spec = scenarios.build_vehicle_formation()
    tur_game, _, _ = scenarios.build_turbine_market()

    for name, g in (("vehicles", veh_game), ("turbines", tur_game)):
        worst = game_mod.gradient_consistency(g, np.random.default_rng(777), n_points=50)
        results.append(CheckResult(
            "game", f"{name} gradient vs central differences (50 points)",
            worst <= 1e-6, f"worst relative error {worst:.3e}",
        ))

    report_v = game_mod.probe_monotonicity(veh_game, np.random.default_rng(2024))
    results.append(CheckResult(
        "game", "vehicles monotonicity probe (analytic omega = 0.2)",
        abs(report_v.omega_hat - 0.2) <= 0.01 and report_v.omega_hat <= report_v.theta_hat,
        f"omega_hat={report_v.omega_hat:.4f}, theta_hat={report_v.theta_hat:.4f}",
    ))
    report_t = game_mod.probe_monotonicity(tur_game, np.random.default_rng(2025))
    results.append(CheckResult(
        "game", "turbines monotonicity probe (analytic omega >= 0.3)",
        report_t.omega_hat >= 0.3,
        f"omega_hat={report_t.omega_hat:.4f}, theta_hat={report_t.theta_hat:.4f}",
    ))
    ident = game_mod.probe_monotonicity(identity_game(), np.random.default_rng(3), n_samples=200)
    results.append(CheckResult(
        "game", "identity game probe (omega = theta = 1)",
        ident.omega_hat == 1.0 and ident.theta_hat == 1.0,
        f"omega_hat={ident.omega_hat}, theta_hat={ident.theta_hat}",
    ))

    x_v = game_mod.nash_solve(veh_game, np.zeros(20), tol=1e-10)
    gap_v = float(np.max(np.abs(x_v - scenarios.vehicle_nash_oracle(spec))))
    x_t = game_mod.nash_solve(tur_game, np.zeros(6), tol=1e-10)
    gap_t = float(np.max(np.abs(x_t - scenarios.turbine_nash_oracle())))
    results.append(CheckResult(
        "game", "nash_solve matches closed forms (both scenarios)",
        gap_v <= 1e-8 and gap_t <= 1e-8,
        f"vehicle gap {gap_v:.3e}, turbine gap {gap_t:.3e}",
    ))
    return results


def rk4_halving_factors(dts=(0.1, 0.05, 0.025)) -> list[float]:
    """Global-error reduction factors per dt halving on dx/dt = -x over [0, 1]."""
    errors = []
    for dt in dts:
        x = np.array([1.0])
        steps = round(1.0 / dt)
        for k in range(steps):
            x = sim.rk4_step(lambda s, t: -s, x, k * dt, dt)
        errors.append(abs(float(x[0]) - math.exp(-1.0)))
    return [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]


def _check_sim() -> list[CheckResult]:
    results = []
    factors = rk4_halving_factors()
    results.append(CheckResult(
        "sim", "RK4 order study (error factor per halving in [12, 20])",
        all(12.0 <= f <= 20.0 for f in factors),
        f"factors {[round(f, 2) for f in factors]}",
    ))

    setups = (config.build_run_setup(config.default_config(name)) for name in ("vehicles", "turbines"))
    res_v, res_t = (sim.equilibrium_residual(s.game, s.plants, s.graph, s.gains, s.x_star) for s in setups)
    results.append(CheckResult(
        "sim", "equilibrium tuple annihilates the closed loop (both scenarios)",
        res_v < 1e-9 and res_t < 1e-9,
        f"vehicle residual {res_v:.3e}, turbine residual {res_t:.3e}",
    ))
    results.append(CheckResult(
        "sim", "zero-drift equilibrium residual below 1e-12",
        res_t < 1e-12, f"turbine residual {res_t:.3e}",
    ))
    return results


_CHECKS = {
    "graph": _check_graph,
    "control": _check_control,
    "game": _check_game,
    "sim": _check_sim,
}


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the verification battery, optionally restricted to one group."""
    if only is not None and only not in GROUPS:
        raise ValueError(f"unknown check group {only!r}; expected one of {GROUPS}")
    results = []
    for group in GROUPS:
        if only is not None and group != only:
            continue
        results.extend(_CHECKS[group]())
    return results
