"""Invariant battery behind the `verify` command.

Each check re-derives an expected property from an independent route (random
graph families, analytic Jacobian bounds, closed forms, convergence-order
studies) and compares it against the implementation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import affine, config, control, game as game_mod, graph as graph_mod, scenarios, sim
from .errors import NashseekError

# The folded drift step against the sparse RK4 step: steps of two lanes of
# each default vehicle run, enough for the batch to fold, and the decision gap
# allowed at any record, relative to the largest decision there.  Over the
# 40 s default runs the gap reads 4.0e-13 (state) and 7.0e-13 (output).
FOLD_CHECK_STEPS = 200
FOLD_CHECK_RTOL = 1e-12


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
        all(c.passed and not c.weight_balanced for c in certs.values()),
        ", ".join(f"N={n} residual {c.lyapunov_residual:.3e}, balanced={c.weight_balanced}"
                  for n, c in certs.items()),
    ))
    return results


def _check_control() -> list[CheckResult]:
    worst = 0.0
    details = []
    for n in range(2, 9):
        try:
            k = control.default_hurwitz_gains(n)
            a = control.companion_matrix(k)
            p = control.lyapunov_P(a)
        except NashseekError as exc:  # NotHurwitz, EmptyGains or ConfigInvalid
            details.append(f"n={n}: {exc}")
            continue
        stable = control.routh_hurwitz_stable(control._monic_from_gains(k))
        residual = float(np.linalg.norm(p @ a + a.T @ p + np.eye(n - 1)))
        worst = max(worst, residual)
        if not stable or residual >= 1e-10:
            details.append(f"n={n}: stable={stable} residual={residual:.2e}")
    return [CheckResult(
        "control", "default companions Hurwitz with certified P (n=2..8)",
        not details, "; ".join(details + [f"max residual {worst:.2e}"]),
    )]


def identity_game(n_players: int = 3, m: int = 2) -> game_mod.Game:
    """Quadratic game J_i = ||x_i||^2 / 2, affine as its gradient x_i is, with equilibrium 0."""
    idx = np.arange(n_players)

    def profile_gradient(profiles):
        return profiles[..., idx, idx, :]

    def cost(i, profile):
        x = np.asarray(profile, dtype=float).reshape(n_players, m)[i]
        return 0.5 * float(x @ x)

    return game_mod.Game(n_players, m, profile_gradient, cost_oracle=cost, affine=True)


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
        "game", "vehicles monotonicity probe (analytic omega = 0.2, theta <= 1.2)",
        abs(report_v.omega_hat - 0.2) <= 0.01 and report_v.omega_hat <= report_v.theta_hat <= 1.2 + 1e-9,
        f"omega_hat={report_v.omega_hat:.4f}, theta_hat={report_v.theta_hat:.4f}",
    ))
    report_t = game_mod.probe_monotonicity(tur_game, np.random.default_rng(2025))
    results.append(CheckResult(
        "game", "turbines monotonicity probe (analytic omega >= 0.3, omega <= theta)",
        0.3 <= report_t.omega_hat <= report_t.theta_hat,
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


def turbine_flow_halving_factors(dts=(0.01, 0.005, 0.0025), horizon: float = 1.0) -> tuple:
    """(error reduction factors per dt halving, errors) of RK4 on the turbine desk loop's probed
    operator over [0, horizon], against its exact affine flow e^{tA} s_0 + t phi_1(tA) b from
    ``affine.etd_maps``; each error is the largest state gap relative to the largest exact entry."""
    s = config.build_run_setup(config.default_config("turbines"))
    start = sim._start(sim.Lane(s.game, s.plants, s.graph, s.gains, s.observer, s.sim_config, s.init), {})
    exact = affine.etd_maps(start.op, horizon).flow(start.state)
    errors = []
    for dt in dts:
        x = start.state
        for k in range(round(horizon / dt)):
            x = affine.rk4_step(start.op.apply, x, k * dt, dt)
        errors.append(float(np.max(np.abs(x - exact)) / np.max(np.abs(exact))))
    return [errors[i] / errors[i + 1] for i in range(len(errors) - 1)], errors


def _check_sim() -> list[CheckResult]:
    results = []
    factors = rk4_halving_factors()
    results.append(CheckResult(
        "sim", "RK4 order study (error factor per halving in [12, 20])",
        all(12.0 <= f <= 20.0 for f in factors),
        f"factors {[round(f, 2) for f in factors]}",
    ))
    factors, errors = turbine_flow_halving_factors()
    results.append(CheckResult(
        "sim", "RK4 on the turbine loop against its exact affine flow (error factor per halving in [12, 20])",
        all(12.0 <= f <= 20.0 for f in factors),
        f"dt 0.01, 0.005, 0.0025 over 1 s: relative errors {', '.join(f'{e:.2e}' for e in errors)}, "
        f"factors {[round(f, 2) for f in factors]}",
    ))

    setups = (config.build_run_setup(config.default_config(name)) for name in ("vehicles", "turbines"))
    res_v, res_t = (sim.equilibrium_residual(s.game, s.plants, s.graph, s.gains, s.x_star) for s in setups)
    # the turbine loop has no drift, so its residual is rounding alone
    results.append(CheckResult(
        "sim", "equilibrium tuple annihilates the closed loop (both scenarios)",
        res_v < 1e-9 and res_t < 1e-12,
        f"vehicle residual {res_v:.3e} below 1e-9, turbine residual {res_t:.3e} below 1e-12",
    ))

    # two seeds of each default as one batch; with a gain object of its own
    # the second lane has an operator of its own, so that pair steps sparse
    gaps, kinds, stacks = [], [], []
    for algo in ("state", "output"):
        s = config.build_run_setup(config.default_config("vehicles", algo))
        cfg = dataclasses.replace(s.sim_config, horizon=FOLD_CHECK_STEPS * s.sim_config.dt)
        lane = sim.Lane(s.game, s.plants, s.graph, s.gains, s.observer, cfg, s.init)
        twin = dataclasses.replace(lane, cfg=dataclasses.replace(cfg, seed=cfg.seed + 1))
        folded = sim.run_lanes([lane, twin])
        sparse = sim.run_lanes([lane, dataclasses.replace(twin, gains=dataclasses.replace(s.gains))])
        kinds.append((folded[0].stepping.kind, sparse[0].stepping.kind))
        for a, b in zip(folded, sparse):
            gap = np.max(np.abs(a.decisions - b.decisions), axis=(1, 2))
            gaps.append(float(np.max(gap / np.max(np.abs(b.decisions), axis=(1, 2)))))
        start = sim._start(lane, {})
        blocks = affine.fold_blocks(start.op, *start.layout.fold_rows(True))
        stacks.append(f"{algo} {len(blocks.rows)} x {blocks.rows.shape[1]} x {blocks.cols.shape[1]} blocks "
                      f"and 3 stage matrices ({blocks.nbytes / 1e6:.2f} MB)")
    results.append(CheckResult(
        "sim", "folded drift step matches the sparse RK4 step (vehicles, both modes)",
        all(k == ("folded", "sparse") for k in kinds) and max(gaps) <= FOLD_CHECK_RTOL,
        f"2 lanes x {FOLD_CHECK_STEPS} steps, largest decision gap relative to the largest decision: "
        f"state {max(gaps[:2]):.2e}, output {max(gaps[2:]):.2e} (bound {FOLD_CHECK_RTOL:g}); "
        f"what a step reads: {', '.join(stacks)}",
    ))
    return results


_CHECKS = {
    "graph": _check_graph,
    "control": _check_control,
    "game": _check_game,
    "sim": _check_sim,
}
GROUPS = tuple(_CHECKS)


def run_checks(only: str | None = None) -> list[CheckResult]:
    """Run the verification battery, optionally restricted to one group."""
    if only is not None and only not in GROUPS:
        raise ValueError(f"unknown check group {only!r}; expected one of {GROUPS}")
    return [result for group in (GROUPS if only is None else (only,)) for result in _CHECKS[group]()]
