"""Acceptance suite: every criterion prints one pass/fail line at its stated tolerance.

The closed-loop target values come from the analytic equilibrium oracles, never
from the simulations being judged.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from nashseek import sim
from nashseek.cli import main as cli_main
from nashseek.config import build_run_setup, default_config, load_config_file
from nashseek.control import GainSet, companion_matrix, default_hurwitz_gains, lyapunov_P
from nashseek.game import gradient_consistency, probe_monotonicity
from nashseek.graph import is_weight_balanced, estimation_certificate
from nashseek.scenarios import (
    build_turbine_market,
    build_vehicle_formation,
    turbine_nash_oracle,
    vehicle_nash_oracle,
)
from nashseek.verify import random_strongly_connected_digraph, rk4_halving_factors

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_01_vehicle_state_based_convergence(vehicles_state_run):
    setup, traj, wall = vehicles_state_run
    p_star = setup.x_star.reshape(10, 2)
    final = traj.final_decisions
    terminal_err = float(np.max(np.abs(final - p_star)))

    _, _, _, spec = build_vehicle_formation()
    offsets = spec.offsets
    worst_pairwise = 0.0
    for i in range(10):
        for j in range(10):
            gap = np.abs((final[i] - final[j]) - (offsets[i] - offsets[j]))
            worst_pairwise = max(worst_pairwise, float(np.max(gap)))

    ok = terminal_err <= 1e-2 and worst_pairwise <= 1e-2 and wall < 30.0
    report(1, "vehicle formation, state feedback", ok,
           f"terminal {terminal_err:.2e}, pairwise {worst_pairwise:.2e}, wall {wall:.1f}s")


def test_02_vehicle_output_based_convergence(vehicles_output_run):
    setup, traj, wall = vehicles_output_run
    assert setup.observer.mu == 0.02
    assert setup.sim_config.dt <= setup.observer.mu / 10.0
    terminal_err = float(np.max(np.abs(traj.final_decisions - setup.x_star.reshape(10, 2))))
    ok = terminal_err <= 1e-2 and wall < 60.0
    report(2, "vehicle formation, output feedback", ok,
           f"terminal {terminal_err:.2e}, wall {wall:.1f}s")


def test_03_turbine_convergence_both_algorithms(turbines_state_run, turbines_output_run):
    worst = 0.0
    for setup, traj, _ in (turbines_state_run, turbines_output_run):
        assert setup.gains.epsilon == 2.0 and setup.gains.alpha1 == 14.0
        assert setup.gains.alpha2 == 10.0 and setup.gains.alpha3 == 40.0
        assert setup.ordering_warning is None  # the desk set satisfies the ordering window
        p_star = setup.x_star
        rel = np.abs(traj.final_decisions.reshape(-1) - p_star) / np.abs(p_star)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-2
    report(3, "turbine market, desk gains, both algorithms", ok,
           f"worst componentwise relative error {worst:.2e}")


def test_03b_highgain_reproduction_ships(tmp_path):
    # the documented high-gain set over its shipped 400 s horizon: it runs
    # with its gain-ordering warning and no step-size advisory, settles, and
    # ends within settle_tol of the oracle; the slowest mode decays at ~0.02/s
    path = CONFIG_DIR / "turbines_highgain.json"
    cfg = load_config_file(path)
    setup = build_run_setup(cfg)
    assert setup.gains.epsilon == 20.0 and setup.gains.alpha1 == 500.0
    assert setup.sim_config.horizon == 400.0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path)])
    stiffness_line = "stiffness" in stdout.getvalue()
    summary = json.loads((tmp_path / "summary.json").read_text())
    with open(tmp_path / "trajectory.csv", newline="") as fh:
        *_, last = csv.reader(fh)
    final = np.array([float(v) for v in last[1:1 + setup.game.n_players]])
    p_star = turbine_nash_oracle()
    worst = float(np.max(np.abs(final - p_star) / np.abs(p_star)))
    warning_present = bool(summary["gain_ordering_warnings"])
    settle = summary["settle_time"]
    ok = (code == 0 and warning_present and not stiffness_line and settle is not None
          and worst <= cfg["settle_tol"])
    report(3, "high-gain reference set reproduction, full horizon", ok,
           f"ordering warning present: {warning_present}, stiffness line: {stiffness_line}, "
           f"settle_time {settle}, "
           f"worst componentwise relative error {worst:.2e} (tol {cfg['settle_tol']})")


def test_04_equilibrium_tuple_annihilates_closed_loop():
    veh_game, veh_plants, veh_graph, spec = build_vehicle_formation()
    veh_gains = GainSet(2, (1.0,), 2.0, 3.0, 2.2, 18.0)
    res_v = sim.equilibrium_residual(veh_game, veh_plants, veh_graph, veh_gains,
                                     vehicle_nash_oracle(spec))
    tur_game, tur_plants, tur_graph = build_turbine_market()
    tur_gains = GainSet(4, (3.375, 6.75, 4.5), 2.0, 14.0, 10.0, 40.0)
    res_t = sim.equilibrium_residual(tur_game, tur_plants, tur_graph, tur_gains,
                                     turbine_nash_oracle())
    ok = res_v < 1e-9 and res_t < 1e-9
    report(4, "equilibrium residual below 1e-9 (both scenarios)", ok,
           f"vehicles {res_v:.2e}, turbines {res_t:.2e}")


def test_05_exponential_convergence_fit(vehicles_state_run, vehicles_output_run):
    details = []
    ok = True
    for label, (_, traj, _) in (("state", vehicles_state_run),
                                ("output", vehicles_output_run)):
        window = sim.mid_decay_window(traj)
        lam, r2 = sim.fit_exponential_rate(traj, window)
        details.append(f"{label}: lambda {lam:.3f}, R^2 {r2:.4f}")
        ok = ok and lam > 0 and r2 >= 0.95
    report(5, "log-error linear fit on the mid-decay window", ok, "; ".join(details))


def test_06_estimation_certificates():
    rng = np.random.default_rng(12345)
    worst_eig = np.inf
    worst_res = 0.0
    all_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        cert = estimation_certificate(random_strongly_connected_digraph(rng, n))
        worst_eig = min(worst_eig, cert.min_sym_eigenvalue)
        worst_res = max(worst_res, cert.lyapunov_residual)
        all_ok &= cert.passed and cert.min_sym_eigenvalue > 0 and cert.lyapunov_residual < 1e-8
    _, _, veh_graph, _ = build_vehicle_formation()
    _, _, tur_graph = build_turbine_market()
    scen_ok = all(
        estimation_certificate(g).strongly_connected and not is_weight_balanced(g)
        for g in (veh_graph, tur_graph)
    )
    ok = all_ok and scen_ok
    report(6, "graph certificates (100 random digraphs + scenario defaults)", ok,
           f"min eig {worst_eig:.2e}, max residual {worst_res:.2e}, "
           f"scenario graphs connected and unbalanced: {scen_ok}")


def test_07_companion_lyapunov_certificates():
    worst = 0.0
    ok = True
    for n in range(2, 9):
        a = companion_matrix(default_hurwitz_gains(n))
        p = lyapunov_P(a)
        residual = float(np.linalg.norm(p @ a + a.T @ p + np.eye(n - 1)))
        worst = max(worst, residual)
        ok = ok and np.array_equal(p, p.T) and np.linalg.eigvalsh(p).min() > 0
        ok = ok and residual < 1e-10
    report(7, "companion Lyapunov certificates (n = 2..8)", ok,
           f"max residual {worst:.2e}")


def test_08_gradient_correctness():
    veh_game, _, _, _ = build_vehicle_formation()
    tur_game, _, _ = build_turbine_market()
    worst_v = gradient_consistency(veh_game, np.random.default_rng(777), n_points=50)
    worst_t = gradient_consistency(tur_game, np.random.default_rng(778), n_points=50)
    ok = worst_v <= 1e-6 and worst_t <= 1e-6
    report(8, "gradients match central finite differences (50 points)", ok,
           f"vehicles {worst_v:.2e}, turbines {worst_t:.2e}")


def test_09_monotonicity_probes():
    veh_game, _, _, _ = build_vehicle_formation()
    tur_game, _, _ = build_turbine_market()
    r_v = probe_monotonicity(veh_game, np.random.default_rng(2024))
    r_t = probe_monotonicity(tur_game, np.random.default_rng(2025))
    ok = abs(r_v.omega_hat - 0.2) <= 0.01 and r_t.omega_hat >= 0.3
    report(9, "monotonicity probes against analytic bounds", ok,
           f"vehicles omega {r_v.omega_hat:.4f} (target 0.2 +- 5%), "
           f"turbines omega {r_t.omega_hat:.4f} (bound 0.3)")


def test_10_observer_refinement(mu_refinement_runs):
    _, output_runs = mu_refinement_runs
    sup_errors = [sim.post_transient_observer_error(output_runs[mu], fraction=0.25)
                  for mu in (0.04, 0.02, 0.01)]
    ok = sup_errors[0] > sup_errors[1] > sup_errors[2]
    report(10, "observer error strictly decreases with mu", ok,
           "sup errors " + ", ".join(f"{e:.2e}" for e in sup_errors))


def test_structural_identity_under_mu_refinement(mu_refinement_runs):
    # output-feedback decisions approach the state-feedback trajectory as the
    # observer gets faster (observers start on the measured output)
    state_traj, output_runs = mu_refinement_runs
    gaps = []
    for mu in (0.04, 0.02, 0.01):
        traj = output_runs[mu]
        assert np.array_equal(traj.times, state_traj.times)
        gaps.append(float(np.max(np.abs(traj.decisions - state_traj.decisions))))
    assert gaps[0] > gaps[1] > gaps[2], f"gaps not decreasing: {gaps}"


def test_terminal_estimate_consensus(vehicles_state_run, vehicles_output_run,
                                     turbines_state_run, turbines_output_run):
    # every converged run ends with the estimate stack on the true decisions
    for setup, traj, _ in (vehicles_state_run, vehicles_output_run,
                           turbines_state_run, turbines_output_run):
        assert traj.estimate_disagreement[-1] < 10.0 * setup.settle_tol


def test_11_integrator_order():
    factors = rk4_halving_factors()
    ok = all(12.0 <= f <= 20.0 for f in factors)
    report(11, "RK4 halving factors within [12, 20]", ok,
           f"factors {[round(f, 2) for f in factors]}")


def test_12_byte_identical_reruns(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main(["run", "--scenario", "turbines", "--algo", "state",
                         "--out", str(out), "--seed", "42",
                         "--set", "horizon=1.0", "--set", "settle_tol=1e6"])
        assert code == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(12, "identical config and seed give byte-identical CSV", ok,
           f"{len(blobs[0])} bytes compared")
