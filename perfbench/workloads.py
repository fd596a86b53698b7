"""The four benchmark workloads: inputs made from a seed, one timed run each, and its checks.

Each workload is run once per child process by ``child.py``.  The program only
sees the generated inputs (a config dict, and for the sweep its seed values);
everything the checks compare against comes from the analytic oracles in
``nashseek.scenarios`` and from ``reference.json``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import zlib
from dataclasses import astuple
from pathlib import Path

import numpy as np

from nashseek import cli, config, graph, scenarios, sim
from nashseek.errors import NashseekError

# A workload is closed-loop and single-client: the next run starts only after
# the previous one has written its outputs.
WORKLOADS = {
    # Output feedback on vehicles: per-player nonlinear drift (10 drift calls
    # per RHS evaluation), the high-gain observer, and the full CSV write.
    # dt = mu/10 is the largest step the output-mode gate admits.
    "vehicles-output": {"kind": "run", "scenario": "vehicles", "algo": "output",
                        "dt": 2e-3, "horizon": 24.0, "players": 10},
    # Turbines, state feedback, desk gains and default dt: no drift and an
    # affine game, so RK4 and loop overhead are the largest share of a step.
    "turbines-state": {"kind": "run", "scenario": "turbines", "algo": "state",
                       "dt": 9e-4, "horizon": 22.0, "players": 6},
    # `nashseek sweep --param seed` on vehicles/state: the thread pool and the
    # per-cell setup in cli; no trajectory CSV.
    "seed-sweep": {"kind": "sweep", "scenario": "vehicles", "algo": "state",
                   "dt": 1e-2, "horizon": 24.0, "players": 10, "cells": 4},
    # README "Library use" path at N=30: the consensus term (N^3 m) and the
    # N^6 graph certificate dominate.  Convergence is slow at this size, so the
    # check is a stated shrink of the oracle error instead of settling.
    "vehicles-n30": {"kind": "library", "scenario": "vehicles", "algo": "state",
                     "dt": 5e-3, "horizon": 10.0, "players": 30},
}

# Tiny sizes for the smoke mode: every code path, none of the convergence checks.
SMOKE = {"horizon": 0.05, "players": 12, "cells": 2}

N30_ANCHOR_BOX = 15.0
N30_MIN_SHRINK = 2.0          # oracle error at the horizon <= error at t=0 / 2
RESIDUAL_MAX = 1e-9           # closed-loop RHS at the equilibrium tuple
STATS_RTOL = 1e-4             # lambda_hat and final_residual against reference.json
# settle_time against reference.json: within one recorded sample

# setup repeats per child: build_run_setup is sub-millisecond, the N=30
# certificate takes over a second
SETUP_REPEATS = {"run": 100, "sweep": 100, "library": 2}
# The timed setups of one child span at least this long, so that the speed
# probe in run.py takes a few dozen samples while they run.
SETUP_SPAN_S = 0.5
SETUP_MAX_REPEATS = 5000


def make_inputs(name: str, seed: int, smoke: bool = False) -> dict:
    """Config dict (and sweep values) for one workload, generated from the seed only."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    cfg = config.default_config(w["scenario"], w["algo"])
    cfg["sim"].update(dt=w["dt"], horizon=SMOKE["horizon"] if smoke else w["horizon"])
    inputs = {"name": name, "kind": w["kind"], "config": cfg}
    if w["kind"] == "sweep":
        cells = SMOKE["cells"] if smoke else w["cells"]
        inputs["values"] = [int(v) for v in rng.integers(0, 2**31 - 1, size=cells)]
        return inputs
    n_players = w["players"]
    if w["kind"] == "library":
        n_players = SMOKE["players"] if smoke else n_players
        table = [list(astuple(scenarios.VEHICLE_TABLE[i % len(scenarios.VEHICLE_TABLE)]))
                 for i in range(n_players)]
        anchors = rng.uniform(-N30_ANCHOR_BOX, N30_ANCHOR_BOX, size=(n_players, 2))
        cfg["scenario_params"] = {"table": table, "offsets": anchors.tolist()}
    m = 2 if w["scenario"] == "vehicles" else 1
    lo, hi = cfg["init"]["box"]
    cfg["init"]["decisions"] = rng.uniform(lo, hi, size=(n_players, m)).tolist()
    return inputs


def analytic_oracle(cfg: dict) -> np.ndarray:
    """Equilibrium from the scenario's closed-form oracle, independent of the run path."""
    if cfg["scenario"] == "turbines":
        return scenarios.turbine_nash_oracle()
    offsets = cfg["scenario_params"].get("offsets")
    spec = scenarios.five_point_star() if offsets is None else scenarios.FormationSpec(np.asarray(offsets))
    return scenarios.vehicle_nash_oracle(spec)


def setup_once(cfg: dict, kind: str):
    """Config to ready-to-integrate: the span reported as setup_s."""
    setup = config.build_run_setup(cfg)
    if kind == "library":
        cert = graph.estimation_certificate(setup.graph)
        if not cert.passed:
            raise RuntimeError("estimation certificate failed")
    return setup


def time_setup(cfg: dict, kind: str, repeats: int, span_s: float = 0.0) -> list:
    """[seconds, monotonic end] per setup: at least ``repeats`` calls, and more
    until ``span_s`` has passed."""
    samples = []
    began = time.perf_counter()
    while len(samples) < repeats or (time.perf_counter() - began < span_s
                                     and len(samples) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        setup_once(cfg, kind)
        samples.append([time.perf_counter() - start, time.monotonic()])
    return samples


def _float_or_none(text: str):
    return None if text in ("", "None") else float(text)


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _timed(start: float, cpu: float, **fields) -> dict:
    """The run span since ``start``: wall and CPU seconds, and its ends on the
    system-wide monotonic clock that run.py's speed probe also reads."""
    wall = time.perf_counter() - start
    end = time.monotonic()
    fields.update(run_wall_s=wall, run_cpu_s=time.process_time() - cpu,
                  run_window=[end - wall, end])
    return fields


def _run_cli(inputs: dict, workdir: Path) -> dict:
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(inputs["config"]))
    out_dir = workdir / "out"
    start = time.perf_counter()
    cpu = time.process_time()
    code, log = _quiet_main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    result = _timed(start, cpu, exit_code=code, log=log[-2000:])
    summary_path = out_dir / "summary.json"
    csv_path = out_dir / "trajectory.csv"
    if not (summary_path.is_file() and csv_path.is_file()):
        return result
    summary = json.loads(summary_path.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, first, last = rows[0], rows[1], rows[-1]
    cols = [i for i, h in enumerate(header) if h.startswith("x_")]
    result["x_first"] = [float(first[i]) for i in cols]
    result["x_last"] = [float(last[i]) for i in cols]
    result["rows"] = [[summary["settle_time"], summary["lambda_hat"], summary["final_residual"]]]
    return result


def _run_sweep(inputs: dict, workdir: Path) -> dict:
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(inputs["config"]))
    out_dir = workdir / "out"
    values = ",".join(str(v) for v in inputs["values"])
    start, cpu = time.perf_counter(), time.process_time()
    code, log = _quiet_main(["sweep", "--config", str(cfg_path), "--param", "seed",
                             "--values", values, "--out", str(out_dir)])
    result = _timed(start, cpu, exit_code=code, log=log[-2000:])
    sweep_path = out_dir / "sweep.csv"
    if sweep_path.is_file():
        with open(sweep_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        result["status"] = [r["status"] for r in rows]
        result["rows"] = [[_float_or_none(r["settle_time"]), _float_or_none(r["lambda_hat"]),
                           _float_or_none(r["final_residual"])] for r in rows]
    return result


def _run_library(inputs: dict, workdir: Path) -> dict:
    """The README "Library use" sequence: setup, certificate, run, settle/fit, CSV."""
    cfg = inputs["config"]
    start, cpu = time.perf_counter(), time.process_time()
    setup = setup_once(cfg, "library")
    trajectory = sim.run(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                         setup.sim_config, setup.init, x_star=setup.x_star)
    settle = sim.settle_time(trajectory, setup.x_star, setup.settle_tol)
    try:
        lambda_hat, _ = sim.fit_exponential_rate(trajectory, sim.mid_decay_window(trajectory))
    except NashseekError:  # a flat or non-decaying trace has no fit
        lambda_hat = None
    sim.write_trajectory_csv(trajectory, workdir / "trajectory.csv")
    result = _timed(start, cpu, exit_code=0)
    x_first = trajectory.decisions[0].ravel()
    x_last = trajectory.final_decisions.ravel()
    x_star = np.asarray(setup.x_star).ravel()
    result.update(x_first=x_first.tolist(), x_last=x_last.tolist(),
                  rows=[[settle, lambda_hat, float(np.max(np.abs(x_last - x_star)))]])
    return result


RUNNERS = {"run": _run_cli, "sweep": _run_sweep, "library": _run_library}


def execute(inputs: dict, workdir: Path) -> dict:
    """One timed workload run; run_s spans config to outputs written."""
    return RUNNERS[inputs["kind"]](inputs, workdir)


def _rel_close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _row_matches(row, ref, sample_s: float) -> bool:
    settle, ref_settle = row[0], ref[0]
    settle_ok = (settle is None and ref_settle is None) or (
        settle is not None and ref_settle is not None and abs(settle - ref_settle) <= sample_s + 1e-9)
    return settle_ok and _rel_close(row[1], ref[1], STATS_RTOL) and _rel_close(row[2], ref[2], STATS_RTOL)


def check(inputs: dict, result: dict, reference, smoke: bool) -> list:
    """Per-unit failure reasons: one list entry per run (or sweep cell), empty when it passed."""
    cfg = inputs["config"]
    kind = inputs["kind"]
    units = len(inputs["values"]) if kind == "sweep" else 1
    common = []
    setup = config.build_run_setup(cfg)
    x_star = analytic_oracle(cfg)
    residual = sim.equilibrium_residual(setup.game, setup.plants, setup.graph, setup.gains, x_star)
    if not residual <= RESIDUAL_MAX:
        common.append(f"equilibrium residual {residual:.3e} > {RESIDUAL_MAX:g}")
    rows = result.get("rows")
    if kind != "sweep" and result["exit_code"] != 0 and not (smoke and result["exit_code"] == 3):
        common.append(f"exit code {result['exit_code']}: {result.get('log', '')[-300:]}")
    if rows is None or len(rows) != units:
        return [common + ["no results written"] for _ in range(units)]

    reasons = [list(common) for _ in range(units)]
    tol = cfg["settle_tol"] * max(1.0, float(np.max(np.abs(x_star))))
    sample_s = cfg["sim"]["dt"] * cfg["sim"]["record_stride"]
    if kind == "sweep":
        for i, status in enumerate(result["status"]):
            if status != "ok":
                reasons[i].append(f"cell status {status}")
    else:
        x_first = np.asarray(result["x_first"])
        x_last = np.asarray(result["x_last"])
        if kind == "library" and not smoke:
            shrink = np.linalg.norm(x_first - x_star) / max(np.linalg.norm(x_last - x_star), 1e-300)
            if not shrink >= N30_MIN_SHRINK:
                reasons[0].append(f"oracle error shrank {shrink:.2f}x < {N30_MIN_SHRINK:g}x")
        elif not smoke:
            gap = float(np.max(np.abs(x_last - x_star)))
            if not gap <= tol:
                reasons[0].append(f"final decisions {gap:.3e} from the oracle > settle_tol {tol:.3e}")
    for i, row in enumerate(rows):
        if not smoke and kind != "library" and row[0] is None:
            reasons[i].append("did not settle within the horizon")
        if reference is not None and not _row_matches(row, reference[i], sample_s):
            reasons[i].append(f"statistics {row} differ from reference {reference[i]}")
    return reasons

