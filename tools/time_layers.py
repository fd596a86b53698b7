"""Time one layer of nashseek; one JSON object goes to stdout.

    PYTHONPATH=TREE/src python3 tools/time_layers.py probe N... | certificate N... | record [state|output]
        | step N... [lanes=L] [steps=S] [turbines] [output]

probe: N -> size, median_s, repeats, nonzeros, lanes, calls of ``affine.probe_affine`` on the
  drift-free state-mode loop of N vehicles (the table repeated, anchors uniform in [-15, 15]^2
  with seed 0, default cycle digraph and gains), with one probe's rhs lanes and calls.
step: N -> size, lanes, kind, group, fold_bytes, blocks, fold_blocks_s, fold_drift_rk4_s, intervals_s,
  folded_us, sparse_us, repeats, windows, passes, c, spectrum_s, coarse_fold_s, coarse_pass_s,
  fine_pass_s for L lanes (default 1) of that loop of N vehicles with its drift, or
  with ``turbines`` of the drift-free market of N >= 5 generators (the table repeated, default
  digraph and gains), in state mode, or with ``output`` in output mode with the default observer,
  seeds 0..L-1, at dt = STEP_DT, or mu / 10 in output mode: kind and group are the step kind and
  the record-interval maps per product (null if none) of a run of S steps (default STEPS), read
  from its ``Trajectory.stepping``; fold_bytes is what a "folded" step reads, its block stack and stage
  matrices (``affine.FoldBlocks.nbytes``), and blocks its block count; the three build phases are
  timed apart, on the arguments the run builds them from: ``affine.fold_blocks`` on
  ``sim._Layout.fold_rows``, ``affine.fold_drift_rk4`` on those blocks and, for a drift-free loop
  (else null), ``DriftFold.intervals`` of the run's record_stride and group (one map if the run
  takes no groups); folded_us and sparse_us are the microseconds per RK4 step of the batch,
  "folded" (``sim._fold_stepper`` on that fold) and "sparse" (``sim._rk4_stepper``), STEPS steps
  of each in turn from the run's start; windows and passes are the run's record windows and
  passes (null and 0 without them), and c, spectrum_s, coarse_fold_s, coarse_pass_s and
  fine_pass_s time the Parareal plan ``sim._windows`` makes for the run (``windows`` below; null
  without a plan).
certificate: N -> median_s, repeats, passed, residual of ``graph.estimation_certificate`` of
  ``scenarios.default_cycle_digraph(N)``.
record: algo, records, group, csv_bytes, repeats, run_s, record_s, csv_write_s of ``sim.run`` on
  the turbines default (state unless named) and ``sim.write_trajectory_csv``; record_s (the time
  inside ``sim._Recorder.extend`` and ``split``) and group (the record-interval maps per product,
  null if none) are read from the run's own record, ``Trajectory.stepping``.

It times the nashseek on the path (a parent checkout's ``src`` times the parent), BLAS pinned to
one thread as perfbench pins it; after one warm-up, a timed field is the median of runs that
last at least SPAN_S seconds and number at least three.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from nashseek import affine, config, graph, scenarios, sim  # noqa: E402

SPAN_S = 1.0
STEP_DT = 5e-3
STEPS = 2400


def repeat(call) -> tuple:
    """(median of each field, runs, last result) of call() -> (dict of seconds, result):
    one warm call, then at least SPAN_S seconds and three runs."""
    call()
    runs, began = [], time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - began < SPAN_S:
        fields, result = call()
        runs.append(fields)
    return {key: statistics.median(run[key] for run in runs) for key in fields}, len(runs), result


def timed(fn, *args) -> tuple:
    """({"median_s": seconds}, result) of fn(*args)."""
    start = time.perf_counter()
    result = fn(*args)
    return {"median_s": time.perf_counter() - start}, result


def vehicles(n: int, algo: str = "state") -> tuple:
    """(game, plants, digraph, gains, observer) of the loop of n vehicles; observer None in state mode."""
    table = [scenarios.VEHICLE_TABLE[i % len(scenarios.VEHICLE_TABLE)] for i in range(n)]
    anchors = np.random.default_rng(0).uniform(-15.0, 15.0, size=(n, 2))
    game, plants, g, _ = scenarios.build_vehicle_formation(table=table, offsets=anchors)
    setup = config.build_run_setup(config.default_config("vehicles", algo))
    return game, plants, g, setup.gains, setup.observer


def turbines(n: int, algo: str = "state") -> tuple:
    """(game, plants, digraph, gains, observer) of the drift-free market of n generators."""
    table = [scenarios.GENERATOR_TABLE[i % len(scenarios.GENERATOR_TABLE)] for i in range(n)]
    game, plants, g = scenarios.build_turbine_market(table=table)
    setup = config.build_run_setup(config.default_config("turbines", algo))
    return game, plants, g, setup.gains, setup.observer


def probe(*sizes) -> dict:
    out = {}
    for n in map(int, sizes):
        game, _, g, gains, _ = vehicles(n)
        layout = sim._Layout(gains.order_n, n, 2, output_mode=False)
        rhs, lanes = sim._make_rhs(game, g, gains, None, layout), []
        op = affine.probe_affine(lambda s, t: lanes.append(len(s)) or rhs(s, t), layout)
        fields, runs, _ = repeat(lambda: timed(affine.probe_affine, rhs, layout))
        out[n] = {"size": layout.size, "median_s": fields["median_s"], "repeats": runs,
                  "nonzeros": int(op.vals.size), "lanes": sum(lanes), "calls": len(lanes)}
    return out


def certificate(*sizes) -> dict:
    out = {}
    for n in map(int, sizes):
        g = scenarios.default_cycle_digraph(n)
        fields, runs, cert = repeat(lambda: timed(graph.estimation_certificate, g))
        out[n] = {"median_s": fields["median_s"], "repeats": runs,
                  "passed": cert.passed, "residual": cert.lyapunov_residual}
    return out


def record(algo: str = "state") -> dict:
    setup = config.build_run_setup(config.default_config("turbines", algo))

    def call():
        start = time.perf_counter()
        traj = sim.run(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                       setup.sim_config, setup.init, x_star=setup.x_star)
        ran = time.perf_counter()
        sim.write_trajectory_csv(traj, path)
        return {"run_s": ran - start, "record_s": traj.stepping.record_s,
                "csv_write_s": time.perf_counter() - ran}, traj

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        fields, runs, traj = repeat(call)
        csv_bytes = path.stat().st_size
    return {"algo": algo, "records": len(traj.times), "group": traj.stepping.group,
            "csv_bytes": csv_bytes, "repeats": runs, **fields}


def step(*args) -> dict:
    lanes = int(next((arg[6:] for arg in args if arg.startswith("lanes=")), 1))
    steps = int(next((arg[6:] for arg in args if arg.startswith("steps=")), STEPS))
    loop = turbines if "turbines" in args else vehicles
    out = {}
    for n in (int(arg) for arg in args if arg.isdigit()):
        game, plants, g, gains, obs = loop(n, "output" if "output" in args else "state")
        dt = STEP_DT if obs is None else obs.mu / 10
        cfg = sim.SimConfig(dt=dt, horizon=steps * dt)
        batch = [sim.Lane(game, plants, g, gains, obs, dataclasses.replace(cfg, seed=seed)) for seed in range(lanes)]
        stepping = sim.run_lanes(batch)[0].stepping
        probes = {}
        starts = [sim._start(lane, probes) for lane in batch]
        layout, op = starts[0].layout, starts[0].op
        state = starts[0].state if lanes == 1 else np.stack([start.state for start in starts])
        groups = sim._drift_groups([plants] * lanes, state.shape[:-1])
        rows = layout.fold_rows(bool(groups))
        sparse = sim._rk4_stepper(starts, groups)

        def call():
            began = time.perf_counter()
            blocks = affine.fold_blocks(op, *rows)
            found = time.perf_counter()
            fold = affine.fold_drift_rk4(op, dt, *rows, blocks)
            fields = {"fold_blocks_s": found - began, "fold_drift_rk4_s": time.perf_counter() - found}
            if not groups:
                began = time.perf_counter()
                fold.intervals(cfg.record_stride, stepping.group or 1)
                fields["intervals_s"] = time.perf_counter() - began
            advances = {"folded_us": sim._fold_stepper(fold, groups, layout, state), "sparse_us": sparse}
            for name, advance in advances.items():
                s, began = state, time.perf_counter()
                for k in range(STEPS):
                    s = advance(s, k * dt)
                fields[name] = (time.perf_counter() - began) / STEPS * 1e6
            return fields, blocks

        fields, runs, blocks = repeat(call)
        out[n] = {"size": layout.size, "lanes": lanes, "kind": stepping.kind, "group": stepping.group,
                  "fold_bytes": blocks.nbytes, "blocks": len(blocks.rows), "fold_blocks_s": fields["fold_blocks_s"],
                  "fold_drift_rk4_s": fields["fold_drift_rk4_s"], "intervals_s": fields.get("intervals_s"),
                  "folded_us": fields["folded_us"], "sparse_us": fields["sparse_us"], "repeats": runs,
                  **windows(starts, steps, rows, blocks, stepping)}
    return out


def windows(starts, steps, rows, blocks, stepping) -> dict:
    """The record-window fields of ``step``: the run's windows and passes, and for the plan
    ``sim._windows`` makes (all null without one) its coarse step c in fine steps, spectrum_s (the
    plan: the eigenvalues, ``affine.rk4_limit`` and the pricing), coarse_fold_s (``sim._pass_steppers``,
    the second fold's build at c dt on the same blocks), and coarse_pass_s and fine_pass_s, one G
    pass (the coarse steps of all windows but the first and the last, on the run's lanes) and one F
    pass (a window's steps on all windows)."""
    out = {"windows": stepping.windows, "passes": stepping.passes}
    plan = sim._windows(starts, steps) if stepping.kind == "folded" and rows[2] else None
    if plan is None:
        return {**out, **dict.fromkeys(("c", "spectrum_s", "coarse_fold_s", "coarse_pass_s", "fine_pass_s"))}
    layout, dt = starts[0].layout, starts[0].lane.cfg.dt
    state = starts[0].state if len(starts) == 1 else np.stack([start.state for start in starts])
    fold = affine.fold_drift_rk4(starts[0].op, dt, *rows, blocks)

    def call():
        began = time.perf_counter()
        sim._windows(starts, steps)
        planned = time.perf_counter()
        coarse, _, fine = sim._pass_steppers(plan, fold, blocks, starts, state)
        fields = {"spectrum_s": planned - began, "coarse_fold_s": time.perf_counter() - planned}
        wide = np.tile(state.reshape(-1, layout.size), (plan.count, 1))
        passes = (("coarse_pass_s", coarse, state, (plan.count - 2) * (plan.steps // plan.coarse)),
                  ("fine_pass_s", fine, wide, plan.steps))
        for name, advance, s, count in passes:
            began = time.perf_counter()
            for _ in range(count):
                s = advance(s, 0.0)
            fields[name] = time.perf_counter() - began
        return fields, None

    fields, _, _ = repeat(call)
    return {**out, "c": plan.coarse, **fields}


LAYERS = {"probe": probe, "certificate": certificate, "record": record, "step": step}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in LAYERS:
        sys.exit(__doc__.split("\n\n")[1])
    print(json.dumps(LAYERS[sys.argv[1]](*sys.argv[2:])))
