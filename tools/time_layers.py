"""Time one layer of nashseek; one JSON object goes to stdout.

    PYTHONPATH=TREE/src python3 tools/time_layers.py probe N... | certificate N... | record [state|output]

probe: N -> size, median_s, repeats, nonzeros, lanes, calls of ``affine.probe_affine`` on the
  drift-free state-mode loop of N vehicles (the table repeated, anchors uniform in [-15, 15]^2
  with seed 0, default cycle digraph and gains), with one probe's rhs lanes and calls.
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

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from nashseek import affine, config, graph, scenarios, sim  # noqa: E402

SPAN_S = 1.0


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


def probe(*sizes) -> dict:
    out = {}
    for n in map(int, sizes):
        table = [scenarios.VEHICLE_TABLE[i % len(scenarios.VEHICLE_TABLE)] for i in range(n)]
        anchors = np.random.default_rng(0).uniform(-15.0, 15.0, size=(n, 2))
        game, _, g, _ = scenarios.build_vehicle_formation(table=table, offsets=anchors)
        gains = config.build_run_setup({"scenario": "vehicles"}).gains
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


LAYERS = {"probe": probe, "certificate": certificate, "record": record}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in LAYERS:
        sys.exit(__doc__.split("\n\n")[1])
    print(json.dumps(LAYERS[sys.argv[1]](*sys.argv[2:])))
