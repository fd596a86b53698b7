"""Time affine.probe_affine on the N-vehicle formation loop in state mode.

    PYTHONPATH=TREE/src python3 tools/time_probe.py 10 20 30 50

Probes the drift-free loop of the vehicle formation with N players (the
vehicle table repeated, anchors drawn uniformly from [-15, 15]^2 with seed 0,
the default cycle digraph and the vehicles' default gains) for each N given,
in the nashseek found on the path (so pointing PYTHONPATH at a parent
checkout's ``src`` times the parent), with BLAS pinned to one thread as
perfbench pins it.  Each size is warmed once and then repeated for at least
one second and three runs.  One JSON object goes to stdout: N -> state size,
median seconds, repeat count, nonzeros, the lanes the probe evaluated and the
structured calls it made.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from nashseek import affine, config, scenarios, sim  # noqa: E402

SPAN_S = 1.0


def loop(n_players: int):
    """(structured rhs, layout) of the n_players vehicle loop."""
    table = [scenarios.VEHICLE_TABLE[i % len(scenarios.VEHICLE_TABLE)] for i in range(n_players)]
    anchors = np.random.default_rng(0).uniform(-15.0, 15.0, size=(n_players, 2))
    game, _, g, _ = scenarios.build_vehicle_formation(table=table, offsets=anchors)
    gains = config.build_run_setup({"scenario": "vehicles"}).gains
    layout = sim._Layout(gains.order_n, n_players, 2, output_mode=False)
    return sim._make_rhs(game, g, gains, None, layout), layout


def main(sizes) -> dict:
    out = {}
    for n in sizes:
        rhs, layout = loop(n)
        lanes = []

        def counted(s, t):
            lanes.append(len(s))
            return rhs(s, t)

        op = affine.probe_affine(counted, layout)
        times, began = [], time.perf_counter()
        while len(times) < 3 or time.perf_counter() - began < SPAN_S:
            start = time.perf_counter()
            affine.probe_affine(rhs, layout)
            times.append(time.perf_counter() - start)
        out[n] = {"size": layout.size, "median_s": statistics.median(times), "repeats": len(times),
                  "nonzeros": int(op.vals.size), "lanes": sum(lanes), "calls": len(lanes)}
    return out


if __name__ == "__main__":
    print(json.dumps(main([int(a) for a in sys.argv[1:]])))
