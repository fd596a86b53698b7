"""Time the recorder and the CSV writer on the turbine default run.

    PYTHONPATH=TREE/src python3 tools/time_record.py [state|output]

Runs ``sim.run`` on the turbines default config of the given algorithm
(state unless named) in the nashseek found on the path (so pointing
PYTHONPATH at a parent checkout's ``src`` times the parent), with BLAS pinned
to one thread as perfbench pins it, and writes its trajectory with
``sim.write_trajectory_csv`` into a temporary directory.  Recording is timed
as the time spent inside ``sim._Recorder.extend`` (which copies a slab of
records) and ``sim._Recorder.split`` (which reduces any records still held).
The run is warmed once and then repeated for at least one second and three
runs.  One JSON object goes to stdout: the records, the record intervals per
product ("group", the count the run passed to
``affine.Propagator.intervals``; null when it built no group), the CSV bytes,
the repeat count and the median seconds of the whole run, of recording and
of the CSV write.
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

from nashseek import affine, config, sim  # noqa: E402

SPAN_S = 1.0


def timed(spent: list, method):
    """method, adding the seconds of each call to spent[0]."""

    def wrapper(*args):
        start = time.perf_counter()
        try:
            return method(*args)
        finally:
            spent[0] += time.perf_counter() - start

    return wrapper


def main(algo: str) -> dict:
    setup = config.build_run_setup(config.default_config("turbines", algo))
    recording = [0.0]
    for name in ("extend", "split"):
        setattr(sim._Recorder, name, timed(recording, getattr(sim._Recorder, name)))
    counts = []
    intervals = affine.Propagator.intervals

    def spy(self, r, count):
        counts.append(count)
        return intervals(self, r, count)

    affine.Propagator.intervals = spy
    runs, records, writes = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        began = None
        while began is None or len(runs) < 3 or time.perf_counter() - began < SPAN_S:
            recording[0] = 0.0
            start = time.perf_counter()
            traj = sim.run(setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
                           setup.sim_config, setup.init, x_star=setup.x_star)
            ran = time.perf_counter()
            sim.write_trajectory_csv(traj, path)
            written = time.perf_counter()
            if began is None:  # the warm-up run
                began = written
                continue
            runs.append(ran - start)
            records.append(recording[0])
            writes.append(written - ran)
        csv_bytes = path.stat().st_size
    return {"algo": algo, "records": len(traj.times), "group": counts[-1] if counts else None,
            "csv_bytes": csv_bytes, "repeats": len(runs),
            "run_s": statistics.median(runs), "record_s": statistics.median(records),
            "csv_write_s": statistics.median(writes)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1] if len(sys.argv) > 1 else "state")))
