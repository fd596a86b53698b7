"""Time graph.estimation_certificate on the default weighted cycle.

    PYTHONPATH=TREE/src python3 tools/time_certificate.py 10 20 30 50

Times the certificate of ``scenarios.default_cycle_digraph(N)`` for each N
given, in the nashseek found on the path (so pointing PYTHONPATH at a parent
checkout's ``src`` times the parent), with BLAS pinned to one thread as
perfbench pins it.  Each size is warmed once and then repeated for at least
one second and three runs; one JSON object, N -> median seconds, repeat count,
``passed`` and residual, goes to stdout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from nashseek import graph, scenarios  # noqa: E402

SPAN_S = 1.0


def main(sizes) -> dict:
    out = {}
    for n in sizes:
        g = scenarios.default_cycle_digraph(n)
        graph.estimation_certificate(g)
        times, began = [], time.perf_counter()
        while len(times) < 3 or time.perf_counter() - began < SPAN_S:
            start = time.perf_counter()
            cert = graph.estimation_certificate(g)
            times.append(time.perf_counter() - start)
        out[n] = {"median_s": statistics.median(times), "repeats": len(times),
                  "passed": cert.passed, "residual": cert.lyapunov_residual}
    return out


if __name__ == "__main__":
    print(json.dumps(main([int(a) for a in sys.argv[1:]])))
