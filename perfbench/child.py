"""One workload run in a fresh process; writes its measurements to <workdir>/result.json.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR
        [--trace] [--smoke] [--record]

--trace installs the layer wrappers and adds per-layer numbers; --record skips
the setup repeats and the reference comparison (used to write reference.json).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import nashseek

    if Path(nashseek.__file__).resolve().parent != ROOT / "src" / "nashseek":
        raise ImportError(f"nashseek imported from {nashseek.__file__}, not from {ROOT / 'src'}")
    return nashseek


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
            "blas_config": blas.get("openblas configuration")}


def _reference(name: str, seed: int):
    path = Path(__file__).with_name("reference.json")
    table = json.loads(path.read_text()) if path.is_file() else {}
    return table.get(name, {}).get(str(seed))


def measure(args, out: dict) -> None:
    """Fill ``out`` as the run goes, so a failure keeps what was measured before it."""
    import workloads
    import tracing

    inputs = workloads.make_inputs(args.workload, args.seed, smoke=args.smoke)
    kind = inputs["kind"]
    out["attempted"] = len(inputs["values"]) if kind == "sweep" else 1
    out["setup_samples"] = []
    if not (args.trace or args.record):
        out["setup_samples"] = workloads.time_setup(
            inputs["config"], kind, workloads.SETUP_REPEATS[kind] if not args.smoke else 3,
            0.0 if args.smoke else workloads.SETUP_SPAN_S)
    tracer = tracing.Tracer() if args.trace else None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        result = workloads.execute(inputs, args.workdir)
    for key in ("run_wall_s", "run_cpu_s", "run_window"):
        out[key] = result[key]
    out["rows"] = result.get("rows")
    reference = None if (args.record or args.smoke) else _reference(args.workload, args.seed)
    out["reference"] = "checked" if reference is not None else "unrecorded"
    reasons = workloads.check(inputs, result, reference, smoke=args.smoke)
    out["failures"] = [r for r in reasons if r]
    out["failed"] = len(out["failures"])
    if tracer is not None:
        sweep_wall = result["run_wall_s"] if kind == "sweep" else 0.0
        out["layers"], out["absent"] = tracing.layer_metrics(tracer, sweep_wall)
        setup = workloads.setup_once(inputs["config"], "run")
        repeats = 5 if args.smoke else 21
        out["layer_calls"] = tracing.layer_calls(setup, args.seed, repeats)
        out["config_setup_s"] = [seconds for seconds, _ in workloads.time_setup(
            inputs["config"], "run", 3 if args.smoke else workloads.SETUP_REPEATS["run"])]
        out["certificate_s"] = tracing.certificate_samples(setup, 2 if kind == "library" else 20)
        out["spans"] = tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    out = {}
    try:
        _import_program()
        measure(args, out)
    except Exception:  # the parent counts this run as failed and shows the traceback
        out["error"] = traceback.format_exc()
    out["child_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        out["env"] = _environment()
    except ImportError:
        out["env"] = {}
    (args.workdir / "result.json").write_text(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
