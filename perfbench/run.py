"""nashseek benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record 0-31 [--workload NAME]

--trace 0 runs the workload in fresh child processes until --seconds have
passed and reports the end-to-end metrics (medians over the children, with
times scaled by the speed probe below).
--trace 1 runs it once untraced and once with the layer wrappers installed and
reports the per-layer metrics.  Every run is checked against the analytic
equilibrium oracle and, for recorded seeds, against reference.json.  The last
line of standard output is the result as JSON; the exit code is 1 when any run
failed and 2 when the program's sources are missing.

--smoke runs every workload at a tiny size in both modes and checks that every
metric named in BENCHMARK.json is emitted with its unit.  --record reruns the
given seeds and rewrites reference.json from the statistics the current
program produces.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BUDGET_S = 170.0      # every run of this command ends well inside 180 s
MIN_CHILDREN = 2      # a median needs more than one run

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}


def _cpus() -> set:
    try:
        return set(os.sched_getaffinity(0))
    except AttributeError:
        return set(range(os.cpu_count() or 1))


CPUS = _cpus()        # read before the benchmark pins itself to one of them


def nproc() -> int:
    return len(CPUS)


# --- speed probe -------------------------------------------------------------
# A shared host runs this machine's cores at speeds that change in phases of
# seconds to minutes (the same run took 5.9 to 10.4 CPU seconds).  So the
# parent process shares one core with the child and, every PROBE_PERIOD_S
# while the child runs, times a short fixed kernel of interpreter and small
# numpy work.  A time span of the child is reported in seconds at the speed
# at which the kernel takes PROBE_REF_S: its CPU seconds times the mean of
# PROBE_REF_S / kernel time over the probes taken inside the span.
PROBE_REF_S = 100e-6
PROBE_PERIOD_S = 0.02
PROBE_MIN_SAMPLES = 3
_PROBE_MATRIX = None


def _probe_kernel() -> float:
    global _PROBE_MATRIX
    import numpy as np

    if _PROBE_MATRIX is None:
        _PROBE_MATRIX = (np.random.default_rng(0).random((6, 6)), np.ones(6))
    a, v = _PROBE_MATRIX
    total = 0.0
    for i in range(60):
        total += float((a @ v)[i % 6]) * 0.5 + i
    return total


def probe() -> tuple[float, float]:
    """(monotonic time at the probe's middle, seconds the kernel took)."""
    start = time.perf_counter()
    _probe_kernel()
    took = time.perf_counter() - start
    return time.monotonic() - took / 2, took


def speed_factor(samples, window) -> float:
    """Mean PROBE_REF_S / kernel time over the probes inside ``window``, or over
    the PROBE_MIN_SAMPLES probes nearest to its middle when it holds fewer.
    ``samples`` are probe() results in time order."""
    lo, hi = window
    times = [at for at, _ in samples]
    first, last = bisect.bisect_left(times, lo), bisect.bisect_right(times, hi)
    if last - first < PROBE_MIN_SAMPLES:
        middle = (lo + hi) / 2
        at = bisect.bisect_left(times, middle)
        near = range(max(0, at - PROBE_MIN_SAMPLES), min(len(times), at + PROBE_MIN_SAMPLES))
        chosen = sorted(near, key=lambda i: abs(times[i] - middle))[:PROBE_MIN_SAMPLES]
    else:
        chosen = range(first, last)
    return statistics.fmean(PROBE_REF_S / samples[i][1] for i in chosen)


def probe_core():
    """The core the parent and its children share, or None where it cannot be set."""
    core = max(CPUS)
    try:
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        return None
    for _ in range(50):     # warm the kernel up
        probe()
    return core


def sweep_threads() -> int:
    """NASHSEEK_THREADS for the children: the program's default cap of 4, at most nproc."""
    return max(1, min(4, nproc()))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["NASHSEEK_THREADS"] = str(sweep_threads())
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def environment(seed) -> dict:
    """Machine, interpreter and source identity recorded with every result."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nashseek").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(), "cpu": cpu, "nproc": nproc(),
            "python": platform.python_version(), "seed": seed,
            "NASHSEEK_THREADS": sweep_threads(), "blas_pins": BLAS_PINS,
            "pinned_core": PINNED[0], "probe_ref_s": PROBE_REF_S}


PINNED = [None]       # the shared core, once probe_core() has pinned the parent


def run_child(workload, seed, deadline, trace=False, smoke=False, record=False) -> dict:
    """Run child.py once and return its result (with 'error' set when it failed).

    Unless recording, the child runs on the parent's core while the parent
    probes the core's speed, and its run and setup spans are scaled by it.
    """
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke + ["--record"] * record
    samples = [] if record else [probe()]
    try:
        with open(workdir / "stderr.txt", "w") as err:
            proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            if PINNED[0] is not None and not record:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(proc.pid, {PINNED[0]})
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(cmd, deadline)
                if not record:
                    samples.append(probe())
                time.sleep(PROBE_PERIOD_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        result_path = workdir / "result.json"
        if result_path.is_file():
            out = json.loads(result_path.read_text())
        else:
            stderr = (workdir / "stderr.txt").read_text()[-2000:]
            out = {"error": f"child exited {proc.returncode} without a result: {stderr}"}
    except subprocess.TimeoutExpired:
        out = {"error": "child ran past the time budget"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "error" not in out and samples:
        scale(out, samples)
    return out


def scale(out: dict, samples) -> None:
    """Add run_s and setup_s: the child's spans in seconds at the probe's reference speed."""
    out["probes"] = len(samples)
    out["run_speed"] = speed_factor(samples, out["run_window"])
    out["run_s"] = out["run_cpu_s"] * out["run_speed"]
    if out["setup_samples"]:
        # each setup against the probes next to it: the speed changes within a child
        out["setup_s"] = statistics.median(
            seconds * speed_factor(samples, (end - seconds, end))
            for seconds, end in out["setup_samples"])


def _median(values):
    return statistics.median(values) if values else 0.0


def _tally(children) -> tuple[int, int]:
    """(attempted, failed) runs or sweep cells; a child that crashed fails all of its units."""
    attempted = failed = 0
    for c in children:
        n = c.get("attempted", 1)
        attempted += n
        failed += n if "error" in c else c["failed"]
    return attempted, failed


def measure_end_to_end(workload, seed, seconds, smoke=False):
    start = time.monotonic()
    deadline = start + BUDGET_S
    children = []
    while True:
        children.append(run_child(workload, seed, deadline, smoke=smoke))
        if "error" in children[-1]:
            break
        elapsed = time.monotonic() - start
        per_child = elapsed / len(children)
        if len(children) >= MIN_CHILDREN and elapsed + per_child > seconds:
            break
        if elapsed + 1.5 * per_child > BUDGET_S - 10:
            break
    attempted, failed = _tally(children)
    good = [c for c in children if "error" not in c]
    metrics = {
        "run_s": _median([c["run_s"] for c in good]),
        "setup_s": _median([c["setup_s"] for c in good]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in good]),
        "pass_rate": 100.0 * (attempted - failed) / attempted,
    }
    return children, attempted, failed, metrics, []


def measure_layers(workload, seed, smoke=False):
    deadline = time.monotonic() + BUDGET_S
    plain = run_child(workload, seed, deadline, smoke=smoke)
    traced = run_child(workload, seed, deadline, trace=True, smoke=smoke)
    children = [plain, traced]
    attempted, failed = _tally(children)
    if "error" in traced:
        return children, attempted, failed, {}, []
    metrics = dict(traced["layers"])
    absent = list(traced["absent"])
    for name, samples in traced["layer_calls"].items():
        if samples is None:
            absent.append(name)
            samples = [0.0]
        q1, med, q3 = _quartiles(samples)
        metrics[name], metrics[name + "_q1"], metrics[name + "_q3"] = med, q1, q3
    metrics["config.setup_s"] = _median(traced["config_setup_s"])
    metrics["graph.certificate_s"] = _median(traced["certificate_s"])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain.get("run_s", traced["run_s"])
    return children, attempted, failed, metrics, absent


def _quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(workload, seed, trace, smoke=False, seconds=0) -> tuple[dict, dict]:
    """Measure one workload; returns (result printed last, full record written to out/)."""
    spec = benchmark_spec()
    if trace:
        children, attempted, failed, raw, absent = measure_layers(workload, seed, smoke)
        declared = spec["per_layer"]
    else:
        children, attempted, failed, raw, absent = measure_end_to_end(workload, seed, seconds, smoke)
        declared = spec["end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] in raw:
            metrics[entry["name"]] = {"value": raw[entry["name"]], "unit": entry["unit"]}
    result = {"correct": failed == 0 and len(metrics) == len(declared),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment(seed)
    env.update(next((c["env"] for c in children if c.get("env")), {}))
    record = {"workload": workload, "trace": int(trace), "smoke": smoke, "env": env,
              "absent_layers": absent, "result": result,
              "children": [{k: v for k, v in c.items() if k != "spans"} for c in children],
              "spans": next((c["spans"] for c in children if "spans" in c), [])}
    return result, record


def report(workload, seed, trace, seconds) -> int:
    result, record = result_line(workload, seed, trace, seconds=seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for i, child in enumerate(record["children"]):
        if "error" in child:
            print(f"child {i}: error\n{child['error']}")
        else:
            print(f"child {i}: run_s={child.get('run_s', 0.0):.4f} "
                  f"(cpu {child['run_cpu_s']:.4f} s, wall {child['run_wall_s']:.4f} s, "
                  f"speed {child.get('run_speed', 1.0):.3f}, {child.get('probes', 0)} probes) "
                  f"reference={child['reference']} failures={child['failures']}")
    if record["absent_layers"]:
        print("absent layers: " + ", ".join(record["absent_layers"]))
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke() -> int:
    """Every workload at a tiny size, both modes; every declared metric present with its unit."""
    spec = benchmark_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, record = result_line(workload, 0, trace, smoke=True)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for entry in declared:
                got = result["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{workload} trace={int(trace)}: {entry['name']} missing or malformed")
            errors = [c.get("error") or c.get("failures") for c in record["children"]
                      if c.get("error") or c.get("failures")]
            if result["failed"] or errors:
                problems.append(f"{workload} trace={int(trace)}: {errors}")
            print(f"smoke {workload} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for problem in problems:
        print(problem)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def record_reference(seed_range: str, workloads) -> int:
    """Rewrite reference.json entries for the given seeds, e.g. '0-31', and workloads."""
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    jobs = [(w, s) for w in workloads for s in seeds]

    def one(job):
        return job, run_child(*job, deadline=time.monotonic() + BUDGET_S, record=True)

    bad = 0
    with ThreadPoolExecutor(max_workers=max(1, min(2, nproc()))) as pool:
        for (workload, seed), out in pool.map(one, jobs):
            if "error" in out or out["failed"]:
                bad += 1
                print(f"{workload} seed {seed}: not recorded: {out.get('error') or out['failures']}")
                continue
            table.setdefault(workload, {})[str(seed)] = out["rows"]
            print(f"{workload} seed {seed}: {out['rows']}")
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", metavar="LO-HI")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nashseek" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src' / 'nashseek'}", file=sys.stderr)
        return 2
    if args.record:
        return record_reference(args.record, [args.workload] if args.workload else names)
    PINNED[0] = probe_core()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return report(args.workload, args.seed, bool(args.trace), args.seconds)


if __name__ == "__main__":
    sys.exit(main())
