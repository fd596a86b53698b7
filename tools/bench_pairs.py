"""Paired benchmark of a parent commit against HEAD, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent REV --label NAME \\
        --workload vehicles-n30:10 --workload turbines-state:2 [--seed 101] [--aa LABEL]

The change is this repository's HEAD and the parent is REV, any name git
resolves to a commit.  Both run from fresh local clones, <tmp>/parent and
<tmp>/change in one new temporary directory: the two paths have one length,
each tree has its own .git and neither holds old perfbench/out results.  The
directory goes when the run ends, on error too.  The script exits 2 before any
run when REV is no commit or when ``git status`` shows src or perfbench
edited, since an edit would not be measured.  ``--parent HEAD`` runs HEAD
against itself, the A/A run, whose gaps are the session's noise floor.

For each ``--workload NAME:PAIRS`` the script runs PAIRS pairs of

    python3 perfbench/run.py --workload NAME --seed S --seconds RUN_SECONDS --trace 0

once in each tree, pair k on seed ``--seed + k``, alternating which tree runs
first; RUN_SECONDS is ``run_seconds`` in BENCHMARK.json, so both trees run
for the length the benchmark declares.  Before the first pair it writes the
bytecode of ``src`` and ``perfbench`` in both trees (``python -m compileall``):
perfbench children do not write bytecode, so a tree without it would compile
every module in each child, which moves ``peak_rss_mb``.  It keeps both
result lines of every pair, the environment record perfbench prints, and per
workload each side's pooled ``failed``/``attempted`` operations (from perfbench's
result lines), and per metric each side's quartiles, the number of pairs the
change won and a verdict, which it also prints:

    better / worse   the change median beats / trails the parent median by more
                     than the metric's BENCHMARK.json bound, read as a fraction
                     of the parent median
    within bound     neither
    unresolved       the parent's IQR exceeds that same fraction of its median,
                     so its runs are too spread to tell, unless every change
                     run beats every parent run; or, with --aa, the medians
                     differ by no more than the A/A floor

With ``--aa LABEL`` the script first reads BENCH_<LABEL>.json, which must be an
A/A record (one sha on both sides) of every workload asked for, else it exits 2
before any run.  A metric's floor is the gap between that record's two medians;
better or worse then also needs the medians to differ by more than the floor.
The JSON names the A/A file and, per metric, the floor.

A metric also gets "rerun": true when its medians differ by under RERUN_GAP
of the parent's and one side won nine tenths of the pairs; such gaps have
failed to repeat, so the printed line asks for a second run of pairs.

The JSON, which names both commits, goes to the root of this repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RERUN_GAP = 0.03


def run_perfbench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench printed nothing in {tree}: {proc.stderr[-2000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"result": json.loads(lines[-1]), "env": env, "exit_code": proc.returncode}


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=False)


def clone_trees(shas: dict, tmp: Path) -> dict:
    """A fresh local clone of each side's commit at tmp/<side>, with src and perfbench compiled."""
    trees = {side: tmp / side for side in shas}
    for side, tree in trees.items():
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(tree)], check=True)
        subprocess.run(["git", "-C", str(tree), "checkout", "--quiet", "--detach", shas[side]], check=True)
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)
    return trees


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: list, change: list, bound: float, lower: bool, floor: float = 0.0) -> str:
    """better, within bound, worse or unresolved, as the module docstring defines them;
    floor is the A/A gap of the medians, 0 without one."""
    q1, median, q3 = quartiles(parent)
    band = bound * abs(median)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > band and not beats_all:
        return "unresolved"
    gain = (median - statistics.median(change)) * (1 if lower else -1)
    if abs(gain) > band and abs(gain) <= floor:
        return "unresolved"
    return "better" if gain > band else "worse" if -gain > band else "within bound"


def aa_floors(label: str, workloads: list) -> dict:
    """{workload: {metric: floor}} of the A/A record BENCH_<label>.json; ValueError naming what is wrong."""
    path = ROOT / f"BENCH_{label}.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"--aa {label}: cannot read {path.name}: {exc}") from None
    if record.get("parent_git_sha") is None or record.get("parent_git_sha") != record.get("change_git_sha"):
        raise ValueError(f"--aa {label}: {path.name} is not an A/A record (its parent and change shas differ)")
    missing = [w for w in workloads if w not in record.get("workloads", {})]
    if missing:
        raise ValueError(f"--aa {label}: {path.name} holds no {', '.join(missing)}")
    return {w: {name: abs(entry["change_quartiles"][1] - entry["parent_quartiles"][1])
                for name, entry in record["workloads"][w]["summary"].items()} for w in workloads}


def summarize(pairs, floors: dict) -> dict:
    """Per metric: each side's [q1, median, q3], the pairs the change won, the A/A floor (None
    without one) and the verdict."""
    out = {}
    for entry in SPEC["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
        gap = abs(statistics.median(change) - statistics.median(parent))
        out[name] = {"unit": entry["unit"], "bound": entry["bound"],
                     "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
                     "change_wins": wins, "pairs": len(pairs), "aa_floor": floors.get(name),
                     "verdict": verdict(parent, change, entry["bound"], lower, floors.get(name, 0.0)),
                     "rerun": 0 < gap < RERUN_GAP * abs(statistics.median(parent))
                     and not 0.1 * len(pairs) < wins < 0.9 * len(pairs)}
    return out


def pair_runs(trees: dict, workload: str, count: int, first_seed: int, floors: dict) -> dict:
    """count pairs of workload in the two trees, alternating which runs first, with their
    pooled failed/attempted operations and summary, which it also prints."""
    pairs = []
    for k in range(count):
        seed = first_seed + k
        order = list(trees.items())[::-1 if k % 2 else 1]
        pair = {"seed": seed, "first": order[0][0]}
        for side, tree in order:
            pair[side] = run_perfbench(tree, workload, seed)
            print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['result'])}", flush=True)
        pairs.append(pair)
    summary = summarize(pairs, floors)
    failed = {side: [sum(p[side]["result"][key] for p in pairs) for key in ("failed", "attempted")]
              for side in ("parent", "change")}
    print(f"{workload} failed/attempted: " + ", ".join(f"{side} {f}/{a}" for side, (f, a) in failed.items()))
    for name, entry in summary.items():
        print(f"{workload} {name}: {entry['verdict']} (median {entry['parent_quartiles'][1]:.6g} -> "
              f"{entry['change_quartiles'][1]:.6g} {entry['unit']}, bound {entry['bound']:.0%} of the "
              f"parent median, change won {entry['change_wins']}/{entry['pairs']}"
              + ("" if entry["aa_floor"] is None else f", A/A floor {entry['aa_floor']:.6g}") + ")"
              + (f"; rerun: a gap under {RERUN_GAP:.0%} this one-sided needs a second run of pairs"
                 if entry["rerun"] else ""), flush=True)
    return {"pairs": pairs, "failed_of_attempted": failed, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the parent commit; HEAD is the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    parser.add_argument("--aa", metavar="LABEL", help="the A/A record BENCH_<LABEL>.json whose gaps are floors")
    args = parser.parse_args(argv)
    workloads = [(name, int(count or 1)) for name, _, count in (w.partition(":") for w in args.workload)]
    try:
        floors = {} if args.aa is None else aa_floors(args.aa, [name for name, _ in workloads])
    except ValueError as exc:
        parser.error(str(exc))
    shas = {}
    for side, rev in (("parent", args.parent), ("change", "HEAD")):
        resolved = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        if resolved.returncode != 0:
            parser.error(f"{rev} is not a commit of {ROOT}")
        shas[side] = resolved.stdout.strip()
    edited = git("status", "--porcelain", "--", "src", "perfbench").stdout
    if edited:
        parser.error(f"the change is HEAD, but src or perfbench differ from it; commit them first:\n{edited}")

    record = {"command": " ".join(["python3 tools/bench_pairs.py", f"--parent {args.parent}",
                                   f"--label {args.label}", *(f"--workload {w}" for w in args.workload),
                                   f"--seed {args.seed}", *([f"--aa {args.aa}"] if args.aa else [])]),
              "perfbench_command": "python3 perfbench/run.py --workload W --seed S "
                                   f"--seconds {SPEC['run_seconds']} --trace 0",
              "parent_git_sha": shas["parent"], "change_git_sha": shas["change"],
              "compiled_first": "python3 -m compileall -q src perfbench, in both clones",
              "aa_record": None if args.aa is None else f"BENCH_{args.aa}.json", "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = clone_trees(shas, Path(tmp))
        for workload, count in workloads:
            runs = record["workloads"][workload] = pair_runs(trees, workload, count, args.seed,
                                                             floors.get(workload, {}))
            record.setdefault("environment", runs["pairs"][0]["change"]["env"])

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
