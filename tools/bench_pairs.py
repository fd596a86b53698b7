"""Paired benchmark of this tree against a parent checkout, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent DIR --label NAME \\
        --workload vehicles-n30:10 --workload turbines-state:2 [--seed 101]

DIR is a git checkout of the parent commit (``git clone``), so that the JSON
can name its commit.
For each ``--workload NAME:PAIRS`` the script runs PAIRS pairs of

    python3 perfbench/run.py --workload NAME --seed S --seconds RUN_SECONDS --trace 0

once in each tree, pair k on seed ``--seed + k``, alternating which tree runs
first; RUN_SECONDS is ``run_seconds`` in BENCHMARK.json, so both trees run
for the length the benchmark declares.  Before the first pair it writes the
bytecode of ``src`` and ``perfbench`` in both trees (``python -m compileall``):
perfbench children do not write bytecode, so a tree without it would compile
every module in each child, which moves ``peak_rss_mb``.  It also prints
and records the state of each checkout (``tree_state``): old results under
perfbench/out and a .git directory have gone with gaps in ``peak_rss_mb``
and ``run_s`` that the code did not explain, and so has the length of the
checkout's absolute path, which it also records and warns about when the
two trees' lengths differ.  It keeps both
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
                     run beats every parent run

A metric also gets "rerun": true when its medians differ by under RERUN_GAP
of the parent's and one side won nine tenths of the pairs; such gaps have
failed to repeat, so the printed line asks for a second run of pairs.

The JSON goes to the root of this tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def tree_state(tree: Path) -> dict:
    """The bytes and files under tree's perfbench/out, whether its .git is a directory,
    and the length of its absolute path."""
    files = [path for path in (tree / "perfbench" / "out").rglob("*") if path.is_file()]
    return {"perfbench_out_bytes": sum(path.stat().st_size for path in files),
            "perfbench_out_files": len(files), "git_is_dir": (tree / ".git").is_dir(),
            "path_length": len(str(tree.resolve()))}


def path_warning(parent: dict, change: dict):
    """A warning when the two trees' absolute paths differ in length (their tree_state), else None."""
    if parent["path_length"] == change["path_length"]:
        return None
    return (f"warning: the parent's path has {parent['path_length']} characters and the change's "
            f"{change['path_length']}; vehicles-n30 run_s has moved 6% between directory names of 12 "
            "and 13 characters, so put both trees at paths of one length")


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: list, change: list, bound: float, lower: bool) -> str:
    """better, within bound, worse or unresolved, as the module docstring defines them."""
    q1, median, q3 = quartiles(parent)
    band = bound * abs(median)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > band and not beats_all:
        return "unresolved"
    gain = (median - statistics.median(change)) * (1 if lower else -1)
    return "better" if gain > band else "worse" if -gain > band else "within bound"


def summarize(pairs) -> dict:
    """Per metric: each side's [q1, median, q3], the pairs the change won and the verdict."""
    out = {}
    for entry in SPEC["end_to_end"]:
        name, lower = entry["name"], entry["better"] == "lower"
        parent = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
        gap = abs(statistics.median(change) - statistics.median(parent))
        out[name] = {"unit": entry["unit"], "bound": entry["bound"],
                     "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
                     "change_wins": wins, "pairs": len(pairs),
                     "verdict": verdict(parent, change, entry["bound"], lower),
                     "rerun": 0 < gap < RERUN_GAP * abs(statistics.median(parent))
                     and not 0.1 * len(pairs) < wins < 0.9 * len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"{parent} holds no perfbench/run.py")

    rev = subprocess.run(["git", "-C", str(parent), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    if rev.returncode != 0:
        parser.error(f"{parent} is not a git checkout: {rev.stderr.strip()}")
    parent_sha = rev.stdout.strip()
    compile_cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    for tree in (parent, ROOT):
        subprocess.run(compile_cmd, cwd=tree, check=True)
    record = {"command": " ".join(["python3 tools/bench_pairs.py", f"--parent <checkout of {parent_sha}>",
                                   f"--label {args.label}", *(f"--workload {w}" for w in args.workload),
                                   f"--seed {args.seed}"]),
              "perfbench_command": "python3 perfbench/run.py --workload W --seed S "
                                   f"--seconds {SPEC['run_seconds']} --trace 0",
              "parent_git_sha": parent_sha,
              "compiled_first": "python3 -m compileall -q src perfbench, in both trees",
              "tree_state": {"parent": tree_state(parent), "change": tree_state(ROOT)},
              "workloads": {}}
    for side, state in record["tree_state"].items():
        print(f"{side} tree: {json.dumps(state)}", flush=True)
    warning = path_warning(**record["tree_state"])
    if warning:
        print(warning, flush=True)
    for item in args.workload:
        workload, _, count = item.partition(":")
        pairs = []
        for k in range(int(count or 1)):
            seed = args.seed + k
            order = [("parent", parent), ("change", ROOT)]
            if k % 2:
                order.reverse()
            pair = {"seed": seed, "first": order[0][0]}
            for side, tree in order:
                pair[side] = run_perfbench(tree, workload, seed)
                print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['result'])}", flush=True)
            pairs.append(pair)
        summary = summarize(pairs)
        failed = {side: [sum(p[side]["result"][key] for p in pairs) for key in ("failed", "attempted")]
                  for side in ("parent", "change")}
        record["workloads"][workload] = {"pairs": pairs, "failed_of_attempted": failed, "summary": summary}
        print(f"{workload} failed/attempted: " + ", ".join(f"{side} {f}/{a}" for side, (f, a) in failed.items()))
        for name, entry in summary.items():
            print(f"{workload} {name}: {entry['verdict']} (median {entry['parent_quartiles'][1]:.6g} -> "
                  f"{entry['change_quartiles'][1]:.6g} {entry['unit']}, bound {entry['bound']:.0%} of the "
                  f"parent median, change won {entry['change_wins']}/{entry['pairs']})"
                  + (f"; rerun: a gap under {RERUN_GAP:.0%} this one-sided needs a second run of pairs"
                     if entry["rerun"] else ""), flush=True)
        record.setdefault("environment", pairs[0]["change"]["env"])

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
