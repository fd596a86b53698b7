"""Tests of the tools: each layer of time_layers.py runs, gives its keys and patches nothing;
bench_pairs.py clones both commits to fresh trees at paths of one length, exits 2 before any
clone when its parent is no commit, src is edited or --aa names no A/A record of every
workload, and turns a verdict within the A/A floor into unresolved.  None of them runs
perfbench."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

from nashseek import affine, sim

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
needs_git = pytest.mark.skipif(
    subprocess.run(["git", "-C", str(REPO), "rev-parse", "--is-inside-work-tree"],
                   capture_output=True, check=False).returncode != 0,
    reason="bench_pairs.py clones commits of a git work tree")


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tool(monkeypatch):
    # the tool pins BLAS through os.environ at import; the fixture undoes that
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    module = load("time_layers")
    module.SPAN_S = 0
    return module


def test_each_layer_gives_its_keys_and_patches_nothing(tool):
    # the record and step layers read the run's Trajectory.stepping, so none of these may change
    patched = [(sim._Recorder, "extend"), (sim._Recorder, "split"), (affine.DriftFold, "intervals"),
               (affine, "fold_blocks"), (affine, "fold_drift_rk4"), (sim, "fold_drift_rk4"),
               (affine, "etd_maps"), (affine, "fold_drift_etdrk4"), (sim, "fold_drift_etdrk4"),
               (sim, "_fold_stepper"), (sim, "_plan"), (sim, "_rk4_stepper"), (sim, "rk4_step")]
    originals = [getattr(owner, name) for owner, name in patched]

    probe = tool.LAYERS["probe"]("2")
    assert list(probe) == [2]
    assert list(probe[2]) == ["size", "median_s", "repeats", "nonzeros", "lanes", "calls"]
    assert probe[2]["size"] == 20 and probe[2]["repeats"] == 3 and probe[2]["calls"] >= 1

    cert = tool.LAYERS["certificate"]("3")
    assert list(cert[3]) == ["median_s", "repeats", "passed", "residual"]
    assert cert[3]["passed"] is True

    record = tool.LAYERS["record"]("state")
    assert list(record) == ["algo", "records", "group", "csv_bytes", "repeats",
                            "run_s", "record_s", "csv_write_s"]
    assert (record["records"], record["group"]) == (3335, 7)
    assert record["csv_bytes"] > 0 and 0 < record["record_s"] < record["run_s"]

    step = tool.LAYERS["step"]("2", "lanes=2")
    assert list(step) == [2]
    assert list(step[2]) == ["size", "lanes", "kind", "group", "fold_bytes", "blocks", "fold_blocks_s",
                             "fold_drift_rk4_s", "intervals_s", "folded_us", "folded_price_us", "sparse_us",
                             "sparse_price_us", "group_us", "group_price_us", "repeats", "windows", "passes", "c",
                             "plan_s", "phi_s", "coarse_fold_s", "coarse_fold_price_s", "coarse_pass_s",
                             "fine_pass_s"]
    # two vehicles: size 20 and a 37 x 20 map, whose 37 inputs 2 400 steps of two lanes pay back,
    # split by coordinate into two blocks of 19 x 10, and stage matrices of 25, 29 and 33 rows over
    # the 8 chain rows; a loop with drift has no groups to build
    assert (step[2]["size"], step[2]["lanes"], step[2]["kind"], step[2]["group"]) == (20, 2, "folded", None)
    assert (step[2]["fold_bytes"], step[2]["blocks"]) == (8 * (2 * 19 * 10 + 8 * (25 + 29 + 33)), 2)
    assert all(step[2][key] is None for key in ("intervals_s", "group_us", "group_price_us"))
    assert step[2]["repeats"] == 3
    # two lanes of 2 400 steps of so small a loop still gain by record windows: 30 windows of 80
    # steps at c = 40 (c dt = 0.2, within the trace bound), priced at two passes; the drift, which
    # the bound does not see, asks for a third
    window_keys = ("c", "plan_s", "phi_s", "coarse_fold_s", "coarse_fold_price_s", "coarse_pass_s", "fine_pass_s")
    assert (step[2]["windows"], step[2]["c"], step[2]["passes"]) == (30, 40, 3)
    assert all(0 < step[2][key] for key in ("fold_blocks_s", "fold_drift_rk4_s", "folded_us", "sparse_us",
                                            "folded_price_us", "sparse_price_us"))
    # in output mode the observer adds 8 states: blocks of 23 x 14 and stage matrices of 33, 37 and 41 rows
    output = tool.LAYERS["step"]("2", "output")
    assert list(output) == [2] and list(output[2]) == list(step[2])
    assert (output[2]["size"], output[2]["lanes"], output[2]["kind"], output[2]["group"]) == (28, 1, "folded", None)
    assert (output[2]["fold_bytes"], output[2]["blocks"]) == (8 * (2 * 23 * 14 + 8 * (33 + 37 + 41)), 2)
    # one lane of 2 400 steps at dt = 2e-3 takes 40 windows of 60 steps, the coarse step 30 of them,
    # in the two passes it was priced
    assert (output[2]["windows"], output[2]["c"], output[2]["passes"]) == (40, 30, 2)
    assert all(0 < output[2][key] for key in window_keys)
    # 60 steps of it find no plan that pays
    short = tool.LAYERS["step"]("2", "output", "steps=60")[2]
    assert (short["windows"], short["passes"]) == (None, 0) and all(short[key] is None for key in window_keys)
    # six drift-free generators: size 66, whose 2 400 steps at stride 10 pay back a group of 7, and
    # one 67 x 66 block
    turbines = tool.LAYERS["step"]("6", "turbines")
    assert list(turbines) == [6] and list(turbines[6]) == list(step[2])
    assert (turbines[6]["size"], turbines[6]["kind"], turbines[6]["group"]) == (66, "folded", 7)
    assert (turbines[6]["fold_bytes"], turbines[6]["blocks"]) == (8 * 67 * 66, 1)
    assert turbines[6]["windows"] is None and all(turbines[6][key] is None for key in window_keys)
    assert all(0 < turbines[6][key] for key in ("fold_blocks_s", "fold_drift_rk4_s", "intervals_s",
                                                "folded_us", "sparse_us", "group_us", "group_price_us"))
    # the plan layer times the plan taken and the others on either side of a boundary: 30 steps of
    # the six generators step "sparse", as the fold's build does not pay back, 100 steps take groups
    # of two maps
    plans = tool.LAYERS["plan"]("6", "turbines", "steps=30,100")
    assert list(plans) == [6] and list(plans[6]) == [30, 100]
    assert list(plans[6][30]) == ["plan", "repeats", "plan_s", "sparse_s", "folded_s", "group_s"]
    assert plans[6][30]["plan"] == ["sparse", None, None, None] and plans[6][100]["plan"][:2] == ["folded", 2]
    assert all(0 < plans[6][30][key] for key in ("plan_s", "sparse_s", "folded_s", "group_s"))
    json.dumps([probe, cert, record, step, output, turbines, plans])

    assert [getattr(owner, name) for owner, name in patched] == originals


@needs_git
def test_both_clones_sit_at_paths_of_one_length_compiled_and_without_old_results(tmp_path):
    bench_pairs = load("bench_pairs")
    head = bench_pairs.git("rev-parse", "HEAD").stdout.strip()
    trees = bench_pairs.clone_trees({"parent": head, "change": head}, tmp_path)
    assert trees == {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    assert len(str(trees["parent"].resolve())) == len(str(trees["change"].resolve()))
    for tree in trees.values():
        rev = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
        assert rev.stdout.strip() == head and (tree / ".git").is_dir()
        assert not (tree / "perfbench" / "out").exists()
        assert list((tree / "src" / "nashseek" / "__pycache__").glob("sim.*.pyc"))


class CloneStarted(Exception):
    pass


@pytest.fixture
def clone_main(tmp_path, monkeypatch):
    """bench_pairs.main on a fresh clone of HEAD, which raises CloneStarted where it would clone."""
    root = tmp_path / "repo"
    subprocess.run(["git", "clone", "--quiet", str(REPO), str(root)], check=True)
    bench_pairs = load("bench_pairs")
    monkeypatch.setattr(bench_pairs, "ROOT", root)

    def clone_trees(shas, tmp):
        raise CloneStarted(shas)

    monkeypatch.setattr(bench_pairs, "clone_trees", clone_trees)
    return root, lambda rev: bench_pairs.main(["--parent", rev, "--label", "test", "--workload", "turbines-state:1"])


@needs_git
@pytest.mark.parametrize("edited", [False, True])
def test_an_edited_src_file_exits_two_before_any_clone(clone_main, capsys, edited):
    root, main = clone_main
    if edited:
        with open(root / "src" / "nashseek" / "sim.py", "a") as source:
            source.write("# edited\n")
        with pytest.raises(SystemExit) as stop:
            main("HEAD")
        assert stop.value.code == 2 and "src/nashseek/sim.py" in capsys.readouterr().err
    else:
        # the A/A run: both sides are HEAD
        with pytest.raises(CloneStarted) as started:
            main("HEAD")
        shas = started.value.args[0]
        assert list(shas) == ["parent", "change"] and shas["parent"] == shas["change"]
    assert not (root / "BENCH_test.json").exists()


@needs_git
@pytest.mark.parametrize("rev", ["no-such-rev", "HEAD:README.md"], ids=["unknown", "a-blob"])
def test_a_parent_that_is_no_commit_exits_two(clone_main, capsys, rev):
    _, main = clone_main
    with pytest.raises(SystemExit) as stop:
        main(rev)
    assert stop.value.code == 2 and f"{rev} is not a commit" in capsys.readouterr().err


def test_an_aa_floor_turns_a_gap_it_covers_into_unresolved():
    bench_pairs = load("bench_pairs")
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    faster, slower = [0.80, 0.81, 0.79, 0.80, 0.82], [1.30, 1.31, 1.29, 1.30, 1.32]
    # medians 1.00 -> 0.80 and 1.30, beyond a bound of 0.1 of the parent median
    assert bench_pairs.verdict(parent, faster, 0.1, lower=True) == "better"
    assert bench_pairs.verdict(parent, slower, 0.1, lower=True) == "worse"
    assert bench_pairs.verdict(parent, faster, 0.1, lower=True, floor=0.19) == "better"
    assert bench_pairs.verdict(parent, slower, 0.1, lower=True, floor=0.29) == "worse"
    # a floor above the median gap: the A/A runs moved more with no change
    assert bench_pairs.verdict(parent, faster, 0.1, lower=True, floor=0.21) == "unresolved"
    assert bench_pairs.verdict(parent, slower, 0.1, lower=True, floor=0.31) == "unresolved"
    # within bound stays within bound whatever the floor
    assert bench_pairs.verdict(parent, parent, 0.1, lower=True, floor=1.0) == "within bound"


def aa_record(parent_sha, change_sha, workloads):
    summary = {"run_s": {"parent_quartiles": [0.5, 0.6, 0.7], "change_quartiles": [0.5, 0.58, 0.7]}}
    return {"parent_git_sha": parent_sha, "change_git_sha": change_sha,
            "workloads": {name: {"summary": summary} for name in workloads}}


@pytest.mark.parametrize("record, message", [
    (aa_record("a" * 40, "b" * 40, ["turbines-state"]), "is not an A/A record"),
    (aa_record("a" * 40, "a" * 40, ["vehicles-n30"]), "holds no turbines-state"),
    (None, "cannot read BENCH_floor.json")], ids=["two-shas", "missing-workload", "no-file"])
def test_aa_that_is_no_aa_record_of_every_workload_exits_two_before_any_run(tmp_path, monkeypatch, capsys,
                                                                            record, message):
    bench_pairs = load("bench_pairs")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: pytest.fail("reached git"))
    if record is not None:
        (tmp_path / "BENCH_floor.json").write_text(json.dumps(record))
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", "HEAD", "--label", "test", "--workload", "turbines-state:1",
                          "--aa", "floor"])
    assert stop.value.code == 2 and message in capsys.readouterr().err


def test_aa_floors_are_each_metric_gap_of_medians(tmp_path, monkeypatch):
    bench_pairs = load("bench_pairs")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCH_floor.json").write_text(json.dumps(aa_record("a" * 40, "a" * 40, ["turbines-state"])))
    floors = bench_pairs.aa_floors("floor", ["turbines-state"])
    assert list(floors) == ["turbines-state"] and floors["turbines-state"]["run_s"] == pytest.approx(0.02)
