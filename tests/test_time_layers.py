"""Tests of the tools: each layer of time_layers.py runs, gives its keys and patches nothing,
and bench_pairs.py records the state of each checkout it compares and warns when their paths
differ in length."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from nashseek import affine, sim

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
               (sim, "_fold_stepper"), (sim, "_folds"), (sim, "_rk4_stepper"), (sim, "rk4_step")]
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
                             "fold_drift_rk4_s", "intervals_s", "folded_us", "sparse_us", "repeats"]
    # two vehicles: size 20 and a 37 x 20 map, whose 37 inputs 2 400 steps of two lanes pay back,
    # split by coordinate into two blocks of 19 x 10, and stage matrices of 25, 29 and 33 rows over
    # the 8 chain rows; a loop with drift has no groups to build
    assert (step[2]["size"], step[2]["lanes"], step[2]["kind"], step[2]["group"]) == (20, 2, "folded", None)
    assert (step[2]["fold_bytes"], step[2]["blocks"]) == (8 * (2 * 19 * 10 + 8 * (25 + 29 + 33)), 2)
    assert step[2]["intervals_s"] is None and step[2]["repeats"] == 3
    assert all(0 < step[2][key] for key in ("fold_blocks_s", "fold_drift_rk4_s", "folded_us", "sparse_us"))
    # in output mode the observer adds 8 states: blocks of 23 x 14 and stage matrices of 33, 37 and 41 rows
    output = tool.LAYERS["step"]("2", "output")
    assert list(output) == [2] and list(output[2]) == list(step[2])
    assert (output[2]["size"], output[2]["lanes"], output[2]["kind"], output[2]["group"]) == (28, 1, "folded", None)
    assert (output[2]["fold_bytes"], output[2]["blocks"]) == (8 * (2 * 23 * 14 + 8 * (33 + 37 + 41)), 2)
    # six drift-free generators: size 66, whose 2 400 steps at stride 10 pay back a group of 7, and
    # one 67 x 66 block
    turbines = tool.LAYERS["step"]("6", "turbines")
    assert list(turbines) == [6] and list(turbines[6]) == list(step[2])
    assert (turbines[6]["size"], turbines[6]["kind"], turbines[6]["group"]) == (66, "folded", 7)
    assert (turbines[6]["fold_bytes"], turbines[6]["blocks"]) == (8 * 67 * 66, 1)
    assert all(0 < turbines[6][key] for key in ("fold_blocks_s", "fold_drift_rk4_s", "intervals_s",
                                                "folded_us", "sparse_us"))
    json.dumps([probe, cert, record, step, output, turbines])

    assert [getattr(owner, name) for owner, name in patched] == originals


def test_tree_state_counts_old_results_and_the_git_directory(tmp_path):
    tree_state = load("bench_pairs").tree_state
    length = len(str(tmp_path.resolve()))
    assert tree_state(tmp_path) == {"perfbench_out_bytes": 0, "perfbench_out_files": 0, "git_is_dir": False,
                                    "path_length": length}
    (tmp_path / "perfbench" / "out" / "run").mkdir(parents=True)
    (tmp_path / "perfbench" / "out" / "a.json").write_text("abc")
    (tmp_path / "perfbench" / "out" / "run" / "b.json").write_text("hello")
    (tmp_path / ".git").mkdir()
    assert tree_state(tmp_path) == {"perfbench_out_bytes": 8, "perfbench_out_files": 2, "git_is_dir": True,
                                    "path_length": length}


def test_trees_at_paths_of_different_lengths_get_a_warning(tmp_path):
    bench_pairs = load("bench_pairs")
    trees = {name: tmp_path / name for name in ("parent", "change", "change2")}
    for tree in trees.values():
        tree.mkdir()
    state = {name: bench_pairs.tree_state(tree) for name, tree in trees.items()}
    assert state["change2"]["path_length"] == state["parent"]["path_length"] + 1
    assert bench_pairs.path_warning(state["parent"], state["change"]) is None
    warning = bench_pairs.path_warning(state["parent"], state["change2"])
    n = state["parent"]["path_length"]
    assert warning.startswith(f"warning: the parent's path has {n} characters and the change's {n + 1};")
