"""CLI behavior: exit codes, file outputs, overrides, determinism."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from nashseek import cli, scenarios, sim
from nashseek.cli import main
from nashseek.config import (
    apply_set_overrides,
    build_run_setup,
    default_config,
    digraph_from_json,
    load_config_file,
)
from nashseek.control import ObserverSet
from nashseek.errors import ConfigInvalid


def run_cli(*argv):
    return main(list(argv))


class TestConfigPlumbing:
    def test_default_config_round_trip(self):
        cfg = default_config("vehicles", "state")
        setup = build_run_setup(cfg)
        assert setup.scenario_name == "vehicles"
        assert setup.gains.alpha1 == 3.0
        assert setup.gains.k == (1.0,)  # "auto" resolves to the binomial default

    def test_turbines_desk_defaults(self):
        setup = build_run_setup(default_config("turbines", "output"))
        assert setup.gains.k == (3.375, 6.75, 4.5)
        assert setup.observer.mu == 0.01
        assert setup.ordering_warning is None

    @pytest.mark.parametrize("scenario", ["vehicles", "turbines"])
    def test_only_output_mode_gets_an_observer(self, scenario):
        # the observer is what selects output feedback in sim.run
        assert build_run_setup(default_config(scenario, "state")).observer is None
        observer = build_run_setup(default_config(scenario, "output")).observer
        assert isinstance(observer, ObserverSet)
        assert observer.mu == default_config(scenario)["observer"]["mu"]
        # state mode still checks the observer block it does not run
        with pytest.raises(ConfigInvalid, match="mu must be finite and positive"):
            build_run_setup(apply_set_overrides(default_config(scenario, "state"), ["mu=-1"]))

    def test_set_override_aliases(self):
        cfg = default_config("vehicles", "output")
        cfg = apply_set_overrides(cfg, ["mu=0.04", "sim.dt=0.002", "alpha3=25"])
        assert cfg["observer"]["mu"] == 0.04
        assert cfg["sim"]["dt"] == 0.002
        assert cfg["gains"]["alpha3"] == 25

    def test_merge_preserves_nested_defaults(self):
        setup = build_run_setup({"scenario": "vehicles", "gains": {"alpha1": 5.0}})
        assert setup.config_echo["gains"] == dict(default_config("vehicles")["gains"], alpha1=5.0)
        assert setup.gains.alpha1 == 5.0
        assert setup.gains.alpha2 == 2.2

    def test_library_path_gets_the_cli_defaults(self):
        bare = build_run_setup({"scenario": "turbines"})
        pinned = build_run_setup(default_config("turbines"))
        assert bare.gains == pinned.gains
        assert bare.gains.k == (3.375, 6.75, 4.5)
        assert bare.observer == pinned.observer
        assert bare.sim_config == pinned.sim_config
        assert bare.init.box == pinned.init.box == (0.0, 10.0)
        assert bare.config_echo == pinned.config_echo

    def test_library_path_rejects_unknown_key(self):
        cfg = default_config("turbines")
        cfg["alpah1"] = 99
        with pytest.raises(ConfigInvalid, match="'gains.alpha1'"):
            build_run_setup(cfg)

    def test_filled_config_is_fresh(self):
        cfg = default_config("turbines")
        cfg["init"]["box"].append(1.0)
        cfg["gains"]["k"][0] = 0.0
        assert default_config("turbines")["init"]["box"] == [0.0, 10.0]
        assert default_config("turbines")["gains"]["k"] == [3.375, 6.75, 4.5]

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
        assert json.loads(re.sub(r"//[^\n]*", "", block)) == default_config("vehicles")

    def test_graph_json_wire_format(self):
        g = digraph_from_json({"n": 2, "edges": [{"to": 1, "from": 2, "w": 1.5}]})
        assert g.weights[0, 1] == 1.5

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "vehicles",}')
        with pytest.raises(ConfigInvalid) as err:
            load_config_file(bad)
        assert "line" in str(err.value) and "column" in str(err.value)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigInvalid):
            default_config("rockets")

    def test_long_form_scenario_aliases(self):
        assert default_config("vehicle_formation")["scenario"] == "vehicles"
        setup = build_run_setup(default_config("turbine_market"))
        assert setup.scenario_name == "turbines"

    def test_scenario_param_overrides_flow_through(self):
        cfg = default_config("turbines")
        cfg["scenario_params"] = {"graph": {
            "n": 6,
            "edges": [{"to": (i % 6) + 1, "from": ((i + 1) % 6) + 1, "w": 1.0} for i in range(6)]
                     + [{"to": ((i + 1) % 6) + 1, "from": (i % 6) + 1, "w": 2.0} for i in range(6)],
        }}
        setup = build_run_setup(cfg)
        assert setup.graph.weights[0, 1] == 1.0
        assert setup.graph.weights[1, 0] == 2.0

    @pytest.mark.parametrize("block, value", [
        ("gains", 5), ("gains", [1]), ("observer", 5), ("init", 5), ("sim", 5), ("scenario_params", 5),
    ])
    def test_library_path_rejects_non_object_block(self, block, value):
        cfg = default_config("vehicles", "output")
        cfg[block] = value
        with pytest.raises(ConfigInvalid, match=block):
            build_run_setup(cfg)


class TestRunCommand:
    def test_short_vehicle_run_writes_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli("run", "--scenario", "vehicles", "--algo", "state",
                       "--out", str(out),
                       "--set", "horizon=1.0", "--set", "settle_tol=1e6")
        assert code == 0
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["settle_time"] == 0.0  # huge tolerance settles immediately
        assert summary["gain_ordering_warnings"] == []
        assert summary["config_echo"]["sim"]["horizon"] == 1.0

    def test_not_settled_exits_three(self, tmp_path):
        code = run_cli("run", "--scenario", "vehicles", "--algo", "state",
                       "--out", str(tmp_path), "--set", "horizon=0.5")
        assert code == 3

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = run_cli("run", "--config", str(tmp_path / "none.json"))
        assert code == 2

    def test_malformed_config_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("run", "--config", str(bad)) == 2

    def test_bad_override_value_exits_two(self, tmp_path):
        code = run_cli("run", "--scenario", "vehicles", "--out", str(tmp_path),
                       "--set", "dt=-1")
        assert code == 2

    @pytest.mark.parametrize("argv, key", [
        (["run", "--set", "alpah1=99"], "'gains.alpha1'"),
        (["run", "--set", "sim.snapshot_stride=0"], "sim.snapshot_stride"),
        (["run", "--set", "scenario_params.rh=1"], "'scenario_params.rho'"),
        (["sweep", "--param", "sim.sed", "--values", "1"], "'sim.seed'"),
        (["run", "--set", "gains=5"], "gains"),
        (["run", "--set", "init=5"], "init"),
        (["run", "--set", "observer=[1]"], "observer"),
        (["run", "--set", "scenario_params=5"], "scenario_params"),
        (["run", "--set", "scenario_params.rho=abc"], "scenario_params"),
        (["run", "--set", "scenario_params.table=5"], "scenario_params"),
        (["run", "--set", "box=5"], "box"),
        (["run", "--set", "decisions=[1,2]"], "decisions"),
        (["run", "--set", "scenario=[1]"], "scenario"),
        (["run", "--set", "settle_tol=abc"], "settle_tol"),
        (["run", "--set", "output_dir=[1]"], "output_dir"),
        (["run", "--set", "settle_tol=NaN"], "settle_tol"),
        (["run", "--set", "settle_tol=0"], "settle_tol"),
        (["run", "--set", "dt=NaN"], "dt"),
        (["run", "--set", "dt=Infinity"], "dt"),
        (["run", "--set", "box=[0,NaN]"], "box"),
        (["run", "--set", "box=[5,0]"], "box"),
        (["run", "--set", "seed=-1"], "seed"),
        (["run", "--set", "record_stride=1.5"], "record_stride"),
        (["run", "--set", "k=[NaN]"], "k="),
        (["run", "--set", "beta=[NaN,1]"], "beta="),
        (["run", "--set", "epsilon=NaN"], "epsilon"),
        (["run", "--set", "alpha3=NaN"], "alpha3"),
        (["run", "--algo", "output", "--set", "mu=NaN"], "mu"),
        (["run", "--set", "scenario_params.rho=NaN"], "scenario_params.rho"),
        (["run", "--set", "scenario_params.rho=-1"], "scenario_params.rho"),
        (["run", "--set", "scenario_params.star_radius=NaN"], "scenario_params.star_radius"),
        (["run", "--set", "decisions=[" + ",".join(["[1,2]"] * 9 + ["[0,NaN]"]) + "]"], "init.decisions"),
        (["run", "--set", "scenario_params.offsets=[[0,0],[1,Infinity]]"], "scenario_params.offsets"),
        (["run", "--set", "scenario_params.table=[[1800,2.18,1.53,NaN]]"], "scenario_params.table"),
        (["run", "--set", "derivatives=[[" + ",".join(["[0,0]"] * 9 + ["[-Infinity,0]"]) + "]]"],
         "init.derivatives"),
        (["run", "--set", "dt=1e-300"], "sim.dt=1e-300"),
        (["run", "--set", "dt=1e-320"], "dt 1e-320"),
        # float() reads JSON true and false as 1 and 0; no key takes them
        (["run", "--set", "dt=true"], "sim.dt"),
        (["run", "--set", "settle_tol=true"], "settle_tol"),
        (["run", "--set", "epsilon=true"], "gains.epsilon"),
        (["run", "--set", "alpha2=false"], "gains.alpha2"),
        (["run", "--set", "k=[true]"], "gains.k"),
        (["run", "--set", "beta=[2,true]"], "observer.beta"),
        (["run", "--set", "mu=true"], "observer.mu"),
        (["run", "--set", "box=[false,10]"], "init.box"),
        (["run", "--set", "decisions=[" + ",".join(["[1,2]"] * 9 + ["[0,true]"]) + "]"], "init.decisions"),
        (["run", "--set", "derivatives=[[" + ",".join(["[0,0]"] * 9 + ["[false,0]"]) + "]]"],
         "init.derivatives"),
        (["run", "--set", "scenario_params.table=[[1800,2.18,1.53,true]]"], "scenario_params.table"),
        (["run", "--set", "scenario_params.rho=true"], "scenario_params.rho"),
        (["run", "--set", "scenario_params.offsets=[[0,0],[1,true]]"], "scenario_params.offsets"),
        (["run", "--set", "scenario_params.star_radius=true"], "scenario_params.star_radius"),
        (["run", "--set", 'scenario_params.graph={"n":true,"edges":[]}'], "scenario_params.graph.n"),
        (["run", "--set", 'scenario_params.graph={"n":10,"edges":[{"to":1,"from":2,"w":true}]}'],
         "scenario_params.graph.edges.w"),
        (["run", "--set", "output_dir=false"], "output_dir got the boolean false"),
        # int() would truncate 10.9 and 2.7 and parse "10"
        (["run", "--set", 'scenario_params.graph={"n":10.9,"edges":[]}'],
         "graph n must be an integer, got 10.9"),
        (["run", "--set", 'scenario_params.graph={"n":"10","edges":[]}'], "graph n must be an integer"),
        (["run", "--set", 'scenario_params.graph={"n":10,"edges":[{"to":1,"from":2.7,"w":1}]}'],
         "'from' must be an integer, got 2.7"),
        (["run", "--set", 'scenario_params.graph={"n":10,"edges":[{"to":"1","from":2,"w":1}]}'],
         "'to' must be an integer"),
        # one formation: a star_radius next to offsets would be ignored
        (["run", "--set", "scenario_params.offsets=" + json.dumps(scenarios.five_point_star(4.0).offsets.tolist()),
          "--set", "scenario_params.star_radius=5"],
         "scenario_params.offsets and scenario_params.star_radius"),
        # a quoted number is not a number
        (["run", "--set", 'k=["1.5"]'], "gains.k[0] must be a number, got '1.5'"),
        (["run", "--algo", "output", "--set", 'beta=["2","1"]'], "observer.beta[0] must be a number, got '2'"),
        (["run", "--set", "decisions=[[1,2,3]]"], "init.decisions must have shape (10, 2), got (1, 3)"),
        (["run", "--set", "derivatives=[1,2]"], "init.derivatives must have shape (1, 10, 2), got (2,)"),
        (["run", "--set", 'dt="0.01"'], "sim: dt must be a number, got '0.01'"),
        (["run", "--set", "decisions=[" + ",".join(['["1","2"]'] * 10) + "]"],
         "init.decisions must be finite numbers"),
        (["run", "--set", "derivatives=[[" + ",".join(['["0","0"]'] + ["[0,0]"] * 9) + "]]"],
         "init.derivatives must be finite numbers"),
        # eps^2 overflows or comes to 0: the laws could not be formed
        (["run", "--set", "epsilon=1e200"], "gains.epsilon"),
        (["run", "--set", "epsilon=1e-200"], "gains.epsilon"),
        # the observer is checked against the plant order in either mode
        (["run", "--set", "observer.beta=[3,3,1]"], "observer.beta needs 2 coefficients for order 2, got 3"),
        (["run", "--algo", "output", "--set", "observer.beta=[3,3,1]"], "observer.beta needs 2 coefficients"),
    ])
    def test_bad_key_or_value_exits_two_naming_it(self, tmp_path, capsys, argv, key):
        code = run_cli(*argv, "--scenario", "vehicles", "--out", str(tmp_path),
                       "--set", "horizon=0.01")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and key in err and "Traceback" not in err

    # errors.integer: an integer or a float without a fraction runs, anything else exits 2 naming
    # the key; 10**400 is a stride or a seed but no graph's node count or index
    @pytest.mark.parametrize("given", ["int", "float", 2.5, "3", True, float("nan"), 10 ** 400],
                             ids=["int", "float", "fraction", "string", "bool", "nan", "10**400"])
    @pytest.mark.parametrize("key, valid", [("n", 6), ("to", 1), ("from", 2), ("record_stride", 10), ("seed", 42)])
    def test_integer_inputs_share_one_rule(self, tmp_path, capsys, key, valid, given):
        graph = {"n": 6, "edges": [{"to": i, "from": i % 6 + 1, "w": 1} for i in range(1, 7)]}
        sim_block = {"horizon": 0.01}
        target = sim_block if key in ("record_stride", "seed") else graph if key == "n" else graph["edges"][0]
        target[key] = {"int": valid, "float": float(valid)}.get(given, given)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "turbines", "sim": sim_block, "settle_tol": 1e6,
                                    "scenario_params": {"graph": graph}}))
        code = run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        if given in ("int", "float") or (target is sim_block and given == 10 ** 400):
            assert code == 0, err
        else:
            assert code == 2 and err.startswith("config error:") and "Traceback" not in err
            assert (key if target is sim_block else "scenario_params.graph") in err

    @pytest.mark.parametrize("scenario, graph, message", [
        ("vehicles", {"n": 3, "edges": [{"to": 1, "from": 2, "w": 1}, {"to": 2, "from": 3, "w": 1},
                                        {"to": 3, "from": 1, "w": 1}]}, "graph has 3 nodes"),
        ("turbines", {"n": 6, "edges": [{"to": i, "from": i + 1, "w": 1} for i in range(1, 6)]},
         "strongly connected"),
        ("turbines", {"n": 6, "edges": [{"to": i, "from": i % 6 + 1, "w": 1 if i > 1 else float("nan")}
                                        for i in range(1, 7)]}, "edge (1,2) weight must be finite"),
        ("turbines", {"n": 6, "edges": [{"to": i, "from": i % 6 + 1, "w": 1 if i > 1 else float("inf")}
                                        for i in range(1, 7)]}, "edge (1,2) weight must be finite"),
        # rejected before Digraph allocates the n x n weights (728 TiB here)
        ("vehicles", {"n": 10**7, "edges": []}, "scenario_params.graph has 10000000 nodes"),
        ("vehicles", {"n": 1e7, "edges": []}, "scenario_params.graph has 10000000.0 nodes"),
    ])
    def test_graph_fault_exits_two(self, tmp_path, capsys, recwarn, scenario, graph, message):
        code = run_cli("run", "--scenario", scenario, "--out", str(tmp_path),
                       "--set", "horizon=0.01", "--set", f"scenario_params.graph={json.dumps(graph)}")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err
        assert "RuntimeWarning" not in err and not [w for w in recwarn if w.category is RuntimeWarning]

    @pytest.mark.parametrize("command", ["run", "nash"])
    @pytest.mark.parametrize("generators", [1, 2, 3])
    def test_short_turbine_table_exits_two_naming_the_graph(self, tmp_path, capsys, command, generators):
        table = [list(dataclasses.astuple(row)) for row in scenarios.GENERATOR_TABLE[:generators]]
        code = run_cli(command, "--scenario", "turbines", "--set", "horizon=0.01",
                       "--set", f"scenario_params.table={json.dumps(table)}")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "scenario_params.graph" in err

    def test_empty_turbine_table_exits_two(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "turbines", "--out", str(tmp_path), "--set", "horizon=0.01",
                       "--set", "scenario_params.table=[]", "--set", 'scenario_params.graph={"n":1,"edges":[]}')
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and "scenario_params.table" in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"scenario": "turbines", "sim": {"dt": 0.001, "sed": 3}}', "did you mean 'sim.seed'"),
        ('{"scenario": "turbines", "sim": 5}', "'sim' must be an object"),
        ("[1]", "must be a JSON object"),
    ])
    def test_bad_config_file_exits_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_cli("run", "--config", str(path), "--scenario", "turbines",
                       "--seed", "1", "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err

    def test_wrong_affine_declaration_exits_two(self, tmp_path, capsys, monkeypatch):
        turbine_game = scenarios._turbine_game

        def cubic_turbine_game(table):
            game = turbine_game(table)
            diag = np.arange(game.n_players)
            return dataclasses.replace(
                game, profile_gradient=lambda p: game.profile_gradient(p) + 1e-3 * p[..., diag, diag, :] ** 3)

        monkeypatch.setattr(scenarios, "_turbine_game", cubic_turbine_game)
        code = run_cli("run", "--scenario", "turbines", "--out", str(tmp_path),
                       "--set", "horizon=0.01")
        err = capsys.readouterr().err
        assert code == 2
        assert "declared affine" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "seed", "--values", "1,2"]],
                             ids=["run", "sweep"])
    @pytest.mark.parametrize("below, message", [
        ("", "exists and is not a directory"),  # rejected before anything runs
        ("sub", "cannot write to output_dir"),
    ], ids=["file", "under-file"])
    def test_output_dir_on_a_file_exits_two(self, tmp_path, capsys, command, below, message):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        code = run_cli(*command, "--scenario", "turbines", "--out", str(blocker / below),
                       "--set", "horizon=0.01", "--set", "settle_tol=1e6")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and message in err and str(blocker) in err
        assert "Traceback" not in err and blocker.read_text() == "kept"

    def test_observer_summary_field_in_output_mode(self, tmp_path):
        out = tmp_path / "obs"
        code = run_cli("run", "--scenario", "vehicles", "--algo", "output",
                       "--out", str(out), "--set", "horizon=1.0",
                       "--set", "settle_tol=1e6", "--set", "mu=0.02")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "observer_sup_error" in summary
        assert summary["config_echo"]["observer"]["mu"] == 0.02

    def test_summary_reports_how_the_run_stepped(self, tmp_path):
        # 24 s of the output default step record windows in two passes; record_s, a wall-clock
        # time, stays out
        out = tmp_path / "stepped"
        code = run_cli("run", "--scenario", "vehicles", "--algo", "output",
                       "--out", str(out), "--set", "horizon=24.0", "--set", "settle_tol=1e6")
        assert code == 0
        stepping = json.loads((out / "summary.json").read_text())["stepping"]
        assert list(stepping) == ["coarse", "group", "kind", "one_step", "passes", "products", "windows"]
        assert (stepping["kind"], stepping["group"], stepping["products"]) == ("folded", None, 0)
        assert stepping["windows"] > 1 and stepping["passes"] == 2 and stepping["coarse"] > 1
        # the first window once, then every pass over the windows, and the steps past them
        assert stepping["one_step"] >= (stepping["passes"] + 1) * 24000 // stepping["windows"]


class TestNashCommand:
    def test_turbines_dual_path_agreement(self, capsys):
        assert run_cli("nash", "--scenario", "turbines") == 0
        out = capsys.readouterr().out
        gap_line = next(line for line in out.splitlines() if line.startswith("max gap"))
        assert float(gap_line.split(":")[1]) < 1e-8

    def test_vehicles(self, capsys):
        assert run_cli("nash", "--scenario", "vehicles") == 0
        out = capsys.readouterr().out
        assert "pseudo-gradient sup norm" in out

    @pytest.mark.parametrize("flags", [["--set", "nonsense=1"], ["--seed", "3"], ["--config", "none.json"]],
                             ids=["set", "seed", "config"])
    def test_selftest_takes_no_config(self, capsys, flags):
        assert run_cli("nash", "--scenario", "selftest", *flags) == 2
        err = capsys.readouterr().err
        assert err == "config error: nash --scenario selftest takes no config: drop --config, --set and --seed\n"

    def test_quadratic_selftest_finds_origin(self, capsys):
        assert run_cli("nash", "--scenario", "selftest") == 0
        out = capsys.readouterr().out
        gap_line = next(line for line in out.splitlines() if line.startswith("max gap"))
        assert float(gap_line.split(":")[1]) < 1e-10


class TestVerifyCommand:
    def test_only_graph_group_passes(self, capsys):
        assert run_cli("verify", "--only", "graph") == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert out.strip().endswith("4/4 checks passed")


class TestSweepCommand:
    def test_empty_values_exit_two_naming_the_flag(self, tmp_path, capsys):
        for values in ("", " "):
            code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state",
                           "--param", "alpha3", "--values", values, "--out", str(tmp_path))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("config error: --values") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_param_rejected(self, tmp_path, capsys):
        code = run_cli("sweep", "--scenario", "vehicles", "--param", "warp",
                       "--values", "1,2", "--out", str(tmp_path))
        assert code == 2
        assert "unknown config key 'warp'" in capsys.readouterr().err

    def test_scenario_cannot_be_swept(self, tmp_path, capsys):
        code = run_cli("sweep", "--scenario", "vehicles", "--param", "scenario",
                       "--values", '"turbines"', "--out", str(tmp_path))
        assert code == 2
        assert "a sweep cannot vary the scenario" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_whole_block_sweep_runs_as_run_set_does(self, tmp_path):
        block = '{"alpha3": 20}'
        assert run_cli("run", "--scenario", "vehicles", "--algo", "state", "--out", str(tmp_path / "run"),
                       "--set", f"gains={block}", "--set", "horizon=0.2", "--set", "settle_tol=1e6") == 0
        # a bad value in a block fails its own cell only
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state", "--param", "gains",
                       "--values", block + ',{"alpha1": null}', "--out", str(tmp_path),
                       "--set", "horizon=0.2", "--set", "settle_tol=1e6")
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error:ConfigInvalid"]

    def test_failed_cells_recorded_and_sweep_continues(self, tmp_path):
        # dt=-1 is invalid per cell; the sweep itself still exits 0
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state",
                       "--param", "dt", "--values=-1,0.01", "--out", str(tmp_path),
                       "--set", "horizon=0.5", "--set", "settle_tol=1e6")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "error:ConfigInvalid" in lines[1]
        assert lines[2].endswith("ok")

    def test_cell_whose_records_cannot_be_allocated_is_recorded(self, tmp_path):
        code = run_cli("sweep", "--scenario", "turbines", "--algo", "state",
                       "--param", "sim.dt", "--values", "1e-300,0.01", "--out", str(tmp_path),
                       "--set", "horizon=1", "--set", "settle_tol=1e6")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("1e-300,") and lines[1].endswith(",error:ConfigInvalid")
        assert lines[2].startswith("0.01,") and lines[2].endswith(",ok")

    def test_graph_fault_cell_keeps_its_error_name(self, tmp_path):
        broken = {"n": 6, "edges": [{"to": i, "from": i + 1, "w": 1} for i in range(1, 6)]}
        code = run_cli("sweep", "--scenario", "turbines", "--param", "scenario_params.graph",
                       "--values", json.dumps(broken), "--out", str(tmp_path), "--set", "horizon=0.01")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].endswith("error:NotStronglyConnected")

    def test_horizon_cells_give_rows_in_order(self, tmp_path):
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state",
                       "--param", "horizon", "--values", "0.2,0.3", "--out", str(tmp_path),
                       "--set", "settle_tol=1e6")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["0.2", "0.3"]

    def test_list_values_give_rows_in_order(self, tmp_path):
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state",
                       "--param", "box", "--values", "[0,5],[0,10]", "--out", str(tmp_path),
                       "--set", "horizon=0.2", "--set", "settle_tol=1e6")
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["status"]) for r in rows] == [("[0, 5]", "ok"), ("[0, 10]", "ok")]

    def test_stride_past_the_float_range_runs(self, tmp_path):
        code = run_cli("sweep", "--scenario", "turbines", "--param", "record_stride",
                       "--values", f"1,{10 ** 400}", "--out", str(tmp_path),
                       "--set", "horizon=0.01", "--set", "settle_tol=1e6")
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok"]

    def test_malformed_values_exit_two(self, tmp_path, capsys):
        code = run_cli("sweep", "--scenario", "vehicles", "--param", "box",
                       "--values", "[0,5],[0", "--out", str(tmp_path))
        assert code == 2
        assert "cannot parse sweep values" in capsys.readouterr().err

    def test_non_string_output_dir_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr("nashseek.cli._sweep_cell", lambda *a: cells.append(a) or {})
        monkeypatch.chdir(tmp_path)
        code = run_cli("sweep", "--scenario", "vehicles", "--param", "seed",
                       "--values", "1,2", "--set", "output_dir=[1]")
        err = capsys.readouterr().err
        assert code == 2
        assert "output_dir" in err and "Traceback" not in err
        assert cells == []
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_sweep_runs_one_cell_per_value(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        code = run_cli("sweep", "--scenario", "turbines", "--algo", "state",
                       "--param", "output_dir", "--values", json.dumps([str(a), str(b)])[1:-1],
                       "--out", str(tmp_path), "--set", "horizon=0.2", "--set", "settle_tol=1e6")
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["status"]) for r in rows] == [(str(a), "ok"), (str(b), "ok")]

    def test_mu_sweep_observer_error_column_decreases(self, tmp_path):
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "output",
                       "--param", "mu", "--values", "0.04,0.02,0.01",
                       "--out", str(tmp_path),
                       "--set", "horizon=6.0", "--set", "settle_tol=1e6")
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("observer_sup_error")
        errors = [float(line.split(",")[col]) for line in lines[1:]]
        assert errors[0] > errors[1] > errors[2]

    def test_alpha3_sweep_all_settle(self, tmp_path):
        # larger estimation gains only help; every cell reaches the formation
        code = run_cli("sweep", "--scenario", "vehicles", "--algo", "state",
                       "--param", "alpha3", "--values", "5,18,40",
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        settle_col = header.index("settle_time")
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "ok"
            assert cells[settle_col] not in ("", "None")


class TestSweepLanes:
    """Sweep cells that share the step grid run as the lanes of one batch."""

    @staticmethod
    def _capture(monkeypatch):
        """Record each cell's outcome and the size of every batch the sweep steps."""
        outcomes, batches = [], []
        sweep_cell, integrate = cli._sweep_cell, sim._integrate

        def capture_cell(value, setup, outcome):
            outcomes.append((value, outcome))
            return sweep_cell(value, setup, outcome)

        def capture_batch(batch):
            batches.append(len(batch))
            return integrate(batch)

        monkeypatch.setattr(cli, "_sweep_cell", capture_cell)
        monkeypatch.setattr(sim, "_integrate", capture_batch)
        return outcomes, batches

    @pytest.mark.parametrize("scenario, param, values", [
        ("vehicles", "seed", "1,2,3"),
        ("vehicles", "box", "[0,5],[-3,10],[2,4]"),
        ("vehicles", "alpha3", "5,18,40"),
        ("turbines", "seed", "1,2,3"),  # a drift-free fold with groups
    ])
    def test_each_lane_matches_its_single_run(self, tmp_path, monkeypatch, scenario, param, values):
        # cells that share one probed operator fold the drift step; a gain
        # sweep gives each cell an operator of its own, and those step sparse
        kind = "sparse" if param == "alpha3" else "folded"
        outcomes, batches = self._capture(monkeypatch)
        overrides = ["--set", "horizon=2.0", "--set", "settle_tol=1e6"]
        assert run_cli("sweep", "--scenario", scenario, "--algo", "state", "--param", param,
                       "--values", values, "--out", str(tmp_path), *overrides) == 0
        assert batches == [3]
        base = apply_set_overrides(default_config(scenario, "state"),
                                   ["horizon=2.0", "settle_tol=1e6"])
        for value, lane in outcomes:
            assert lane.stepping.kind == kind
            _, single, _ = cli._execute_run(apply_set_overrides(base, [f"{param}={json.dumps(value)}"]))
            assert np.array_equal(lane.times, single.times)
            gap = np.max(np.abs(lane.decisions - single.decisions), axis=(1, 2))
            assert np.all(gap <= 1e-12 * np.max(np.abs(single.decisions), axis=(1, 2)))

    def test_step_size_sweep_probes_once(self, tmp_path, monkeypatch):
        # no model object reads the sim block, so cells that differ only in dt
        # share one probed operator; they still step as batches of their own
        probes, probe = [], sim.probe_affine
        monkeypatch.setattr(sim, "probe_affine", lambda rhs, layout: probes.append(layout) or probe(rhs, layout))
        outcomes, batches = self._capture(monkeypatch)
        overrides = ["--set", "horizon=2.0", "--set", "settle_tol=1e6"]
        assert run_cli("sweep", "--scenario", "vehicles", "--algo", "state", "--param", "dt",
                       "--values", "0.004,0.005,0.01", "--out", str(tmp_path), *overrides) == 0
        assert len(probes) == 1 and batches == [1, 1, 1]
        base = apply_set_overrides(default_config("vehicles", "state"), ["horizon=2.0", "settle_tol=1e6"])
        for value, lane in outcomes:
            _, single, _ = cli._execute_run(apply_set_overrides(base, [f"dt={value}"]))
            assert np.array_equal(lane.decisions, single.decisions)

    def test_state_mode_observer_sweep_probes_once_and_folds(self, tmp_path, monkeypatch):
        # the observer builds nothing in state mode, so its cells share one model and one batch
        probes, probe = [], sim.probe_affine
        monkeypatch.setattr(sim, "probe_affine", lambda rhs, layout: probes.append(layout) or probe(rhs, layout))
        outcomes, batches = self._capture(monkeypatch)
        assert run_cli("sweep", "--scenario", "vehicles", "--algo", "state", "--param", "mu",
                       "--values", "0.01,0.02,0.04", "--set", "horizon=2", "--out", str(tmp_path)) == 0
        assert len(probes) == 1 and batches == [3]
        assert [lane.stepping.kind for _, lane in outcomes] == ["folded"] * 3

    def test_diverging_gain_cell_is_masked_and_rows_match_a_sequential_sweep(self, tmp_path, monkeypatch):
        argv = ["sweep", "--scenario", "vehicles", "--algo", "state", "--param", "alpha3",
                "--values", "5,1000,18", "--set", "dt=0.01", "--set", "horizon=2.0",
                "--set", "settle_tol=1e6"]
        outcomes, batches = self._capture(monkeypatch)
        assert run_cli(*argv, "--out", str(tmp_path / "lanes")) == 0
        assert batches == [3]
        monkeypatch.setattr(sim, "MAX_LANES", 1)
        assert run_cli(*argv, "--out", str(tmp_path / "one")) == 0
        assert batches == [3, 1, 1, 1]
        lanes = (tmp_path / "lanes" / "sweep.csv").read_text()
        assert lanes == (tmp_path / "one" / "sweep.csv").read_text()
        assert [row.rsplit(",", 1)[-1] for row in lanes.splitlines()[1:]] == ["ok", "error:Diverged", "ok"]

