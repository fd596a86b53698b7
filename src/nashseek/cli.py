"""Command-line entry point: run, nash, verify, sweep.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures
(divergence, no convergence, not settled, failed checks).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import sim, verify
from .errors import ConfigInvalid, Diverged, NoConvergence, NashseekError
from .game import nash_solve, pseudo_gradient

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the run statistics of a sweep cell: its fields, and sweep.csv's columns between value and status
SWEEP_STATISTICS = ("settle_time", "lambda_hat", "r_squared", "final_residual", "observer_sup_error")


def _assemble_config(args) -> dict:
    """The config file with the flags and --set applied; build_run_setup fills and checks it."""
    cfg = config_mod.load_config_file(args.config) if args.config else {}
    if args.scenario:
        cfg["scenario"] = args.scenario
    if "scenario" not in cfg:
        raise ConfigInvalid("no scenario given (use --scenario or a config file)")
    if args.algo:
        cfg["algo"] = args.algo
    flags = []
    if args.seed is not None:
        flags.append(f"sim.seed={args.seed}")
    if getattr(args, "out", None) is not None:
        flags.append(f"output_dir={json.dumps(args.out)}")
    return config_mod.apply_set_overrides(cfg, flags + (args.set or []))


def _check_output_dir(value) -> None:
    """Reject, before anything runs, an output_dir that is not a string or names a non-directory."""
    if not isinstance(value, str):
        raise ConfigInvalid(f"output_dir must be a string, got {value!r}")
    if Path(value).exists() and not Path(value).is_dir():
        raise ConfigInvalid(f"output_dir {value!r} exists and is not a directory")


def _execute_run(cfg: dict):
    """Run one configured simulation; returns (setup, trajectory, summary dict)."""
    setup = config_mod.build_run_setup(cfg)
    _check_output_dir(setup.output_dir)
    trajectory = sim.run(
        setup.game, setup.plants, setup.graph, setup.gains, setup.observer,
        setup.sim_config, setup.init, x_star=setup.x_star,
    )
    return setup, trajectory, _summarize(setup, trajectory)


def _summarize(setup, trajectory) -> dict:
    """The summary.json fields of one finished run."""
    warnings = [] if setup.ordering_warning is None else [setup.ordering_warning]
    settle = sim.settle_time(trajectory, setup.x_star, setup.settle_tol)
    lambda_hat = r_squared = None
    try:
        window = sim.mid_decay_window(trajectory)
        lambda_hat, r_squared = sim.fit_exponential_rate(trajectory, window)
    except NashseekError:
        pass  # flat or non-decaying traces have no meaningful fit
    final_residual = float(np.max(np.abs(
        trajectory.final_decisions - setup.x_star.reshape(trajectory.final_decisions.shape))))
    summary = {
        "settle_time": settle,
        "lambda_hat": lambda_hat,
        "r_squared": r_squared,
        "final_residual": final_residual,
        "config_echo": setup.config_echo,
        "gain_ordering_warnings": warnings,
        # how the run stepped, without record_s, a wall-clock time
        "stepping": {name: value for name, value in trajectory.stepping._asdict().items() if name != "record_s"},
    }
    if trajectory.observer_errors is not None:
        summary["observer_sup_error"] = sim.post_transient_observer_error(trajectory)
    return summary


def cmd_run(args) -> int:
    cfg = _assemble_config(args)
    setup, trajectory, summary = _execute_run(cfg)
    out_dir = Path(setup.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim.write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for warning in summary["gain_ordering_warnings"]:
        print(f"warning: {warning}")
    print(f"scenario {setup.scenario_name} ({setup.algo}): "
          f"settle_time={summary['settle_time']}, lambda_hat={summary['lambda_hat']}, "
          f"final_residual={summary['final_residual']:.3e}")
    print(f"wrote {out_dir / 'trajectory.csv'} and {out_dir / 'summary.json'}")
    return EXIT_OK if summary["settle_time"] is not None else EXIT_NUMERIC


def cmd_nash(args) -> int:
    if args.scenario == "selftest":
        if args.config or args.set or args.seed is not None:
            raise ConfigInvalid("nash --scenario selftest takes no config: drop --config, --set and --seed")
        game, oracle = verify.identity_game(), np.zeros(6)
        solved = nash_solve(game, np.full(6, 2.0), tol=1e-10)
    else:
        cfg = _assemble_config(args)
        setup = config_mod.build_run_setup(cfg)
        game, oracle = setup.game, setup.x_star
        dim = game.n_players * game.decision_dim
        solved = nash_solve(game, np.zeros(dim), tol=1e-10)
    gap = float(np.max(np.abs(solved - oracle)))
    grad_norm = float(np.max(np.abs(pseudo_gradient(game, solved))))
    print(f"analytic oracle:  {np.array2string(oracle, precision=8)}")
    print(f"nash_solve:       {np.array2string(solved, precision=8)}")
    print(f"max gap: {gap:.3e}")
    print(f"pseudo-gradient sup norm at solution: {grad_norm:.3e}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(only=args.only)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.group}: {res.name} ({res.detail})")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


def _sweep_cell(value, setup, outcome) -> dict:
    """The sweep.csv row of one cell: its run's statistics, or the error it raised."""
    if isinstance(outcome, NashseekError):
        return {"value": value, "status": f"error:{type(outcome).__name__}"}
    summary = _summarize(setup, outcome)
    return {"value": value, **{name: summary.get(name) for name in SWEEP_STATISTICS}, "status": "ok"}


def _sweep_lanes(cfg: dict, param: str, values: list) -> list:
    """Build every cell and run them all through ``sim.run_lanes``; one row per value.

    Cells whose configs build the same loop get the same model objects, so
    ``run_lanes`` steps them as lanes of one batch and probes them once.
    """
    setups, lanes, outcomes = {}, [], {}
    models = {}
    for i, value in enumerate(values):
        cell = config_mod.apply_set_overrides(cfg, [f"{param}={json.dumps(value)}"])
        try:
            setup = config_mod.build_run_setup(cell)
        except NashseekError as exc:
            outcomes[i] = exc
            continue
        setups[i] = setup
        model = models.setdefault(config_mod.model_key(setup.config_echo), setup)
        lanes.append(sim.Lane(model.game, model.plants, model.graph, model.gains, model.observer,
                              setup.sim_config, setup.init, setup.x_star))
    outcomes.update(zip(setups, sim.run_lanes(lanes)))
    return [_sweep_cell(value, setups.get(i), outcomes[i]) for i, value in enumerate(values)]


def cmd_sweep(args) -> int:
    cfg = config_mod.complete(_assemble_config(args))
    param = args.param
    if param == "scenario":
        raise ConfigInvalid("a sweep cannot vary the scenario: one scenario's defaults complete "
                            "the base config, so sweep each scenario on its own")
    # only the key is checked here, with an empty object, which every key but
    # scenario takes (a block fills it, a leaf keeps it unchecked); each
    # cell's value is checked when it runs
    config_mod.complete(config_mod.apply_set_overrides(cfg, [f"{param}={{}}"]))
    # sweep.csv goes to the base output_dir, so check it before any cell runs
    _check_output_dir(cfg["output_dir"])
    # one JSON array, so list values such as [0,5],[0,10] keep their commas
    try:
        values = json.loads("[" + args.values + "]")
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"cannot parse sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigInvalid(f"--values {args.values!r} lists no value to sweep")

    rows = _sweep_lanes(cfg, param, values)

    out_dir = Path(cfg["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = ("value", *SWEEP_STATISTICS, "status")
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a list value's commas
        writer.writerow(columns)
        for row in rows:
            writer.writerow("" if row.get(c) is None else repr(row[c]) if isinstance(row[c], float)
                            else str(row[c]) for c in columns)
    print(f"wrote {path} ({len(rows)} cells)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashseek",
        description="Distributed Nash equilibrium seeking for high-order nonlinear agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_choices=config_mod.SCENARIO_NAMES, needs_algo=True):
        p.add_argument("--scenario", choices=scenario_choices)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable)")
        p.add_argument("--seed", type=int)
        if needs_algo:
            p.add_argument("--algo", choices=(sim.MODE_STATE, sim.MODE_OUTPUT))

    p_run = sub.add_parser("run", help="integrate one closed-loop scenario")
    common(p_run)
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_nash = sub.add_parser("nash", help="print the equilibrium from both solution paths")
    common(p_nash, config_mod.SCENARIO_NAMES + ("selftest",), needs_algo=False)
    p_nash.set_defaults(func=cmd_nash, algo=None)

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--only", choices=verify.GROUPS)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run one scenario across parameter values")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated JSON values")
    p_sweep.add_argument("--out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (Diverged, NoConvergence) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NashseekError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # past the config load, only writing the outputs opens files
        print(f"config error: cannot write to output_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
