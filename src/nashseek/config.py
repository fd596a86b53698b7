"""Run-configuration schema: defaults, JSON loading, overrides, and assembly.

A run config is a plain JSON object with blocks

    scenario: "vehicles" | "turbines"
    scenario_params: optional overrides of the baked-in scenario parameters
        (vehicles: table, rho, offsets, star_radius, graph; turbines: table, graph)
    algo: "state" | "output"
    gains: {epsilon, alpha1, alpha2, alpha3, k: [...] | "auto"}
    observer: {beta: [...] | "auto", mu}
    sim: {dt, horizon, record_stride, seed}
    init: {decisions: [[...]] | null, box: [lo, hi], derivatives: [...] | null}
    settle_tol, output_dir

The pinned defaults are the only definition of the defaults and double as
the schema.  ``complete`` walks a config against them once: it resolves the
scenario alias, rejects any key they do not have (naming the nearest known
key), any block that is not an object and any scenario_params key the
scenario does not read, and fills every missing key.  ``build_run_setup``
starts with that walk, so a library caller gets the CLI's defaults and checks.

Graphs are specified as {"n": N, "edges": [{"to": i, "from": j, "w": a}]} with
1-based node indices; "to" is the receiving node.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import scenarios
from .control import (
    GainSet,
    ObserverSet,
    check_gain_ordering,
    default_hurwitz_gains,
    default_observer_gains,
)
from .errors import ConfigInvalid, finite, finite_array, integer
from .game import Game
from .graph import Digraph
from .sim import MODE_OUTPUT, MODE_STATE, InitialConditions, SimConfig

SCENARIO_NAMES = ("vehicles", "turbines")

# long-form game names accepted as synonyms in config files
_SCENARIO_ALIASES = {"vehicle_formation": "vehicles", "turbine_market": "turbines"}

_DEFAULTS = {
    "vehicles": {
        "scenario": "vehicles",
        "algo": MODE_STATE,
        "scenario_params": {},
        "gains": {"epsilon": 2.0, "alpha1": 3.0, "alpha2": 2.2, "alpha3": 18.0, "k": "auto"},
        "observer": {"beta": "auto", "mu": 0.02},
        "sim": {"dt": 1e-3, "horizon": 40.0, "record_stride": 10, "seed": 42},
        "init": {"decisions": None, "box": [-10.0, 10.0], "derivatives": None},
        "settle_tol": 1e-2,
        "output_dir": "out",
    },
    "turbines": {
        "scenario": "turbines",
        "algo": MODE_STATE,
        "scenario_params": {},
        # The binomial "auto" chain coefficients leave this alpha set with a
        # pair of slowly unstable closed-loop modes; placing the chain roots
        # at -1.5 instead keeps the loop well inside the stable region.
        "gains": {"epsilon": 2.0, "alpha1": 14.0, "alpha2": 10.0, "alpha3": 40.0,
                  "k": [3.375, 6.75, 4.5]},
        "observer": {"beta": "auto", "mu": 0.01},
        "sim": {"dt": 9e-4, "horizon": 30.0, "record_stride": 10, "seed": 42},
        "init": {"decisions": None, "box": [0.0, 10.0], "derivatives": None},
        "settle_tol": 1e-2,
        "output_dir": "out",
    },
}

# Bare --set keys resolve into their natural config block.
_SET_ALIASES = {leaf: f"{block}.{leaf}" for block, body in _DEFAULTS["vehicles"].items()
                if isinstance(body, dict) for leaf in body}


def default_config(scenario: str, algo: Optional[str] = None) -> dict:
    """The pinned defaults for a named scenario as a fresh dict; algo None keeps the default."""
    cfg = {"scenario": scenario}
    if algo is not None:
        cfg["algo"] = algo
    return complete(cfg)


def load_config_file(path) -> dict:
    """Parse a JSON config file, reporting line/column on syntax errors."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"{path}: a config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def apply_set_overrides(cfg: dict, assignments) -> dict:
    """Apply --set key=value pairs (dotted paths; bare keys use the aliases)."""
    out = _copy(cfg)
    for item in assignments or ():
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        path = _SET_ALIASES.get(key, key)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"cannot set {path}: {part!r} must be an object, got {node!r}")
        node[parts[-1]] = value
    return out


def _unknown_key(prefix: str, key: str, known) -> ConfigInvalid:
    close = difflib.get_close_matches(key, known, n=1)
    hint = f"; did you mean {_SET_ALIASES.get(close[0], prefix + close[0])!r}?" if close else ""
    return ConfigInvalid(f"unknown config key {prefix + key!r}{hint}")


def _copy(value, key: str = ""):
    """A fresh copy of a JSON value: lists and objects copied, scalars shared.

    Given the value's config key, it also rejects a boolean anywhere in it:
    no config key takes one, and float() would read true and false as 1 and 0.
    """
    if isinstance(value, list):
        return [_copy(v, key) for v in value]
    if isinstance(value, dict):
        return {k: _copy(v, key and f"{key}.{k}") for k, v in value.items()}
    if key and isinstance(value, bool):
        raise ConfigInvalid(f"{key} got the boolean {json.dumps(value)}; no config key takes true or false")
    return value


def _fill(block: dict, schema: dict, scenario: str, prefix: str = "") -> dict:
    for key in block:
        if key not in schema:
            # at the top level a bare --set alias is the likeliest intent
            raise _unknown_key(prefix, key, list(schema) + ([] if prefix else list(_SET_ALIASES)))
    out = {}
    for key, default in schema.items():
        if key not in block:
            out[key] = _copy(default)
            continue
        value = block[key]
        if not isinstance(default, dict):
            out[key] = _copy(value, prefix + key)
        elif not isinstance(value, dict):
            raise ConfigInvalid(f"config block {prefix + key!r} must be an object, got {value!r}")
        elif key == "scenario_params":
            for param in value:
                if param not in _SCENARIO_PARAMS[scenario]:
                    raise _unknown_key(f"{key}.", param, _SCENARIO_PARAMS[scenario])
            out[key] = _copy(value, prefix + key)
        else:
            out[key] = _fill(value, default, scenario, f"{prefix}{key}.")
    return out


def complete(cfg: dict) -> dict:
    """A fresh copy of cfg with the scenario alias resolved and every missing key
    taken from the pinned defaults; it is also the config a run echoes.

    Raises ConfigInvalid for a key the defaults do not have (naming the
    nearest known one), a block that is not an object and a scenario_params
    key the scenario does not read.
    """
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"a config must be an object, got {type(cfg).__name__}")
    scenario = cfg.get("scenario")
    if isinstance(scenario, str):
        scenario = _SCENARIO_ALIASES.get(scenario, scenario)
    if scenario not in SCENARIO_NAMES:
        raise ConfigInvalid(f"unknown scenario {scenario!r}; expected one of {SCENARIO_NAMES}")
    out = _fill(cfg, _DEFAULTS[scenario], scenario)
    out["scenario"] = scenario
    return out


def model_key(cfg: dict) -> str:
    """A string equal for two completed configs exactly when they build the same loop.

    It drops what sets only how a run steps, starts or is judged: sim, init,
    settle_tol and output_dir, and in state mode the observer, which builds
    nothing there.  Configs with equal keys build equal game, plants, graph,
    gains and, in output mode, observer.
    """
    dropped = {"sim", "init", "settle_tol", "output_dir"}
    if cfg["algo"] == MODE_STATE:
        dropped.add("observer")
    model = {k: v for k, v in cfg.items() if k not in dropped}
    return json.dumps(model, sort_keys=True)


def digraph_from_json(spec: dict) -> Digraph:
    """Build a digraph from the documented {"n", "edges"} wire format."""
    try:
        n, edges = spec["n"], spec["edges"]
    except (KeyError, TypeError) as exc:
        raise ConfigInvalid(f"graph spec needs integer 'n' and a list 'edges': {exc}") from exc
    return Digraph.from_edge_list(n, edges)


@dataclass
class RunSetup:
    """Everything a single run needs, assembled from one config dict."""

    scenario_name: str
    algo: str
    game: Game
    plants: list
    graph: Digraph
    gains: GainSet
    observer: Optional[ObserverSet]  # None in state mode
    sim_config: SimConfig
    init: InitialConditions
    x_star: np.ndarray
    settle_tol: float
    output_dir: str
    ordering_warning: Optional[str]  # check_gain_ordering's advisory
    config_echo: dict


# The scenario_params keys that _build_scenario reads.
_SCENARIO_PARAMS = {"vehicles": ("table", "rho", "offsets", "star_radius", "graph"),
                    "turbines": ("table", "graph")}


def _named(key: str, build, *args, **kwargs):
    """build(*args, **kwargs); a ConfigInvalid, TypeError or ValueError it raises comes back
    naming key, unless its message starts with a key under key."""
    try:
        return build(*args, **kwargs)
    except (ConfigInvalid, TypeError, ValueError) as exc:
        raise ConfigInvalid(str(exc) if str(exc).startswith(f"{key}.") else f"{key}: {exc}") from exc


def _build_scenario(name: str, params: dict):
    """Game, plants, graph and oracle; a parameter not given keeps the builder's own value."""
    table = None
    if "table" in params:
        row_type = scenarios.VehicleParams if name == "vehicles" else scenarios.GeneratorParams
        table = _named("scenario_params.table", lambda rows: [row_type(*r) for r in rows], params["table"])
    graph = None
    if "graph" in params:
        # checked before Digraph allocates n x n weights
        n = params["graph"].get("n") if isinstance(params["graph"], dict) else None
        default = scenarios.VEHICLE_TABLE if name == "vehicles" else scenarios.GENERATOR_TABLE
        players = len(default if table is None else table)
        if n is not None and players != _named("scenario_params.graph", integer, n, "graph n", 1):
            raise ConfigInvalid(f"scenario_params.graph has {n} nodes but the scenario has {players} "
                                "players (one per row of scenario_params.table)")
        graph = _named("scenario_params.graph", digraph_from_json, params["graph"])
    if name == "turbines":
        game, plants, g = scenarios.build_turbine_market(table=table, graph=graph)
        return game, plants, g, scenarios.turbine_nash_oracle(table)
    if "offsets" in params and "star_radius" in params:
        raise ConfigInvalid("scenario_params.offsets and scenario_params.star_radius both place "
                            "the formation; give one")
    offsets = scenarios.five_point_star(params["star_radius"]) if "star_radius" in params else None
    if "offsets" in params:
        # FormationSpec takes NaN anchors (the probe's guard catches them); a config may not
        offsets = _named("scenario_params.offsets", lambda rows: scenarios.FormationSpec(
            finite_array(rows, "offsets")), params["offsets"])
    game, plants, g, spec = scenarios.build_vehicle_formation(
        table=table, offsets=offsets, graph=graph, rho=params.get("rho", scenarios.RHO_AIR))
    return game, plants, g, scenarios.vehicle_nash_oracle(spec)


def _coefficients(value, key: str, default, order_n: int):
    """A gains.k or observer.beta value: default(order_n) for "auto", and
    ConfigInvalid naming key for any other string."""
    if isinstance(value, str) and value != "auto":
        raise ConfigInvalid(f"{key} must be a list or 'auto', got {value!r}")
    return default(order_n) if isinstance(value, str) else value


def build_run_setup(cfg: dict) -> RunSetup:
    """Complete and check a config dict, then assemble the objects for one run.

    Each value is checked by the object it builds; a fault names its key.
    """
    cfg = complete(cfg)
    name = cfg["scenario"]
    algo = cfg["algo"]
    if algo not in (MODE_STATE, MODE_OUTPUT):
        raise ConfigInvalid(f"algo must be '{MODE_STATE}' or '{MODE_OUTPUT}', got {algo!r}")

    game, plants, graph, x_star = _build_scenario(name, cfg["scenario_params"])
    order_n = plants[0].order_n
    k = _coefficients(cfg["gains"]["k"], "gains.k", default_hurwitz_gains, order_n)
    gains = _named("gains", GainSet, order_n=order_n, **dict(cfg["gains"], k=k))
    # built and checked in either mode; only output feedback runs it
    beta = _coefficients(cfg["observer"]["beta"], "observer.beta", default_observer_gains, order_n)
    observer = _named("observer", ObserverSet, **dict(cfg["observer"], beta=beta))
    if len(observer.beta) != order_n:
        raise ConfigInvalid(f"observer.beta needs {order_n} coefficients for order {order_n}, "
                            f"got {len(observer.beta)}")
    sim_config = _named("sim", SimConfig, **cfg["sim"])
    # sim.run checks the box and converts the decisions and derivatives
    init = InitialConditions(**dict(cfg["init"], box=_named("init.box", tuple, cfg["init"]["box"])))

    output_dir = cfg["output_dir"]
    if not isinstance(output_dir, str):
        raise ConfigInvalid(f"output_dir must be a string, got {output_dir!r}")

    return RunSetup(
        scenario_name=name,
        algo=algo,
        game=game,
        plants=list(plants),
        graph=graph,
        gains=gains,
        observer=observer if algo == MODE_OUTPUT else None,
        sim_config=sim_config,
        init=init,
        x_star=x_star,
        settle_tol=finite(cfg["settle_tol"], "settle_tol", positive=True),
        output_dir=output_dir,
        ordering_warning=check_gain_ordering(gains),
        config_echo=cfg,
    )
