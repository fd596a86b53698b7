"""Built-in case studies: vehicle formation seeking and a turbine-generator market.

All baked-in parameters (vehicle table, generator table, air density, star
geometry, default digraphs) can be overridden through the builder arguments;
the CLI exposes them through the scenario config block, and the builders'
errors name its keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, SingularSystem, finite
from .game import Game
from .graph import Digraph
from .sim import Plant

RHO_AIR = 1.225  # kg/m^3


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of one vehicle (SI units)."""

    mass: float
    frontal_area: float
    drag_coeff: float
    mech_drag: float

    def __post_init__(self):
        for name in ("mass", "frontal_area", "drag_coeff", "mech_drag"):
            object.__setattr__(self, name, finite(getattr(self, name), f"vehicle {name}", positive=True))


@dataclass(frozen=True)
class FormationSpec:
    """Formation anchors d_i; desired relative positions are d_i - d_j."""

    offsets: np.ndarray  # (N, 2)

    def __post_init__(self):
        offs = np.asarray(self.offsets, dtype=float)
        object.__setattr__(self, "offsets", offs)
        if offs.ndim != 2 or offs.shape[0] < 2 or offs.shape[1] != 2:
            raise ConfigInvalid(f"formation offsets must be (N>=2, 2), got {offs.shape}")


@dataclass(frozen=True)
class GeneratorParams:
    """Quadratic generation-cost coefficients of one turbine-generator."""

    gamma1: float
    gamma2: float
    gamma3: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            # gamma3 > 0 makes each cost strictly convex
            object.__setattr__(self, name, finite(getattr(self, name), name, positive=name == "gamma3"))


VEHICLE_TABLE = (
    VehicleParams(1800, 2.180, 1.526, 6.412),
    VehicleParams(1775, 2.165, 1.649, 5.241),
    VehicleParams(825, 1.634, 1.052, 2.466),
    VehicleParams(1025, 1.746, 1.281, 3.969),
    VehicleParams(1200, 1.844, 1.359, 4.113),
    VehicleParams(1450, 1.983, 1.420, 4.755),
    VehicleParams(970, 1.715, 1.138, 2.842),
    VehicleParams(1500, 2.011, 1.409, 4.672),
    VehicleParams(1320, 1.911, 1.389, 4.263),
    VehicleParams(1670, 2.107, 1.514, 5.038),
)

GENERATOR_TABLE = (
    GeneratorParams(7, 36.80, 0.27),
    GeneratorParams(20, 13.73, 0.15),
    GeneratorParams(60, 17.14, 0.23),
    GeneratorParams(15, 20.41, 0.10),
    GeneratorParams(10, 15.28, 0.18),
    GeneratorParams(55, 14.07, 0.32),
)

PRICE_INTERCEPT = 200.0
PRICE_SLOPE = 0.1  # price = 200 - 0.1 * sum of powers


def default_cycle_digraph(n: int, extra_edges=()) -> Digraph:
    """Directed cycle where node i receives from (i mod n)+1 with weight 1 + 0.1(i-1).

    Strongly connected and weight-unbalanced; extra_edges are 1-based
    (to, from, weight) triples layered on top, and one outside 1..n raises
    ConfigInvalid.
    """
    w = np.zeros((n, n))
    for i in range(1, n + 1):
        j = (i % n) + 1
        w[i - 1, j - 1] = 1.0 + 0.1 * (i - 1)
    for (i, j, a) in extra_edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigInvalid(f"the default graph's edge ({i},{j}) lies outside 1..{n}; "
                                f"give scenario_params.graph for {n} players")
        w[i - 1, j - 1] = a
    return Digraph(w)


def five_point_star(outer_radius: float = 10.0) -> FormationSpec:
    """Ten anchors alternating between the outer and inner rings of a five-pointed star."""
    outer_radius = finite(outer_radius, "scenario_params.star_radius", positive=True)
    k = np.arange(10)
    angles = np.pi / 2 + k * (2 * np.pi / 10)
    inner = outer_radius * np.sin(np.pi / 10) / np.sin(3 * np.pi / 10)
    radii = np.where(k % 2 == 0, outer_radius, inner)
    return FormationSpec(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))


def _vehicle_game(offsets: np.ndarray) -> Game:
    n = offsets.shape[0]

    def cost(i, profile):
        p = np.asarray(profile, dtype=float).reshape(n, 2)
        own = p[i]
        quad = 0.5 * float((own - 2.0 * offsets[i]) @ (own - 2.0 * offsets[i]))
        return (quad + float(own @ p.sum(axis=0))) / n

    def profile_gradient(profiles):
        diag = profiles[..., np.arange(n), np.arange(n), :]
        return (2.0 * diag - 2.0 * offsets + profiles.sum(axis=-2)) / n

    return Game(n, 2, profile_gradient, cost_oracle=cost, affine=True)


def vehicle_drift(chain, w):
    """Quadratic aerodynamic drag and constant mechanical drag on the velocity.

    Per player, chain is (n, m) and w = (c_drag, c_mech); stacked over k
    players and any lanes, chain is (n, ..., k, m) and w is (..., k, 2).
    """
    w = np.asarray(w)
    v = chain[1]
    return -w[..., 0, None] * v * np.abs(v) - w[..., 1, None]


def build_vehicle_formation(table=None, rho: float = RHO_AIR, offsets=None, graph=None):
    """Ten second-order vehicles seeking a star formation.

    Returns (game, plants, digraph, formation_spec).  The quadratic drag acts
    elementwise with the sign of the velocity component, keeping the drift
    Lipschitz-like on bounded sets.
    """
    rho = finite(rho, "scenario_params.rho", positive=True)
    table = tuple(table) if table is not None else VEHICLE_TABLE
    spec = offsets if isinstance(offsets, FormationSpec) else (
        FormationSpec(offsets) if offsets is not None else five_point_star()
    )
    n = len(table)
    if spec.offsets.shape[0] != n:
        raise ConfigInvalid(f"{n} vehicles but {spec.offsets.shape[0]} formation anchors; "
                            "give scenario_params.table and scenario_params.offsets one row per vehicle")
    g = graph if graph is not None else default_cycle_digraph(n)
    game = _vehicle_game(spec.offsets)
    plants = []
    for params in table:
        c_drag = rho * params.frontal_area * params.drag_coeff / (2.0 * params.mass)
        c_mech = params.mech_drag / params.mass
        plants.append(Plant(order_n=2, dim_m=2, drift=vehicle_drift, w=(c_drag, c_mech)))
    return game, plants, g, spec


def vehicle_nash_oracle(spec: FormationSpec) -> np.ndarray:
    """Closed-form equilibrium p_i = d_i - (sum_j d_j) / (N + 2), stacked."""
    offs = spec.offsets
    n = offs.shape[0]
    return (offs - offs.sum(axis=0) / (n + 2)).reshape(-1)


def _turbine_game(table) -> Game:
    n = len(table)
    gamma2 = np.array([gp.gamma2 for gp in table])
    gamma3 = np.array([gp.gamma3 for gp in table])
    gamma1 = np.array([gp.gamma1 for gp in table])

    def cost(i, profile):
        p = np.asarray(profile, dtype=float)
        price = PRICE_INTERCEPT - PRICE_SLOPE * float(p.sum())
        own = p[i]
        return float(gamma1[i] + gamma2[i] * own + gamma3[i] * own ** 2 - price * own)

    def profile_gradient(profiles):
        diag = profiles[..., np.arange(n), np.arange(n), 0]
        totals = profiles.sum(axis=-2)[..., 0]
        val = (gamma2 + 2.0 * gamma3 * diag - PRICE_INTERCEPT
               + PRICE_SLOPE * totals + PRICE_SLOPE * diag)
        return val[..., None]

    return Game(n, 1, profile_gradient, cost_oracle=cost, affine=True)


def build_turbine_market(table=None, graph=None):
    """Six fourth-order turbine-generators competing on a linear price curve.

    Returns (game, plants, digraph).  The plants are pure integrator chains
    (zero drift).
    """
    table = tuple(table) if table is not None else GENERATOR_TABLE
    n = len(table)
    if n < 1:
        raise ConfigInvalid("scenario_params.table lists no generator")
    g = graph if graph is not None else default_cycle_digraph(n, extra_edges=((1, 4, 0.5),))
    game = _turbine_game(table)
    plants = [Plant(order_n=4, dim_m=1, drift=None, w=None) for _ in range(n)]
    return game, plants, g


def turbine_nash_oracle(table=None) -> np.ndarray:
    """Equilibrium powers from the stationarity system, solved directly.

    The system matrix is diag(2 gamma3 + 0.1) + 0.1 * ones; raises
    SingularSystem when a corrupted parameter table makes it singular or the
    solve residual exceeds 1e-10.
    """
    table = tuple(table) if table is not None else GENERATOR_TABLE
    gamma2 = np.array([gp.gamma2 for gp in table])
    gamma3 = np.array([gp.gamma3 for gp in table])
    n = len(table)
    system = np.diag(2.0 * gamma3 + PRICE_SLOPE) + PRICE_SLOPE * np.ones((n, n))
    rhs = PRICE_INTERCEPT - gamma2
    try:
        p_star = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationarity system is singular: {exc}") from exc
    residual = float(np.max(np.abs(system @ p_star - rhs)))
    if not np.isfinite(residual) or residual >= 1e-10:
        raise SingularSystem(f"stationarity residual {residual:.3e} exceeds 1e-10")
    return p_star
