"""Distributed Nash equilibrium seeking for high-order nonlinear agents over digraphs."""

from .control import (
    GainSet,
    ObserverSet,
    check_gain_ordering,
    companion_matrix,
    default_hurwitz_gains,
    default_observer_gains,
    lyapunov_P,
    routh_hurwitz_stable,
)
from .game import (
    Game,
    MonotonicityReport,
    extended_pseudo_gradient,
    gradient_consistency,
    nash_solve,
    probe_monotonicity,
    pseudo_gradient,
)
from .graph import (
    Digraph,
    GraphCertificate,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    estimation_certificate,
)
from .scenarios import (
    FormationSpec,
    GeneratorParams,
    VehicleParams,
    build_turbine_market,
    build_vehicle_formation,
    turbine_nash_oracle,
    vehicle_nash_oracle,
)
from .sim import (
    InitialConditions,
    Lane,
    Plant,
    SimConfig,
    Trajectory,
    equilibrium_residual,
    fit_exponential_rate,
    mid_decay_window,
    rk4_step,
    run,
    run_lanes,
    settle_time,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Digraph", "GraphCertificate", "laplacian", "is_strongly_connected",
    "is_weight_balanced", "estimation_certificate",
    "Game", "MonotonicityReport", "pseudo_gradient", "extended_pseudo_gradient",
    "nash_solve", "probe_monotonicity", "gradient_consistency",
    "GainSet", "ObserverSet", "default_hurwitz_gains",
    "default_observer_gains", "companion_matrix", "routh_hurwitz_stable",
    "lyapunov_P", "check_gain_ordering",
    "Plant", "SimConfig", "InitialConditions", "Trajectory", "rk4_step", "run",
    "Lane", "run_lanes",
    "equilibrium_residual", "settle_time", "fit_exponential_rate", "mid_decay_window",
    "write_trajectory_csv",
    "VehicleParams", "FormationSpec", "GeneratorParams", "build_vehicle_formation",
    "vehicle_nash_oracle", "build_turbine_market", "turbine_nash_oracle",
    "__version__",
]
