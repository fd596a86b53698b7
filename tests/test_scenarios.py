"""Case-study builders, parameter tables, and analytic oracles."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nashseek import sim
from nashseek.affine import probe_affine
from nashseek.config import build_run_setup, default_config, load_config_file
from nashseek.errors import ConfigInvalid, SingularSystem
from nashseek.game import pseudo_gradient
from nashseek.scenarios import (
    GENERATOR_TABLE,
    PRICE_INTERCEPT,
    RHO_AIR,
    VEHICLE_TABLE,
    FormationSpec,
    GeneratorParams,
    VehicleParams,
    build_turbine_market,
    build_vehicle_formation,
    default_cycle_digraph,
    five_point_star,
    turbine_nash_oracle,
    vehicle_nash_oracle,
)


class TestParameterTables:
    def test_vehicle_row_one(self):
        v = VEHICLE_TABLE[0]
        assert (v.mass, v.frontal_area, v.drag_coeff, v.mech_drag) == (1800, 2.180, 1.526, 6.412)

    def test_air_density(self):
        assert RHO_AIR == 1.225

    def test_generator_row_one(self):
        g = GENERATOR_TABLE[0]
        assert (g.gamma1, g.gamma2, g.gamma3) == (7, 36.80, 0.27)

    def test_price_intercept(self):
        assert PRICE_INTERCEPT == 200.0

    def test_table_sizes(self):
        assert len(VEHICLE_TABLE) == 10
        assert len(GENERATOR_TABLE) == 6

    def test_parameter_validation(self):
        with pytest.raises(ConfigInvalid):
            VehicleParams(-1, 2.0, 1.5, 6.0)
        with pytest.raises(ConfigInvalid):
            GeneratorParams(7, 36.8, -0.1)
        for value in (float("nan"), float("inf")):  # "<= 0" is false for both
            with pytest.raises(ConfigInvalid, match="mass must be finite"):
                VehicleParams(value, 2.0, 1.5, 6.0)
            with pytest.raises(ConfigInvalid, match="gamma3 must be finite"):
                GeneratorParams(7, 36.8, value)
        # a bool is no constant, though 0 < True < inf; every gamma must be finite
        for build, match in [(lambda: VehicleParams(True, 2.0, 1.5, 6.0), "mass must be a number"),
                             (lambda: VehicleParams(1800, 2.0, np.True_, 6.0), "drag_coeff must be a number"),
                             (lambda: GeneratorParams(float("nan"), 36.8, 0.27), "gamma1 must be finite"),
                             (lambda: GeneratorParams(7, float("nan"), 0.27), "gamma2 must be finite"),
                             (lambda: build_vehicle_formation(rho=float("nan")), "rho must be finite"),
                             (lambda: build_vehicle_formation(rho=-1.0), "rho must be finite"),
                             (lambda: build_vehicle_formation(rho=True), "rho must be a number"),
                             (lambda: five_point_star(float("nan")), "star_radius must be finite"),
                             (lambda: five_point_star(0.0), "star_radius must be finite")]:
            with pytest.raises(ConfigInvalid, match=match):
                build()


class TestFormationGeometry:
    def test_star_shape_and_radii(self):
        spec = five_point_star()
        radii = np.linalg.norm(spec.offsets, axis=1)
        inner = 10.0 * np.sin(np.pi / 10) / np.sin(3 * np.pi / 10)
        assert np.allclose(radii[0::2], 10.0)
        assert np.allclose(radii[1::2], inner)
        assert abs(inner - 3.8197) < 1e-4

    def test_star_anchors_sum_to_zero(self):
        spec = five_point_star()
        assert np.max(np.abs(spec.offsets.sum(axis=0))) < 1e-12

    def test_formation_spec_validation(self):
        with pytest.raises(ConfigInvalid):
            FormationSpec(np.zeros((1, 2)))


class TestVehicleScenario:
    def test_builder_shapes(self):
        game, plants, g, spec = build_vehicle_formation()
        assert game.n_players == 10 and game.decision_dim == 2
        assert len(plants) == 10
        assert all(p.order_n == 2 and p.dim_m == 2 for p in plants)
        assert g.n_nodes == 10

    def test_gradient_at_origin(self):
        game, _, _, spec = build_vehicle_formation()
        grads = pseudo_gradient(game, np.zeros(20)).reshape(10, 2)
        assert np.allclose(grads, -2.0 * spec.offsets / 10.0, atol=1e-14)

    def test_drift_opposes_motion_componentwise(self):
        _, plants, _, _ = build_vehicle_formation()
        p = plants[0]
        c_drag, c_mech = p.w
        v = np.array([-2.0, 3.0])
        f = p.drift(np.stack([np.zeros(2), v]), p.w)
        assert np.allclose(f, [4.0 * c_drag - c_mech, -9.0 * c_drag - c_mech])

    def test_drift_constants_from_table(self):
        _, plants, _, _ = build_vehicle_formation()
        c_drag, c_mech = plants[0].w
        assert np.isclose(c_drag, 1.225 * 2.180 * 1.526 / (2 * 1800))
        assert np.isclose(c_mech, 6.412 / 1800)

    def test_oracle_zero_sum_anchors_exact(self):
        spec = FormationSpec(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.array_equal(vehicle_nash_oracle(spec), spec.offsets.reshape(-1))

    def test_oracle_formation_property_default_star(self):
        # anchor sum is ~2e-15, below one ulp of the anchors, so the pairwise
        # property holds to an ulp rather than bitwise
        spec = five_point_star()
        p = vehicle_nash_oracle(spec).reshape(10, 2)
        d = spec.offsets
        for i in range(10):
            for j in range(10):
                assert np.max(np.abs((p[i] - p[j]) - (d[i] - d[j]))) <= 1e-14

    def test_oracle_stationarity(self):
        game, _, _, spec = build_vehicle_formation()
        assert np.max(np.abs(pseudo_gradient(game, vehicle_nash_oracle(spec)))) < 1e-14

    def test_jacobian_structure(self):
        # d F / d p = (1/N) (2 I + 1 1^T) kron I_2, minimum eigenvalue 2/N
        game, _, _, _ = build_vehicle_formation()
        eye = np.eye(20)
        f0 = pseudo_gradient(game, np.zeros(20))
        jac = np.stack([pseudo_gradient(game, eye[:, c]) - f0 for c in range(20)], axis=1)
        expected = np.kron((2.0 * np.eye(10) + np.ones((10, 10))) / 10.0, np.eye(2))
        assert np.allclose(jac, expected, atol=1e-12)
        assert np.isclose(np.linalg.eigvalsh(0.5 * (jac + jac.T)).min(), 0.2, atol=1e-10)

    def test_table_override(self):
        table = [VehicleParams(1000, 2.0, 1.0, 5.0)] * 4
        offsets = FormationSpec(np.array([[1.0, 0], [0, 1.0], [-1.0, 0], [0, -1.0]]))
        game, plants, g, spec = build_vehicle_formation(table=table, offsets=offsets)
        assert game.n_players == 4 and len(plants) == 4 and g.n_nodes == 4

    def test_mismatched_offsets_rejected(self):
        with pytest.raises(ConfigInvalid):
            build_vehicle_formation(offsets=FormationSpec(np.zeros((4, 2))))


class TestTurbineScenario:
    def test_builder_shapes(self):
        game, plants, g = build_turbine_market()
        assert game.n_players == 6 and game.decision_dim == 1
        assert all(p.order_n == 4 and p.drift is None for p in plants)
        assert g.n_nodes == 6

    def test_extra_edge_in_default_graph(self):
        _, _, g = build_turbine_market()
        assert g.weights[0, 3] == 0.5  # node 1 receives from node 4

    def test_oracle_satisfies_stationarity(self):
        game, _, _ = build_turbine_market()
        p_star = turbine_nash_oracle()
        assert np.max(np.abs(pseudo_gradient(game, p_star))) < 1e-9

    def test_oracle_values_are_positive_powers(self):
        p_star = turbine_nash_oracle()
        assert np.all(p_star > 0)

    def test_large_gamma3_drives_powers_to_zero(self):
        table = [GeneratorParams(g.gamma1, g.gamma2, g.gamma3 * 1e6) for g in GENERATOR_TABLE]
        p_small = turbine_nash_oracle(table)
        assert np.all(p_small > 0) and np.all(p_small < 1e-3)

    def test_singular_table_guarded(self):
        # 2 gamma3 + 0.1 = 0 collapses the diagonal, leaving a rank-one system
        table = [SimpleNamespace(gamma1=1.0, gamma2=10.0, gamma3=-0.05) for _ in range(6)]
        with pytest.raises(SingularSystem):
            turbine_nash_oracle(table)

    def test_jacobian_minimum_eigenvalue_bound(self):
        game, _, _ = build_turbine_market()
        eye = np.eye(6)
        jac = np.stack([pseudo_gradient(game, eye[:, c]) - pseudo_gradient(game, np.zeros(6))
                        for c in range(6)], axis=1)
        assert np.linalg.eigvalsh(0.5 * (jac + jac.T)).min() >= 0.3


class TestScenarioGraphs:
    @pytest.mark.parametrize("edge", [(1, 4, 0.5), (4, 1, 0.5), (0, 2, 0.5)])
    def test_extra_edge_outside_the_nodes_rejected(self, edge):
        with pytest.raises(ConfigInvalid, match="scenario_params.graph"):
            default_cycle_digraph(3, extra_edges=(edge,))

    def test_short_turbine_table_needs_a_graph(self):
        with pytest.raises(ConfigInvalid, match="scenario_params.graph"):
            build_turbine_market(table=GENERATOR_TABLE[:3])
        ring = default_cycle_digraph(3)
        game, plants, g = build_turbine_market(table=GENERATOR_TABLE[:3], graph=ring)
        assert g is ring and game.n_players == len(plants) == 3

    def test_cycle_weights(self):
        g = default_cycle_digraph(10)
        assert g.weights[0, 1] == 1.0
        assert g.weights[9, 0] == 1.9
        assert np.count_nonzero(g.weights) == 10


def _turbine_state_spectrum(cfg):
    """Max real part of the eigenvalues of the exact linear turbine state loop."""
    setup = build_run_setup(cfg)
    layout = sim._Layout(setup.plants[0].order_n, setup.graph.n_nodes, 1, output_mode=False)
    op = probe_affine(sim._make_rhs(setup.game, setup.graph, setup.gains, None, layout), layout)
    a = np.zeros((layout.size, layout.size))
    a[op.rows, op.cols] = op.vals
    return float(np.max(np.linalg.eigvals(a).real))


class TestTurbineSpectrum:
    """The README's stability claims for the turbine gain sets."""

    def test_auto_chain_with_desk_alphas_is_unstable(self):
        cfg = default_config("turbines")
        cfg["gains"]["k"] = "auto"
        assert _turbine_state_spectrum(cfg) == pytest.approx(0.019, abs=1e-3)

    def test_desk_chain_is_stable(self):
        assert _turbine_state_spectrum(default_config("turbines")) == pytest.approx(-0.21, abs=1e-2)

    def test_highgain_slowest_mode(self):
        cfg = load_config_file(Path(__file__).resolve().parents[1] / "configs" / "turbines_highgain.json")
        assert _turbine_state_spectrum(cfg) == pytest.approx(-0.020, abs=1e-3)
