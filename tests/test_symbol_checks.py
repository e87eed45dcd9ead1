"""Structural checks on symbols: bounded coefficients, sector condition,
Feller decay at infinity, and square-root subadditivity in xi."""

import numpy as np
import pytest

import fellerkit as fk
from fellerkit.symbol_checks import (
    check_bounded_coefficients,
    check_feller_decay,
    check_sector_condition,
    check_sqrt_subadditivity,
)

X_GRID = np.linspace(-5.0, 5.0, 21)
XI_GRID = np.linspace(-8.0, 8.0, 17)


class TestBoundedCoefficients:
    def test_brownian_holds(self):
        rep = check_bounded_coefficients(fk.brownian(1), X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        # sup of xi^2 / (1 + xi^2) on the grid is attained at xi = 8
        assert rep.c_est == pytest.approx(64.0 / 65.0, rel=1e-12)
        assert rep.zero_offset == 0.0

    def test_brownian_two_dimensional_holds(self):
        g = np.linspace(-8.0, 8.0, 9)
        xis = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        gx = np.linspace(-3.0, 3.0, 5)
        xs = np.stack(np.meshgrid(gx, gx), -1).reshape(-1, 2)
        rep = check_bounded_coefficients(fk.brownian(2), xs, xis)
        assert rep.verdict == "holds"

    def test_stable_like_holds(self):
        m = fk.stable_like_symbol("1.5 + 0.3*sin(x)", 1.2, 1.8)
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        # sup attained at the grid points x = 1.5 (largest sampled order)
        # and xi = 3 (where |xi|^a / (1 + xi^2) peaks)
        want = 3.0 ** (1.5 + 0.3 * np.sin(1.5)) / 10.0
        assert rep.c_est == pytest.approx(want, rel=1e-12)

    def test_cubic_growth_fails(self):
        # |xi|^3 outruns 1 + |xi|^2, so the outer shell sups keep climbing
        rep = check_bounded_coefficients(fk.closed_form_symbol("abs(xi)**3"), X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.shell_sups[-1] > rep.shell_sups[-2] > rep.shell_sups[-3]

    def test_nonvanishing_offset_fails_conservative_models(self):
        m = fk.closed_form_symbol("1.0 + abs(xi)**1.5")
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.zero_offset == pytest.approx(1.0)

    def test_declared_kill_term_allows_offset(self):
        m = fk.closed_form_symbol("1.0 + abs(xi)**1.5", conservative=False)
        rep = check_bounded_coefficients(m, X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        assert rep.zero_offset == pytest.approx(1.0)


class TestSectorCondition:
    def test_symmetric_symbol_has_zero_constant(self):
        rep = check_sector_condition(fk.alpha_stable(1.5, 1), X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        assert rep.constant == 0.0
        assert rep.witness_xi is None

    def test_drift_dominated_by_order_one(self):
        rep = check_sector_condition(fk.alpha_stable(1.0, 1, drift=0.2), X_GRID, XI_GRID)
        assert rep.verdict == "holds"
        assert abs(rep.constant - 0.2) < 1e-12

    def test_strong_drift_on_low_order_fails(self):
        # |Im| / Re = |xi|^(1/2) is unbounded; the grid sup sqrt(8) >= 1
        m = fk.closed_form_symbol("abs(xi)**0.5", im="xi", conservative=False)
        rep = check_sector_condition(m, X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.constant == pytest.approx(np.sqrt(8.0), rel=1e-12)

    def test_degenerate_real_part_fails_with_witness(self):
        m = fk.closed_form_symbol("0*xi", im="xi", conservative=False)
        rep = check_sector_condition(m, X_GRID, XI_GRID)
        assert rep.verdict == "fails"
        assert rep.constant == np.inf
        assert np.allclose(rep.witness_xi, [-8.0])


    def test_first_failing_frequency_in_grid_order_is_the_witness(self):
        # Re p vanishes at xi = 1 and xi = 2 while Im p = xi does not
        m = fk.closed_form_symbol("(xi - 1)**2 * (xi - 2)**2", im="xi", conservative=False)
        rep = check_sector_condition(m, X_GRID, [0.5, 2.0, 1.5, 1.0, 3.0])
        assert rep.verdict == "fails"
        assert rep.constant == np.inf
        assert rep.witness_xi.tolist() == [2.0]
        rep = check_sector_condition(m, X_GRID, [3.0, 1.0, 2.0])
        assert rep.witness_xi.tolist() == [1.0]

    def test_nan_value_fails_with_its_frequency(self):
        # 1 + 0.5j at xi = 1 alone would give constant 0.5 and "holds"
        def evaluator(x, xi):
            xi = np.broadcast_to(xi, np.broadcast_shapes(x.shape, xi.shape))[..., 0]
            return np.where(xi == 2.0, complex(np.nan, np.nan), 1.0 + 0.5j)

        m = fk.SymbolModel(kind="closed_form", dimension=1, evaluator=evaluator, conservative=False)
        rep = check_sector_condition(m, X_GRID, [1.0, 2.0])
        assert rep.verdict == "fails"
        assert rep.witness_xi.tolist() == [2.0]

class TestFellerDecay:
    def test_stable_symbol_decays(self):
        rep = check_feller_decay(fk.alpha_stable(0.5, 1), np.geomspace(1.0, 1e5, 6))
        assert rep.verdict == "holds"
        assert rep.sups[-1] < rep.sups[0]
        assert rep.sups[-1] < 1e-2

    def test_killed_constant_does_not_decay(self):
        m = fk.closed_form_symbol("1.0 + 0*xi", conservative=False)
        rep = check_feller_decay(m, np.geomspace(1.0, 1e5, 6))
        assert rep.verdict == "fails"


class TestSqrtSubadditivity:
    def test_stable_passes(self):
        rep = check_sqrt_subadditivity(fk.alpha_stable(0.7, 1))
        assert rep.verdict == "holds"
        assert rep.counterexample is None
        assert rep.n_checked == 1000

    def test_quartic_fails_with_counterexample(self):
        rep = check_sqrt_subadditivity(fk.closed_form_symbol("abs(xi)**4"))
        assert rep.verdict == "fails"
        assert sorted(rep.counterexample) == ["lhs", "rhs", "x", "xi1", "xi2"]
        assert rep.counterexample["lhs"] > rep.counterexample["rhs"]
