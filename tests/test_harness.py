"""Floating-point reference fields and the convergence harness."""

import math
import sys
from fractions import Fraction as F

import pytest

from reconkernel import harness
from reconkernel.exact import InvariantError, RatPoly, ValidationError, poly_eval
from reconkernel.harness import (
    G_TAU_SERIES_CUTOFF,
    MAX_GRID_LEVELS,
    ROUNDOFF_FLOOR_FACTOR,
    ConvergenceReport,
    SampleSet,
    convergence_study,
    derivative_coeffs,
    exp_cell_average,
    exp_pair_reference,
    g_tau_float,
    halving_slope,
    non_interpolation_check,
    reconstruct_face,
)
from reconkernel.recon import basis, poly_sliding_average
from reconkernel.vandermonde import Stencil
from oracles import derivative_coeffs_difference_oracle


class TestGTauFloat:
    def test_unit_value_at_zero(self):
        assert g_tau_float(0.0) == 1.0

    def test_closed_form_away_from_zero(self):
        assert g_tau_float(1.0) == 0.5 / math.sinh(0.5)
        assert g_tau_float(0.25) == 0.125 / math.sinh(0.125)

    def test_series_branch_matches_the_closed_form(self):
        # just below the switch point the truncated series and the sinh
        # quotient agree to the last bit
        below = G_TAU_SERIES_CUTOFF * (1 - 2.0**-20)
        assert abs(g_tau_float(below) - (below / 2) / math.sinh(below / 2)) < 3e-16

    def test_even_in_x(self):
        for x in (1e-4, 0.01, 0.5, 2.0):
            assert g_tau_float(-x) == g_tau_float(x)

    def test_below_one_off_zero(self):
        for x in (1e-5, 0.1, 1.0):
            assert 0 < g_tau_float(x) < 1


class TestReferenceFields:
    def test_delta_x_validation(self):
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValidationError):
                exp_pair_reference(0.0, bad)
            with pytest.raises(ValidationError):
                exp_cell_average(0.0, bad)

    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("dx", [0.5, 0.01, 1e-5])
    def test_sliding_average_of_reference_is_exp(self, x, dx):
        # the directly differenced quotient loses about eps/dx to cancellation
        avg = (
            g_tau_float(dx)
            * (math.exp(x + dx / 2) - math.exp(x - dx / 2))
            / dx
        )
        assert abs(avg - math.exp(x)) <= 1e-14 / dx * math.exp(x)

    @pytest.mark.parametrize("x", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("dx", [0.5, 0.01])
    def test_cell_average_matches_direct_integral(self, x, dx):
        direct = (math.exp(x + dx / 2) - math.exp(x - dx / 2)) / dx
        assert abs(exp_cell_average(x, dx) - direct) <= 1e-14 / dx * direct

    @pytest.mark.parametrize(
        "call, args",
        [
            (g_tau_float, (1500.0,)),
            (g_tau_float, (-1500.0,)),
            (exp_pair_reference, (1000.0, 0.1)),
            (exp_cell_average, (1000.0, 0.1)),
            (exp_cell_average, (0.0, 1500.0)),
            (exp_cell_average, (709.0, 100.0)),
        ],
        ids=[
            "g_tau-1500",
            "g_tau--1500",
            "exp_pair_reference-x",
            "exp_cell_average-x",
            "exp_cell_average-dx",
            "exp_cell_average-quotient",
        ],
    )
    def test_overflow_is_a_validation_error(self, call, args):
        with pytest.raises(ValidationError, match="overflows binary64"):
            call(*args)

    def test_results_at_the_overflow_edges_are_unchanged(self):
        # sinh overflows above a half-width of about 710.48, exp above log(max float)
        edge = 710.4758600739439
        assert g_tau_float(2 * edge) == edge / math.sinh(edge)
        with pytest.raises(ValidationError):
            g_tau_float(2 * math.nextafter(edge, math.inf))
        x = math.log(sys.float_info.max)
        assert exp_pair_reference(x, 0.5) == g_tau_float(0.5) * math.exp(x)
        # the quotient e^x / g_tau(0.5) passes the largest float before e^x does
        assert exp_cell_average(709.77, 0.5) == math.exp(709.77) / g_tau_float(0.5)
        assert math.isinf(math.exp(x) / g_tau_float(0.5))
        with pytest.raises(ValidationError):
            exp_cell_average(x, 0.5)
        with pytest.raises(ValidationError):
            exp_cell_average(math.nextafter(x, math.inf), 0.5)

    def test_finite_cell_averages_are_unchanged(self):
        assert exp_cell_average(700.0, 1.0) == 1.0570231248073765e304
        assert exp_cell_average(650.0, 40.0) == math.exp(650.0) / g_tau_float(40.0)

    def test_pair_reference_scales_exp(self):
        dx = 0.125
        assert exp_pair_reference(0.7, dx) == g_tau_float(dx) * math.exp(0.7)


class TestSampleSet:
    def test_from_function_samples_the_offsets(self):
        samples = SampleSet.from_function(Stencil(1, 1), math.exp, 0.0, 0.5)
        assert samples.values == (math.exp(-0.5), 1.0, math.exp(0.5))

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            SampleSet(Stencil(1, 1), 0.0, 0.5, (1.0, 2.0))

    def test_values_must_be_iterable(self):
        with pytest.raises(ValidationError, match="samples must be a sequence"):
            SampleSet(Stencil(2, 2), 0.0, 0.1, 5)

    def test_list_values_are_stored_as_a_tuple(self):
        samples = SampleSet(Stencil(0, 1), 0.0, 0.5, [1.0, 2.0])
        assert samples.values == (1.0, 2.0)
        assert hash(samples) == hash(SampleSet(Stencil(0, 1), 0.0, 0.5, (1.0, 2.0)))

    def test_finite_validation(self):
        with pytest.raises(ValidationError):
            SampleSet(Stencil(0, 1), 0.0, 0.5, (1.0, math.nan))
        with pytest.raises(ValidationError):
            SampleSet(Stencil(0, 1), math.inf, 0.5, (1.0, 2.0))
        with pytest.raises(ValidationError):
            SampleSet(Stencil(0, 1), 0.0, -0.5, (1.0, 2.0))


class TestReconstructFace:
    def test_dyadic_coefficients_are_exact_on_linear_data(self):
        # the two-cell face coefficients are (1/2, 1/2): exact in binary
        samples = SampleSet(Stencil(0, 1), 0.0, 0.25, (1.5, 2.5))
        assert reconstruct_face(samples) == 2.0

    def test_constant_field_reconstructs_to_the_constant(self):
        samples = SampleSet(Stencil(2, 2), 0.0, 0.1, (7.25,) * 5)
        assert abs(reconstruct_face(samples) - 7.25) < 1e-14


class TestDerivativeCoeffs:
    def test_single_cell_gives_upwind_difference(self):
        assert derivative_coeffs(Stencil(0, 0)) == ((-1, F(-1)), (0, F(1)))

    @pytest.mark.parametrize(
        "s", [Stencil(0, 0), Stencil(1, 1), Stencil(2, 1), Stencil(2, 2)], ids=str
    )
    def test_offsets_and_zero_sum(self, s):
        pairs = derivative_coeffs(s)
        assert [j for j, _ in pairs] == list(range(-s.m_minus - 1, s.m_plus + 1))
        assert sum(w for _, w in pairs) == 0

    @pytest.mark.parametrize(
        "s", [Stencil(0, 0), Stencil(1, 1), Stencil(2, 1), Stencil(1, 2), Stencil(2, 2)], ids=str
    )
    def test_exact_derivative_on_matching_polynomials(self, s):
        # the flux difference telescopes two exact face reconstructions, so
        # it differentiates the averaged field exactly through degree M
        h = RatPoly.of([F(i + 2, 2 * i + 1) for i in range(s.m + 1)])
        f = poly_sliding_average(h)
        dot = sum(w * poly_eval(f, j) for j, w in derivative_coeffs(s))
        assert dot == poly_eval(f.derivative(), 0)

    def test_reaches_no_face_coeffs(self, monkeypatch):
        s = Stencil(3, 4)
        expected = derivative_coeffs_difference_oracle(s)

        def forbidden(*args):
            raise AssertionError("derivative_coeffs went through the face coefficients")

        monkeypatch.setattr(harness, "face_coeffs", forbidden)
        assert derivative_coeffs(s) == expected

    def test_weights_that_do_not_sum_to_zero_raise(self, monkeypatch):
        monkeypatch.setattr(harness, "_face_weights", lambda s: [1] * (s.m + 2))
        with pytest.raises(InvariantError, match=r"flux-difference weights of stencil \(1,2\)"):
            derivative_coeffs(Stencil(1, 2))


class TestConvergenceStudy:
    def test_face_study_of_the_centered_stencil(self):
        report = convergence_study(Stencil(1, 1), "face")
        assert report.target == "face"
        assert report.grid_sizes == tuple(2.0**-k for k in range(4, 11))
        assert len(report.errors) == 7
        assert report.fit_indices == (3, 4, 5, 6)
        assert abs(report.fitted_order - 3) < 0.1

    def test_derivative_study_of_the_centered_stencil(self):
        report = convergence_study(Stencil(1, 1), "derivative")
        assert abs(report.fitted_order - 3) < 0.1

    def test_errors_decrease_with_the_grid(self):
        report = convergence_study(Stencil(1, 1), "face")
        assert all(a > b for a, b in zip(report.errors, report.errors[1:]))

    def test_roundoff_floor_trims_the_window(self):
        # sixth-order errors dive below the floor on the finest grids, so
        # only the three coarsest levels survive for the fit
        report = convergence_study(Stencil(3, 2), "face")
        assert report.fit_indices == (0, 1, 2)
        assert abs(report.fitted_order - 6) < 0.1

    def test_wide_window_uses_every_usable_point(self):
        report = convergence_study(Stencil(1, 1), "face", grid_levels=5, fit_window=10)
        assert report.fit_indices == (0, 1, 2, 3, 4)

    def test_degenerate_fit_is_rejected(self):
        with pytest.raises(ValidationError, match="degenerate fit"):
            convergence_study(Stencil(4, 4), "face")

    def test_parameter_validation(self):
        s = Stencil(1, 1)
        with pytest.raises(ValidationError):
            convergence_study(s, "flux")
        with pytest.raises(ValidationError):
            convergence_study(s, "face", grid_levels=2)
        with pytest.raises(ValidationError):
            convergence_study(s, "face", fit_window=2)
        with pytest.raises(ValidationError):
            convergence_study(s, "face", grid_levels=True)

    @pytest.mark.parametrize("target", ["face", "derivative"])
    @pytest.mark.parametrize("levels", [MAX_GRID_LEVELS + 1, 1100, 5000])
    def test_grid_widths_below_the_normal_floats_are_rejected(self, target, levels):
        with pytest.raises(ValidationError, match="normal float range"):
            convergence_study(Stencil(1, 1), target, levels)

    @pytest.mark.parametrize("target", ["face", "derivative"])
    def test_smallest_normal_width_is_accepted(self, target):
        report = convergence_study(Stencil(1, 1), target, MAX_GRID_LEVELS)
        assert report.grid_sizes[-1] == 2.0**-1022

    @pytest.mark.parametrize("target", ["face", "derivative"])
    @pytest.mark.parametrize(
        "s",
        # M = 4 windows right of the pivot: at m_plus = 10992 the float error
        # overflowed, from 11357 on the exp of the first sample
        [Stencil(4 - 10992, 10992), Stencil(4 - 11357, 11357), Stencil(-100000, 100004)],
        ids=str,
    )
    def test_windows_whose_error_overflows_a_float_are_rejected(self, s, target):
        with pytest.raises(ValidationError, match="too far from the pivot"):
            convergence_study(s, target)

    def test_report_validation(self):
        with pytest.raises(ValidationError):
            ConvergenceReport(Stencil(1, 1), "face", (0.5, 0.25), (1e-3,), 3.0, (0,))
        with pytest.raises(ValidationError):
            ConvergenceReport(Stencil(1, 1), "face", (0.25, 0.5), (1e-3, 1e-4), 3.0, (0,))


class TestNonInterpolation:
    def test_reconstruction_misses_the_nodes(self):
        gap = non_interpolation_check(Stencil(1, 1), 0.01)
        assert 0 < gap < 1e-6

    def test_gap_shrinks_at_the_accuracy_order(self):
        assert abs(halving_slope(Stencil(1, 1), 0.01) - 3) < 0.15

    def test_polynomial_fields_are_matched_exactly(self):
        # the float-field gap is a property of the pairing, not of the basis:
        # on polynomial data of stencil degree the reconstruction hits the
        # nodal point values exactly
        s = Stencil(1, 1)
        h = RatPoly.of([F(1, 3), -2, F(5, 7)])
        f = poly_sliding_average(h)
        recon = RatPoly()
        for p, node in zip(basis(s).alpha_h, s.offsets()):
            recon = recon + p * poly_eval(f, node)
        for node in s.offsets():
            assert poly_eval(recon, node) == poly_eval(h, node)

    def test_validation(self):
        with pytest.raises(ValidationError):
            non_interpolation_check(Stencil(1, 1), 0.0)
        with pytest.raises(ValidationError):
            halving_slope(Stencil(1, 1), 0.01, halvings=0)
        with pytest.raises(ValidationError):
            halving_slope(Stencil(1, 1), 0.01, halvings=True)

    @pytest.mark.parametrize(
        "s, dx",
        [(Stencil(1, 1), 1e300), (Stencil(1, 1), 710.0), (Stencil(0, 3), 237.0), (Stencil(3, -1), 1500.0)],
        ids=str,
    )
    def test_widths_that_overflow_exp_are_refused(self, s, dx):
        with pytest.raises(ValidationError, match="overflows"):
            non_interpolation_check(s, dx)
        with pytest.raises(ValidationError, match="overflows"):
            halving_slope(s, dx)

    def test_width_at_the_exp_limit_is_accepted(self):
        assert math.isfinite(non_interpolation_check(Stencil(1, 1), 709.0))

    @pytest.mark.parametrize("halvings", [1016, 1100, 5000])
    def test_halvings_below_the_normal_range_are_refused(self, halvings):
        # 0.01 / 2^1015 is the last normal width
        with pytest.raises(ValidationError, match="normal float range"):
            halving_slope(Stencil(1, 1), 0.01, halvings)
    def test_floor_factor_is_conservative(self):
        # the usability floor sits three decades above unit roundoff
        assert ROUNDOFF_FLOOR_FACTOR == 1.0e3
