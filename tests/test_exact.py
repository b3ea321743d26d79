"""Exact polynomial and rational-function arithmetic."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconkernel import cli, deconv, exact, recon, vandermonde, weno
from reconkernel.exact import (
    InvariantError,
    RatFunction,
    RatPoly,
    ValidationError,
    cauchy_root_bound,
    poly_definite_integral,
    poly_eval,
    poly_gcd,
    _int_sturm_chain,
    _sturm_variations,
    square_free_part,
    sturm_real_root_count,
)
from reconkernel.recon import poly_sliding_average
from reconkernel.vandermonde import Stencil
from oracles import (
    PowerSeries,
    _prem,
    _sign_variations,
    _sturm_chain,
    poly_divmod_oracle,
    poly_eval_oracle,
    poly_gcd_subresultant_oracle,
    poly_mul_fraction_oracle,
    poly_sliding_average_oracle,
    series_divide,
    square_free_part_oracle,
    sturm_count_oracle,
    taylor_shift,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_polys = st.lists(rationals, max_size=7).map(RatPoly.of)


class TestRatPoly:
    def test_trailing_zeros_are_stripped(self):
        assert RatPoly.of([1, 2, 0, 0]) == RatPoly.of([1, 2])
        assert RatPoly.of([0, 0]).is_zero
        assert RatPoly.of([]).degree == -1

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            RatPoly.of([0.5])

    @pytest.mark.parametrize("degree", [2.5, True, -1], ids=repr)
    def test_monomial_rejects_bad_degree(self, degree):
        with pytest.raises(ValidationError):
            RatPoly.monomial(degree)

    @pytest.mark.parametrize("n", [True, 1.5, -1], ids=repr)
    def test_power_rejects_bad_exponent(self, n):
        with pytest.raises(ValidationError):
            RatPoly.of([1, 1]) ** n

    def test_eval_horner(self):
        p = RatPoly.of([1, -3, 2])
        assert p(F(1, 2)) == 0
        assert poly_eval(p, 2) == 3

    def test_ring_operations(self):
        p = RatPoly.of([1, 1])
        q = RatPoly.of([-1, 1])
        assert p * q == RatPoly.of([-1, 0, 1])
        assert p + q == RatPoly.of([0, 2])
        assert p - p == RatPoly()
        assert p**3 == RatPoly.of([1, 3, 3, 1])
        assert 2 * p == RatPoly.of([2, 2])

    def test_divmod(self):
        p = RatPoly.of([-1, 0, 0, 1])
        d = RatPoly.of([-1, 1])
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero

    def test_derivative_antiderivative_inverse(self):
        p = RatPoly.of([3, -2, F(1, 3), 5])
        assert p.antiderivative().derivative() == p

    def test_taylor_shift(self):
        p = RatPoly.of([0, 0, 1])
        shifted = taylor_shift(p, 1)
        assert shifted == RatPoly.of([1, 2, 1])
        assert shifted(0) == p(1)

    def test_string_round_trip(self):
        p = RatPoly.of([F(-1, 24), F(1, 2), 1])
        assert RatPoly.from_strings(p.to_strings()) == p

    @given(small_polys, rationals)
    def test_shift_matches_pointwise(self, p, c):
        assert taylor_shift(p, c)(0) == p(c)


class TestCalculus:
    def test_definite_integral(self):
        p = RatPoly.of([0, 0, 3])
        assert poly_definite_integral(p, 0, 2) == 8
        assert poly_definite_integral(p, 2, 0) == -8

    @given(small_polys, rationals, rationals, rationals)
    def test_integral_additivity(self, p, a, b, c):
        whole = poly_definite_integral(p, a, c)
        split = poly_definite_integral(p, a, b) + poly_definite_integral(p, b, c)
        assert whole == split

    def test_sliding_average_of_quadratic(self):
        # average of x^2 over (x-1/2, x+1/2) is x^2 + 1/12
        assert poly_sliding_average(RatPoly.of([0, 0, 1])) == RatPoly.of([F(1, 12), 0, 1])

    @given(small_polys)
    def test_sliding_average_preserves_degree_and_leading(self, p):
        q = poly_sliding_average(p)
        assert q.degree == p.degree
        if not p.is_zero:
            assert q.leading == p.leading

    @given(small_polys, rationals)
    def test_sliding_average_pointwise(self, p, x):
        anti = p.antiderivative()
        expected = anti(x + F(1, 2)) - anti(x - F(1, 2))
        assert poly_sliding_average(p)(x) == expected


class TestRatFunction:
    def test_reduction_to_lowest_terms(self):
        r = RatFunction(RatPoly.of([-1, 0, 1]), RatPoly.of([1, 1]))
        assert r == RatFunction.from_poly(RatPoly.of([-1, 1]))
        assert r.is_polynomial

    def test_den_made_monic(self):
        r = RatFunction(RatPoly.of([1]), RatPoly.of([0, 2]))
        assert r.den == RatPoly.of([0, 1])
        assert r.num == RatPoly.of([F(1, 2)])

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            RatFunction(RatPoly.of([1]), RatPoly())

    def test_pole_evaluation(self):
        r = RatFunction(RatPoly.of([1]), RatPoly.of([0, 1]))
        with pytest.raises(ZeroDivisionError):
            r(0)
        assert r(F(1, 2)) == 2

    def test_field_operations(self):
        x = RatFunction(RatPoly.of([0, 1]), RatPoly.of([1]))
        one_over_x = RatFunction(RatPoly.of([1]), RatPoly.of([0, 1]))
        assert x * one_over_x == RatFunction.constant(1)
        s = x + one_over_x
        assert s.num == RatPoly.of([1, 0, 1])
        assert s.den == RatPoly.of([0, 1])
        assert s - x == one_over_x

    def test_division(self):
        x = RatFunction(RatPoly.of([0, 1]))
        x_plus_1 = RatFunction(RatPoly.of([1, 1]))
        quotient = x / x_plus_1
        assert quotient == RatFunction(RatPoly.of([0, 1]), RatPoly.of([1, 1]))
        assert quotient * x_plus_1 == x
        assert x_plus_1 / x_plus_1 == RatFunction.constant(1)
        assert x / 2 == RatFunction(RatPoly.of([0, F(1, 2)]))
        assert x / F(2, 3) == RatFunction(RatPoly.of([0, F(3, 2)]))

    @pytest.mark.parametrize("zero", [0, F(0), RatFunction.constant(0)], ids=repr)
    def test_division_by_zero_rejected(self, zero):
        with pytest.raises(ValidationError):
            RatFunction(RatPoly.of([0, 1])) / zero

    @given(small_polys, small_polys.filter(lambda p: not p.is_zero), rationals)
    @settings(max_examples=50)
    def test_pointwise_consistency(self, n, d, x):
        r = RatFunction(n, d)
        if poly_eval(r.den, x) != 0 and poly_eval(d, x) != 0:
            assert r(x) == poly_eval(n, x) / poly_eval(d, x)


class TestPowerSeries:
    def test_order_is_kept(self):
        s = PowerSeries.of([1, 0, 0], order=4)
        assert s.order == 4
        assert s.coeff(4) == 0
        with pytest.raises(ValidationError):
            s.coeff(5)

    def test_mul_truncates(self):
        a = PowerSeries.of([1, 1], order=3)
        b = PowerSeries.of([1, -1], order=2)
        assert (a * b).order == 2
        assert (a * b).coeffs == (1, 0, -1)

    def test_divide_round_trip(self):
        a = PowerSeries.of([1, 2, 3, 4], order=5)
        b = PowerSeries.of([2, -1, 5], order=5)
        q = series_divide(a, b, 5)
        lifted = PowerSeries.of(b.coeffs, order=5)
        assert (q * lifted).coeffs == PowerSeries.of(a.coeffs, order=5).coeffs

    def test_divide_rejects_zero_constant_term(self):
        with pytest.raises(ValidationError):
            series_divide(PowerSeries.of([1]), PowerSeries.of([0, 1]), 3)

    def test_geometric_series(self):
        q = series_divide(PowerSeries.of([1]), PowerSeries.of([1, -1]), 5)
        assert q.coeffs == (1, 1, 1, 1, 1, 1)


class TestGcdAndSturm:
    def test_gcd_of_shared_factor(self):
        common = RatPoly.of([1, 1])
        a = common * RatPoly.of([-2, 1])
        b = common * RatPoly.of([3, 0, 1])
        assert poly_gcd(a, b) == common.monic()

    def test_gcd_coprime(self):
        assert poly_gcd(RatPoly.of([1, 1]), RatPoly.of([2, 1])) == RatPoly.of([1])

    @given(small_polys, small_polys, small_polys.filter(lambda p: not p.is_zero))
    @settings(max_examples=50)
    def test_gcd_divides_both(self, a, b, scale):
        a, b = a * scale, b * scale
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        for p in (a, b):
            _, r = divmod(p, g)
            assert r.is_zero

    def test_square_free_part(self):
        p = RatPoly.of([-1, 1]) ** 3 * RatPoly.of([1, 1])
        assert square_free_part(p) == (RatPoly.of([-1, 1]) * RatPoly.of([1, 1])).monic()

    def test_cauchy_bound_contains_roots(self):
        p = RatPoly.of([-6, 11, -6, 1])  # roots 1, 2, 3
        assert cauchy_root_bound(p) >= 3

    def test_sturm_simple_roots(self):
        p = RatPoly.of([-6, 11, -6, 1])
        assert sturm_real_root_count(p, 0, 4) == 3
        assert sturm_real_root_count(p, F(3, 2), 4) == 2
        assert sturm_real_root_count(p, 4, 10) == 0

    def test_sturm_counts_distinct_roots_of_multiple_factor(self):
        p = RatPoly.of([-1, 1]) ** 2
        assert sturm_real_root_count(p, 0, 2) == 1

    def test_sturm_half_open_endpoints(self):
        # the count is over (a, b]: a root at b is in, a root at a is out
        p = RatPoly.of([0, -1, 0, 1])  # roots -1, 0, 1
        assert sturm_real_root_count(p, -1, 1) == 2
        assert sturm_real_root_count(p, 0, 1) == 1
        assert sturm_real_root_count(p, -1, 0) == 1
        assert sturm_real_root_count(p, -2, 1) == 3

    def test_sturm_endpoint_only_interval(self):
        p = RatPoly.of([-1, 1])
        assert sturm_real_root_count(p, 1, 2) == 0
        assert sturm_real_root_count(p, 0, 1) == 1

    def test_sturm_irrational_roots(self):
        p = RatPoly.of([-2, 0, 1])
        assert sturm_real_root_count(p, 0, 2) == 1
        assert sturm_real_root_count(p, -2, 2) == 2

    def test_sturm_no_real_roots(self):
        assert sturm_real_root_count(RatPoly.of([1, 0, 1]), -10, 10) == 0

    def test_sturm_validates_input(self):
        with pytest.raises(ValidationError):
            sturm_real_root_count(RatPoly(), 0, 1)
        with pytest.raises(ValidationError):
            sturm_real_root_count(RatPoly.of([1, 1]), 1, 1)

    @given(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=100)
    def test_sturm_counts_repeated_roots_on_the_endpoints(self, roots, data):
        # x^2 + 1 keeps a factor without real roots in the chain
        p = RatPoly.of([1, 0, 1])
        for r in roots:
            p = p * RatPoly.of([-r, 1])
        ends = sorted(set(roots) | {F(-5), F(5)})
        a, b = sorted(data.draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True)))
        assert sturm_real_root_count(p, a, b) == len({r for r in roots if a < r <= b})

    def test_sturm_against_factored_oracle(self):
        # (x+2)(x-1/3)(x-1)(x-5/2) with a window sweep
        roots = [F(-2), F(1, 3), F(1), F(5, 2)]
        p = RatPoly.of([1])
        for r in roots:
            p = p * RatPoly.of([-r, 1])
        for a, b in [(F(-3), F(3)), (F(-2), F(1)), (F(0), F(1, 3)), (F(2), F(3))]:
            expected = sum(1 for r in roots if a < r <= b)
            assert sturm_real_root_count(p, a, b) == expected


class TestIntegerSturmChain:
    """The integer chain against the rational chain it replaces."""

    @staticmethod
    def assert_chains_agree(p, points):
        chain = _int_sturm_chain(p)
        oracle = _sturm_chain(square_free_part_oracle(p))
        assert len(chain) == len(oracle)
        for ints, q in zip(chain, oracle):
            entry = RatPoly.of(ints)
            ratio = entry.leading / q.leading
            assert ratio > 0 and entry == q * ratio, (ints, q.coeffs)
        for x in points:
            assert _sturm_variations(chain, x) == _sign_variations(oracle, x)
        return chain

    # mostly zero coefficients, so that remainders often drop two degrees
    @given(
        st.lists(st.sampled_from([0, 0, 0, -3, -1, 1, 2, 5]), min_size=2, max_size=9),
        st.lists(rationals, min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_entries_are_positive_multiples_of_the_rational_chain(self, coeffs, points):
        p = RatPoly.of(coeffs)
        if p.degree >= 1:
            self.assert_chains_agree(p, points)

    def test_remainder_after_a_negative_leading_coefficient_keeps_its_sign(self):
        # x^5 + 5x^2 + 5x + 3: an entry with a negative leading coefficient is
        # followed by a remainder two degrees lower, where lc^3 flips the sign
        p = RatPoly.of([3, 5, 5, 0, 0, 1])
        chain = self.assert_chains_agree(p, [F(-3), F(-1, 2), F(0), F(3)])
        assert any(
            b[-1] < 0 and (len(a) - len(b)) % 2 == 0 for a, b in zip(chain, chain[1:-1])
        )
        assert sturm_real_root_count(p, -3, 3) == 1

    # repeated roots, and leading coefficients that are negative or fractional
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=4, max_size=4),
        st.sampled_from([F(-1), F(-3, 2), F(2, 7), F(-5, 3), F(4)]),
        st.lists(rationals, min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_repeated_linear_factors_match_the_oracle_route(self, roots, powers, lead, points):
        p = RatPoly.constant(lead)
        for r, k in zip(roots, powers):
            p = p * RatPoly.of([-r, 1]) ** k
        distinct = RatPoly.constant(1)
        for r in set(roots):
            distinct = distinct * RatPoly.of([-r, 1])
        assert square_free_part(p) == square_free_part_oracle(p) == distinct
        self.assert_chains_agree(p, points)
        ends = sorted(set(points))
        for a, b in zip(ends, ends[1:]):
            assert sturm_real_root_count(p, a, b) == sturm_count_oracle(p, a, b)

    def test_a_square_free_chain_is_one_remainder_sequence(self, monkeypatch):
        census = weno.sigma_weights(Stencil(3, 4), 3).weights[1].den
        calls = []
        sequence = exact._remainder_sequence

        def recording(a, b):
            calls.append((a, b))
            return sequence(a, b)

        monkeypatch.setattr(exact, "_remainder_sequence", recording)
        for p in (RatPoly.of([0, -1, 0, 1]), census):
            assert p.degree >= 3
            calls.clear()
            assert sturm_real_root_count(p, -cauchy_root_bound(p), cauchy_root_bound(p)) == p.degree
            assert len(calls) == 1
            calls.clear()
            assert square_free_part(p) == p.monic()
            assert len(calls) == 1


sparse_polys = st.lists(st.sampled_from([0, 0, 0, -3, -1, 1, 2, 5]), max_size=9).map(RatPoly.of)


class TestGcdOnTheRemainderSequence:
    """poly_gcd against the subresultant route it replaced."""

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=200)
    def test_matches_the_subresultant_oracle(self, a, b, common):
        a, b = a * common, b * common
        assert poly_gcd(a, b) == poly_gcd_subresultant_oracle(a, b)

    # mostly zero coefficients, so that remainders often drop two degrees
    @given(sparse_polys, sparse_polys, sparse_polys)
    @settings(max_examples=200)
    def test_matches_the_subresultant_oracle_on_sparse_polynomials(self, a, b, common):
        a, b = a * common, b * common
        assert poly_gcd(a, b) == poly_gcd_subresultant_oracle(a, b)

    @pytest.mark.parametrize(
        "a, b, common",
        [
            ([1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 1], [-2, 0, 1]),
            ([3, 5, 5, 0, 0, 1], [5, 10, 0, 0, 5], [1, 1]),
            ([1, 0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, -1]),
            ([1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [2, 0, 1]),
        ],
    )
    def test_remainders_that_drop_two_degrees(self, a, b, common):
        a, b = RatPoly.of(a) * RatPoly.of(common), RatPoly.of(b) * RatPoly.of(common)
        assert poly_gcd(a, b) == poly_gcd_subresultant_oracle(a, b) == RatPoly.of(common).monic()
        seq = exact._remainder_sequence(exact._int_coeffs(a), exact._int_coeffs(b))
        assert any(len(u) - len(v) >= 2 for u, v in zip(seq[1:], seq[2:]))

    def test_gcd_and_sturm_chains_share_one_remainder_sequence(self, monkeypatch):
        calls = []
        sequence = exact._remainder_sequence

        def recording(a, b):
            calls.append((a, b))
            return sequence(a, b)

        monkeypatch.setattr(exact, "_remainder_sequence", recording)
        assert poly_gcd(RatPoly.of([-1, 0, 1]), RatPoly.of([1, 1])) == RatPoly.of([1, 1])
        assert calls == [([-1, 0, 1], [1, 1])]
        calls.clear()
        # (x - 1)^2 (x + 1): the gcd with p' for the square-free part, then
        # the chain of x^2 - 1 and 2x
        assert sturm_real_root_count(RatPoly.of([1, -1, -1, 1]), -2, 2) == 2
        assert calls == [([1, -1, -1, 1], [-1, -2, 3]), ([-1, 0, 1], [0, 1])]


def _stripped(ints):
    while ints and ints[-1] == 0:
        ints = ints[:-1]
    return ints


# zero, constants and negative leading coefficients all occur
int_polys = st.lists(st.integers(-30, 30), max_size=8).map(_stripped)
nonzero_int_polys = int_polys.filter(bool)
unit_lead_polys = st.tuples(st.lists(st.integers(-30, 30), max_size=6), st.sampled_from([1, -1])).map(
    lambda t: t[0] + [t[1]]
)


class TestIntegerLongDivision:
    """The one integer long division against the routes it replaced."""

    @given(int_polys, nonzero_int_polys)
    @settings(max_examples=300)
    def test_scaled_remainder_is_the_pseudo_remainder(self, a, b):
        e = max(len(a) - len(b) + 1, 0)
        assert exact._divmod_int([b[-1] ** e * c for c in a], b)[1] == _prem(a, b)

    @given(int_polys, unit_lead_polys)
    @settings(max_examples=300)
    def test_division_by_a_unit_lead_matches_the_rational_divmod(self, a, b):
        q, r = exact._divmod_int(a, b)
        assert (RatPoly.of(q), RatPoly.of(r)) == poly_divmod_oracle(RatPoly.of(a), RatPoly.of(b))
        assert r == _stripped(r)

    @given(nonzero_int_polys, nonzero_int_polys)
    @settings(max_examples=200)
    def test_exact_quotient_of_a_primitive_divisor(self, a, b):
        b = exact._positive_primitive(b)
        product = exact._int_coeffs(RatPoly.of(a) * RatPoly.of(b))
        assert exact._divmod_int(product, b) == (exact._positive_primitive(a), [])

    def test_a_fractional_step_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match="left a fraction"):
            exact._divmod_int([1, 0, 1], [1, 2])

    @given(small_polys, small_polys.filter(lambda p: not p.is_zero), small_polys.filter(lambda p: not p.is_zero))
    @settings(max_examples=100)
    def test_cancel_leaves_the_reduced_ratio(self, a, b, common):
        p, q = a * common, b * common
        n, d = exact._cancel(p, q)
        g = poly_gcd(p, q)
        pg, qg = poly_divmod_oracle(p, g)[0], poly_divmod_oracle(q, g)[0]
        assert n * qg == d * pg
        assert d.leading == 1
        if not p.is_zero:
            assert (n, d) == (pg * (1 / qg.leading), qg.monic())

    def test_no_call_reaches_the_rational_divmod(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("a package call reached RatPoly.__divmod__")

        def run():
            family = weno.sigma_weights(Stencil(3, 2), 3)
            x = RatFunction(RatPoly.of([1, 2, 1]), RatPoly.of([-1, 0, 1]))
            y = RatFunction(RatPoly.of([2, -3]), RatPoly.of([1, 0, -4]))
            out = [
                family,
                weno.sigma_pole_analysis(family),
                [weno.error_expansion(Stencil(2, 1), kind, 7) for kind in ("f", "h", "lambda-f", "lambda-h")],
                [vandermonde.nu(Stencil(-2, 5), m, 11) for m in range(4)],
                vandermonde.inv_vandermonde(Stencil(4, -1)),
                recon.basis(Stencil(1, 3)),
                square_free_part(RatPoly.of([4, -4, -3, 4, -1])),
                [x + y, x - y, x * y, x / y],
            ]
            for argv in (
                ["error-poly", "--stencil", "2", "3", "--order", "9"],
                ["poles", "--stencil", "3", "3", "--levels", "3"],
                ["vandermonde", "--stencil", "3", "2"],
            ):
                assert cli.main(argv) == 0
                out.append(capsys.readouterr().out)
            return out

        expected = run()
        monkeypatch.setattr(RatPoly, "__divmod__", forbidden)
        for module in (deconv, vandermonde, recon, weno):
            for memoized in vars(module).values():
                if hasattr(memoized, "cache_clear"):
                    memoized.cache_clear()
        assert run() == expected


# dividends and divisors with rational, non-monic leads; the zero polynomial occurs
wide_polys = st.lists(rationals, max_size=10).map(RatPoly.of)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
points = st.one_of(st.integers(-50, 50), rationals)


class TestIntegerKernels:
    """Division and evaluation on the integer kernels, against the Fraction loops they replaced."""

    def test_divmod_runs_the_integer_long_division(self, monkeypatch):
        calls = []
        divide = exact._divmod_int

        def recording(a, b):
            calls.append((a, b))
            return divide(a, b)

        monkeypatch.setattr(exact, "_divmod_int", recording)
        a, b = RatPoly.of([1, 0, F(1, 2)]), RatPoly.of([1, F(2, 3)])
        # 2a and 3b in integers, 2a scaled by lc(3b)^2 = 4
        assert divmod(a, b) == poly_divmod_oracle(a, b)
        assert calls == [([8, 0, 4], [3, 2])]

    def test_poly_eval_runs_the_homogeneous_integer_horner(self, monkeypatch):
        calls = []
        evaluate = exact._homogeneous_eval

        def recording(coeffs, n, d):
            calls.append((coeffs, n, d))
            return evaluate(coeffs, n, d)

        monkeypatch.setattr(exact, "_homogeneous_eval", recording)
        assert poly_eval(RatPoly.of([F(1, 2), 3]), F(2, 5)) == F(17, 10)
        assert calls == [([1, 6], 2, 5)]

    @given(wide_polys, nonzero_polys)
    @settings(max_examples=300)
    def test_divmod_matches_the_elimination_loop(self, a, b):
        q, r = divmod(a, b)
        assert (q, r) == poly_divmod_oracle(a, b)
        assert q * b + r == a and r.degree < b.degree

    def test_divmod_edge_cases(self):
        b = RatPoly.of([F(-3, 4), 0, F(5, 7)])
        assert divmod(RatPoly(), b) == (RatPoly(), RatPoly()) == poly_divmod_oracle(RatPoly(), b)
        low = RatPoly.of([F(1, 3), F(-2, 9)])
        assert divmod(low, b) == (RatPoly(), low) == poly_divmod_oracle(low, b)
        assert divmod(b, RatPoly.constant(F(-2, 3))) == (b * F(-3, 2), RatPoly())
        for divide in (divmod, poly_divmod_oracle):
            with pytest.raises(ZeroDivisionError):
                divide(b, RatPoly())

    @given(wide_polys, points)
    @settings(max_examples=300)
    def test_poly_eval_matches_fraction_horner(self, p, x):
        assert poly_eval(p, x) == poly_eval_oracle(p, x)

    def test_poly_eval_of_the_zero_polynomial_and_constants(self):
        assert poly_eval(RatPoly(), F(7, 3)) == 0 == poly_eval([], 5)
        assert poly_eval([F(-5, 6)], F(1, 9)) == F(-5, 6)
        assert poly_eval([0, 0, 1], F(-3, 2)) == F(9, 4) == poly_eval_oracle([0, 0, 1], F(-3, 2))

    def test_poly_eval_refuses_floats(self):
        with pytest.raises(ValidationError):
            poly_eval([1, 2], 0.5)

    @given(st.lists(rationals, max_size=25).map(RatPoly.of))
    @settings(max_examples=200)
    def test_sliding_average_matches_the_shifted_antiderivative(self, p):
        assert poly_sliding_average(p) == poly_sliding_average_oracle(p)

    def test_product_adds_and_multiplies_no_fractions(self, monkeypatch):
        a, b = RatPoly.of([F(1, 2), 0, F(-7, 3), 5]), RatPoly.of([F(-2, 9), F(4, 5)])
        expected = poly_mul_fraction_oracle(a, b)

        def forbidden(*args):
            raise AssertionError("the polynomial product ran Fraction arithmetic")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
            monkeypatch.setattr(F, name, forbidden)
        assert a * b == expected

    @given(wide_polys, wide_polys)
    @settings(max_examples=300)
    def test_product_matches_the_schoolbook_loop(self, a, b):
        assert a * b == poly_mul_fraction_oracle(a, b) == b * a

    @pytest.mark.parametrize(
        "a, b",
        [
            ([], []),
            ([], [F(1, 3), 2]),
            ([F(-5, 7)], []),
            ([F(-5, 7)], [F(3, 4)]),
            ([F(-5, 7)], [1, 0, 0, F(-2, 9)]),
            ([0, 0, 1], [0, 1]),
            ([1, 0, 0, 0, -1], [1, 0, 0, 0, 1]),
            ([F(1, 2), F(-1, 3), F(1, 4)], [F(-6, 5), F(7, 10), F(9, 14)]),
            ([F(10**30, 7), -(10**20)], [F(-1, 10**25), F(3, 11)]),
        ],
        ids=repr,
    )
    def test_product_edge_cases(self, a, b):
        a, b = RatPoly.of(a), RatPoly.of(b)
        product = a * b
        assert product == poly_mul_fraction_oracle(a, b)
        assert product.degree == (-1 if a.is_zero or b.is_zero else a.degree + b.degree)

    def test_product_by_a_scalar_refuses_floats(self):
        p = RatPoly.of([1, F(1, 2)])
        for bad in (1.5, True):
            with pytest.raises(ValidationError):
                p * bad
            with pytest.raises(ValidationError):
                bad * p
        assert p * 2 == 2 * p == RatPoly.of([2, 1]) == poly_mul_fraction_oracle(p, 2)
