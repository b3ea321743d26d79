"""Error expansions, substencil weights, and smoothness indicators."""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconkernel.exact import (
    InvariantError,
    RatFunction,
    RatPoly,
    ValidationError,
    poly_eval,
    poly_gcd,
    sturm_real_root_count,
)
import reconkernel.deconv as deconv_module
import reconkernel.exact as exact_module
import reconkernel.recon as recon_module
import reconkernel.vandermonde as vandermonde_module
from reconkernel import harness, weno
from reconkernel.deconv import tau
from reconkernel.recon import basis, face_coeffs, pair_h_from_f, poly_sliding_average
from reconkernel.vandermonde import (
    CoeffTable,
    Stencil,
    inv_vandermonde,
    nu,
    vandermonde,
)
from reconkernel.weno import (
    DEFAULT_MARGIN,
    ErrorExpansion,
    Lambda,
    PoleReport,
    SmoothnessForm,
    WeightFamily,
    _mu_f_any,
    _mu_h_any,
    beta_form,
    error_expansion,
    lambda_f,
    lambda_h,
    mu_f,
    mu_h,
    positivity_scan,
    sigma_pole_analysis,
    sigma_values_at_half,
    sigma_weights,
    substencil,
)
from oracles import (
    Lambda_face_oracle,
    Lambda_relocation_oracle,
    beta_form_product_oracle,
    lambda_f_cardinal_oracle,
    lambda_h_cardinal_oracle,
    lambda_f_relocation_oracle,
    lambda_h_power_oracle,
    lambda_h_relocation_oracle,
    mu_h_explicit_oracle,
    sigma_family_recurrence_oracle,
    sigma_half_hypergeometric_oracle,
    sigma_half_recurrence_oracle,
    sigma_pole_analysis_rebuild_oracle,
    sigma_weights_symbolic_oracle,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def all_stencils(max_extent, min_m=0, max_m=None):
    out = []
    for mm in range(-max_extent, max_extent + 1):
        for mp in range(-max_extent, max_extent + 1):
            m = mm + mp
            if m >= min_m and (max_m is None or m <= max_m):
                out.append(Stencil(mm, mp))
    return out


def deriv_at_zero(p, k):
    if k > p.degree:
        return F(0)
    return math.factorial(k) * p.coeffs[k]


def dpoly(p, k):
    q = p
    for _ in range(k):
        q = q.derivative()
    return q


def interp_error(s, f):
    b = basis(s)
    total = RatPoly()
    for p, node in zip(b.alpha_f, s.offsets()):
        total = total + p * poly_eval(f, node)
    return total - f


def recon_error(s, h):
    f = poly_sliding_average(h)
    b = basis(s)
    total = RatPoly()
    for p, node in zip(b.alpha_h, s.offsets()):
        total = total + p * poly_eval(f, node)
    return total - h


GENERIC_H = RatPoly.of([3, -2, F(1, 3), 5, 0, 1, 7, -1, F(2, 5)])


class TestMuExpansions:
    def test_frozen_examples(self):
        assert mu_h(Stencil(1, 1), 3) == RatPoly.of([0, F(5, 24), 0, F(-1, 6)])
        assert mu_h(Stencil(0, 0), 1) == RatPoly.of([0, -1])
        assert mu_f(Stencil(0, 1), 2) == RatPoly.of([0, F(1, 2), F(-1, 2)])

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_interpolation_error_expansion(self, s):
        f = poly_sliding_average(GENERIC_H)
        expected = RatPoly()
        for n in range(s.m + 1, f.degree + 1):
            expected = expected + mu_f(s, n) * deriv_at_zero(f, n)
        assert interp_error(s, f) == expected

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_reconstruction_error_expansion(self, s):
        f = poly_sliding_average(GENERIC_H)
        expected = RatPoly()
        for n in range(s.m + 1, f.degree + 1):
            expected = expected + mu_h(s, n) * deriv_at_zero(f, n)
        assert recon_error(s, GENERIC_H) == expected

    @given(st.lists(rationals, min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_expansions_hold_for_arbitrary_data(self, coeffs):
        s = Stencil(1, 1)
        h = RatPoly.of(coeffs)
        f = poly_sliding_average(h)
        exp_f, exp_h = RatPoly(), RatPoly()
        for n in range(s.m + 1, max(f.degree, 0) + 1):
            d = deriv_at_zero(f, n)
            exp_f = exp_f + mu_f(s, n) * d
            exp_h = exp_h + mu_h(s, n) * d
        assert interp_error(s, f) == exp_f
        assert recon_error(s, h) == exp_h

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_sliding_average_pairs_the_expansions(self, s):
        for n in range(s.m + 1, s.m + 5):
            assert poly_sliding_average(mu_h(s, n)) == mu_f(s, n)

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_interpolation_terms_vanish_at_nodes(self, s):
        for n in range(s.m + 1, s.m + 4):
            for node in s.offsets():
                assert poly_eval(mu_f(s, n), node) == 0

    @pytest.mark.parametrize("s", all_stencils(4), ids=str)
    def test_terms_below_the_order_floor_are_zero(self, s):
        for k in range(s.m + 1):
            assert _mu_f_any(s, k) == RatPoly()
            assert _mu_h_any(s, k) == RatPoly()

    @pytest.mark.parametrize(
        "s, n_max", [(Stencil(0, 12), 60), (Stencil(3, 4), 60), (Stencil(-2, 7), 30)], ids=str
    )
    def test_high_orders_are_the_deconvolved_interpolation_error(self, s, n_max):
        for n in range(s.m + 1, n_max + 1):
            assert mu_h(s, n) == RatPoly.of(pair_h_from_f(mu_f(s, n).coeffs)), n

    @pytest.mark.parametrize("s", [Stencil(20, 20), Stencil(0, 40)], ids=str)
    def test_order_150_is_the_deconvolved_interpolation_error(self, s):
        assert mu_h(s, 150) == RatPoly.of(pair_h_from_f(mu_f(s, 150).coeffs))

    def test_order_validation(self):
        s = Stencil(1, 1)
        for bad in (s.m, 0, -1, True, F(7, 2)):
            with pytest.raises(ValidationError):
                mu_f(s, bad)
            with pytest.raises(ValidationError):
                mu_h(s, bad)


class TestLambdaExpansions:
    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_leading_term_equals_mu(self, s):
        assert lambda_f(s, s.m + 1) == mu_f(s, s.m + 1)
        assert lambda_h(s, s.m + 1) == mu_h(s, s.m + 1)

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_interpolant_error_in_local_derivatives(self, s):
        f = poly_sliding_average(GENERIC_H)
        expected = RatPoly()
        for n in range(s.m + 1, f.degree + 1):
            expected = expected + lambda_f(s, n) * dpoly(f, n)
        assert interp_error(s, f) == expected

    @pytest.mark.parametrize("s", all_stencils(2), ids=str)
    def test_reconstruction_error_in_local_derivatives(self, s):
        expected = RatPoly()
        for n in range(s.m + 1, GENERIC_H.degree + 1):
            expected = expected + lambda_h(s, n) * dpoly(GENERIC_H, n)
        assert recon_error(s, GENERIC_H) == expected


def face_error_oracle(s, order):
    # reconstruct (x - 1/2)^order / order! from its exact cell averages and
    # read off the error at the face; all derivatives there vanish except the
    # one of the requested order, so the error is the bare constant
    h = RatPoly.of([F(-1, 2), 1]) ** order * F(1, math.factorial(order))
    f = poly_sliding_average(h)
    coeffs = face_coeffs(s)
    value = sum(c * poly_eval(f, node) for c, node in zip(coeffs, s.offsets()))
    return value - poly_eval(h, F(1, 2))


class TestFaceErrorConstants:
    def test_frozen_values(self):
        assert Lambda(Stencil(1, 1), 3) == F(1, 12)
        assert Lambda(Stencil(0, 0), 1) == F(-1, 2)
        assert Lambda(Stencil(0, 1), 2) == F(1, 6)
        assert Lambda(Stencil(2, 1), 4) == F(1, 20)
        assert Lambda(Stencil(2, 2), 5) == F(-1, 60)
        assert Lambda(Stencil(3, 2), 6) == F(-1, 105)
        assert Lambda(Stencil(3, 2), 7) == F(1, 120)
        assert Lambda(Stencil(3, 2), 8) == F(-1, 180)

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_matches_direct_reconstruction_of_face_monomials(self, s):
        for order in range(s.m + 1, s.m + 4):
            assert Lambda(s, order) == face_error_oracle(s, order)

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_exact_orders_leave_no_face_error(self, s):
        for order in range(s.m + 1):
            assert face_error_oracle(s, order) == 0

    def test_face_moments_match_lambda_h_at_the_face(self):
        grid = [
            (Stencil(a, b), n)
            for a in range(-3, 10)
            for b in range(-3, 10)
            if 0 <= a + b <= 9
            for n in range(a + b + 1, a + b + 6)
        ]
        assert len(grid) == 515
        wide = [(Stencil(10, 10), 25), (Stencil(0, 12), 60), (Stencil(-2, 9), 20)]
        assert [c for c in grid + wide if Lambda(*c) != Lambda_relocation_oracle(*c)] == []

    def test_builds_no_polynomial(self, monkeypatch):
        s = Stencil(3, 4)
        expected = {n: Lambda_relocation_oracle(s, n) for n in range(8, 14)}

        def forbidden(*args):
            raise AssertionError("Lambda went through a polynomial route")

        monkeypatch.setattr(weno, "lambda_h", forbidden)
        monkeypatch.setattr(weno, "mu_h", forbidden)
        monkeypatch.setattr(recon_module, "_pair_map", forbidden)
        monkeypatch.setattr(exact_module, "poly_eval", forbidden)
        # Lambda is a moment of the face weights, not of the face coefficients
        monkeypatch.setattr(weno, "face_coeffs", forbidden)
        monkeypatch.setattr(weno, "_common_denominator", forbidden)
        face_coeffs.cache_clear()
        assert {n: Lambda(s, n) for n in expected} == expected


class TestErrorExpansionWrapper:
    def test_collects_all_orders(self):
        s = Stencil(1, 1)
        exp = error_expansion(s, "h")
        assert exp.orders == tuple(range(s.m + 1, s.m + DEFAULT_MARGIN + 1))
        assert exp.term(3) == mu_h(s, 3)

    def test_every_kind_uses_its_builder(self):
        s = Stencil(0, 1)
        for kind, fn in (("f", mu_f), ("h", mu_h), ("lambda-f", lambda_f), ("lambda-h", lambda_h)):
            exp = error_expansion(s, kind, n_max=4)
            assert exp.kind == kind
            assert exp.term(4) == fn(s, 4)

    def test_missing_order_lookup(self):
        exp = error_expansion(Stencil(1, 1), "f", n_max=4)
        with pytest.raises(ValidationError):
            exp.term(9)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            error_expansion(Stencil(1, 1), "mu")

    def test_rejects_exhausted_order(self):
        with pytest.raises(ValidationError):
            error_expansion(Stencil(1, 1), "f", n_max=2)

    def test_construction_needs_iterable_terms(self):
        with pytest.raises(ValidationError, match="expansion terms must be"):
            ErrorExpansion(Stencil(1, 1), "h", 5)

    def test_construction_needs_a_stencil(self):
        with pytest.raises(ValidationError, match="expected a Stencil, got str"):
            ErrorExpansion("x", "h", ())

    def test_construction_needs_a_known_kind(self):
        with pytest.raises(ValidationError, match="kind must be one of"):
            ErrorExpansion(Stencil(1, 1), "zz", ())

    @pytest.mark.parametrize(
        "term",
        [(3, [1, 2]), (True, RatPoly.of([1])), (F(3), RatPoly.of([1])), (3,), 7, "ab"],
        ids=repr,
    )
    def test_every_term_is_an_order_and_a_polynomial(self, term):
        with pytest.raises(ValidationError, match="expansion terms must be"):
            ErrorExpansion(Stencil(1, 1), "h", (term,))

    def test_terms_are_stored_as_a_tuple(self):
        exp = error_expansion(Stencil(1, 1), "h", n_max=4)
        again = ErrorExpansion(exp.stencil, "h", [[n, p] for n, p in exp.terms])
        assert again.terms == exp.terms and isinstance(again.terms, tuple)
        assert again == exp and again.orders == (3, 4)


def solve_consistent_system(rows, rhs):
    # Gauss-Jordan on a consistent overdetermined system with full column rank
    n_cols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(aug)) if aug[i][c] != 0), None)
        assert piv is not None, "system is column-rank deficient"
        aug[rank], aug[piv] = aug[piv], aug[rank]
        scale = 1 / aug[rank][c]
        aug[rank] = [x * scale for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        rank += 1
    for i in range(rank, len(aug)):
        assert all(x == 0 for x in aug[i]), "system is inconsistent"
    return tuple(F(aug[i][n_cols]) for i in range(n_cols))


def sigma_half_oracle(s, levels):
    # the weights at the face satisfy one matching equation per stencil cell
    subs = [substencil(s, levels, k) for k in range(levels + 1)]
    sub_coeffs = [dict(zip(sub.offsets(), face_coeffs(sub))) for sub in subs]
    rows = [[sc.get(off, F(0)) for sc in sub_coeffs] for off in s.offsets()]
    return solve_consistent_system(rows, list(face_coeffs(s)))


def near_pivot_windows(m, pad):
    # every window of width m whose pivot lies at most pad cells outside it
    return [Stencil(mm, m - mm) for mm in range(-pad, m + pad + 1)]


def subdivisions(max_extent):
    out = []
    for s in all_stencils(max_extent, min_m=2):
        for levels in range(1, s.m):
            out.append((s, levels))
    return out


def padded_windows(max_m, pad):
    return [s for m in range(max_m + 1) for s in near_pivot_windows(m, pad)]


class TestLambdaRoutesAgree:
    """The local-derivative expansions against routes that build polynomial powers."""

    @pytest.mark.parametrize("s", padded_windows(8, 3), ids=str)
    def test_relocation_matches_power_brackets_and_taylor_terms(self, s):
        for order in range(s.m + 1, s.m + 7):
            assert lambda_h(s, order) == lambda_h_power_oracle(s, order), order
            assert lambda_f(s, order) == lambda_f_cardinal_oracle(s, order), order

    @pytest.mark.parametrize("s", padded_windows(6, 3), ids=str)
    def test_cardinal_routes_of_the_reconstruction(self, s):
        # lambda_h from the cell averages of the Taylor terms about xi, and
        # Lambda from those about the face, weighted by the face coefficients
        for order in range(s.m + 1, s.m + 6):
            assert lambda_h(s, order) == lambda_h_cardinal_oracle(s, order), order
            assert Lambda(s, order) == Lambda_face_oracle(s, order), order

    def test_expansions_build_no_polynomial_power(self, monkeypatch):
        s = Stencil(2, 3)
        expected = {kind: error_expansion(s, kind, 11) for kind in ("lambda-f", "lambda-h")}

        def forbidden(*args):
            raise AssertionError("an error expansion built a polynomial power")

        monkeypatch.setattr(RatPoly, "__pow__", forbidden)
        for memoized in (mu_f, mu_h, lambda_f, lambda_h):
            memoized.cache_clear()
        for kind, expansion in expected.items():
            assert error_expansion(s, kind, 11) == expansion


    def test_pivot_expansions_reach_no_inverse_vandermonde(self, monkeypatch):
        # mu_f reads the node polynomial, and mu_h deconvolves mu_f
        s = Stencil(3, 1)
        expected = {kind: error_expansion(s, kind, 10) for kind in ("f", "h")}

        def forbidden(*args):
            raise AssertionError("an error expansion reached the inverse Vandermonde matrix")

        monkeypatch.setattr(vandermonde_module, "inv_vandermonde", forbidden)
        for memoized in (mu_f, mu_h):
            memoized.cache_clear()
        for kind, expansion in expected.items():
            assert error_expansion(s, kind, 10) == expansion


#: every window with both bounds in -6..9 and at least two cells
KERNEL_WINDOWS = [Stencil(a, b) for a in range(-6, 10) for b in range(-6, 10) if a + b >= 1]


class TestRemainderKernel:
    """lambda_h and lambda_f from the remainders x^j mod the node polynomial."""

    def test_relocation_loop_on_every_small_window(self):
        assert len(KERNEL_WINDOWS) == 165
        cases = [(s, n) for s in KERNEL_WINDOWS for n in range(s.m + 1, s.m + 7)]
        assert [c for c in cases if lambda_h(*c) != lambda_h_relocation_oracle(*c)] == []
        assert [c for c in cases if lambda_f(*c) != lambda_f_relocation_oracle(*c)] == []
        assert [c for c in cases if mu_h(*c) != mu_h_explicit_oracle(*c)] == []

    @pytest.mark.parametrize("m", sorted({s.m for s in KERNEL_WINDOWS}))
    def test_cardinal_routes_on_every_small_window(self, m):
        cases = [(s, n) for s in KERNEL_WINDOWS if s.m == m for n in range(m + 1, m + 7)]
        assert [c for c in cases if lambda_h(*c) != lambda_h_cardinal_oracle(*c)] == []
        assert [c for c in cases if lambda_f(*c) != lambda_f_cardinal_oracle(*c)] == []

    @pytest.mark.parametrize(
        "s, orders",
        [
            (Stencil(-10**6, 10**6 + 7), range(8, 14)),
            (Stencil(1, 1), (40,)),
            (Stencil(17, 18), range(36, 41)),
        ],
        ids=str,
    )
    def test_far_window_and_the_cli_limit(self, s, orders):
        for n in orders:
            expected = lambda_h_relocation_oracle(s, n)
            assert lambda_h(s, n) == expected == lambda_h_cardinal_oracle(s, n), n
            expected = lambda_f_relocation_oracle(s, n)
            assert lambda_f(s, n) == expected == lambda_f_cardinal_oracle(s, n), n

    def test_builds_no_polynomial_product(self, monkeypatch):
        # no mu, no basis, no inverse Vandermonde matrix and no RatPoly product
        s = Stencil(2, 4)
        expected = {kind: error_expansion(s, kind, 14) for kind in ("lambda-f", "lambda-h")}

        def forbidden(*args):
            raise AssertionError("a lambda expansion went through a polynomial route")

        monkeypatch.setattr(RatPoly, "__mul__", forbidden)
        for name in ("mu_f", "mu_h", "basis"):
            monkeypatch.setattr(weno, name, forbidden)
        monkeypatch.setattr(recon_module, "inv_vandermonde", forbidden)
        lambda_f.cache_clear()
        lambda_h.cache_clear()
        for kind, expansion in expected.items():
            assert error_expansion(s, kind, 14) == expansion

    def test_basis_and_pivot_expansions_deconvolve_nothing(self, monkeypatch):
        # the face route: a cold basis and the mu expansions reach no pair
        # map and no RatPoly product, and all four error polynomials go
        # through the one remainder kernel, on the cells or on the faces
        s = Stencil(2, 4)
        kinds = ("f", "h", "lambda-f", "lambda-h")
        expected = {kind: error_expansion(s, kind, 14) for kind in kinds}
        expected_basis = basis(s)
        kernel = weno._unreproduced
        nodes = []

        def recording(*args):
            nodes.append(len(args[0]))
            return kernel(*args)

        def forbidden(*args):
            raise AssertionError("the basis or an error expansion deconvolved")

        monkeypatch.setattr(weno, "_unreproduced", recording)
        monkeypatch.setattr(recon_module, "_pair_map", forbidden)
        monkeypatch.setattr(recon_module, "pair_h_from_f", forbidden)
        monkeypatch.setattr(RatPoly, "__mul__", forbidden)
        for memoized in (basis, mu_f, mu_h, lambda_f, lambda_h):
            memoized.cache_clear()
        assert basis(s) == expected_basis
        for kind in kinds:
            nodes.clear()
            assert error_expansion(s, kind, 14) == expected[kind]
            assert nodes == [s.m + 1 + kind.endswith("h")] * (14 - s.m), kind

    def test_remainders_are_the_long_division(self):
        for nodes in (range(-3, 4), range(-7, 8, 2), range(5, 9), range(0, 1)):
            omega = vandermonde_module._node_poly(nodes)
            rems = vandermonde_module._power_remainders(nodes, 30)
            for j, r in enumerate(rems):
                assert len(r) == len(nodes)
                expected = exact_module._divmod_int([0] * j + [1], omega)[1]
                assert r == expected + [0] * (len(r) - len(expected)), (nodes, j)


class TestSubstencilWeights:
    def test_substencil_layout(self):
        s = Stencil(2, 2)
        assert [substencil(s, 2, k) for k in range(3)] == [
            Stencil(2, 0),
            Stencil(1, 1),
            Stencil(0, 2),
        ]

    def test_substencil_index_bounds(self):
        with pytest.raises(ValidationError):
            substencil(Stencil(2, 2), 2, 3)
        with pytest.raises(ValidationError):
            substencil(Stencil(2, 2), 2, -1)

    @pytest.mark.parametrize("k", [True, F(1), 1.0], ids=repr)
    def test_substencil_rejects_non_integer_index(self, k):
        with pytest.raises(ValidationError):
            substencil(Stencil(2, 2), 1, k)

    def test_subdivision_validation(self):
        with pytest.raises(ValidationError):
            sigma_weights(Stencil(1, 0), 1)
        with pytest.raises(ValidationError):
            sigma_weights(Stencil(2, 2), 0)
        with pytest.raises(ValidationError):
            sigma_weights(Stencil(2, 2), 4)
        with pytest.raises(ValidationError):
            sigma_weights(Stencil(2, 2), True)

    def test_a_repeated_call_returns_the_checked_family(self, monkeypatch):
        s = Stencil(3, 1)
        first = sigma_weights(s, 2)
        checks = []
        check = WeightFamily.__post_init__
        monkeypatch.setattr(WeightFamily, "__post_init__", lambda self: checks.append(check(self)))
        assert sigma_weights(s, 2) is first
        assert checks == []

    @pytest.mark.parametrize("memo", [sigma_weights, sigma_values_at_half], ids=lambda f: f.__name__)
    def test_the_memo_caches_no_error_and_no_alias(self, memo):
        s = Stencil(2, 3)
        memo(s, 1)
        for bad in (True, F(1), 0):
            for _ in range(2):
                with pytest.raises(ValidationError):
                    memo(s, bad)

    def test_two_cell_split_of_the_centered_stencil(self):
        assert sigma_values_at_half(Stencil(1, 1), 1) == (F(1, 3), F(2, 3))

    def test_five_cell_split_values(self):
        assert sigma_values_at_half(Stencil(2, 2), 2) == (F(1, 10), F(3, 5), F(3, 10))

    @pytest.mark.parametrize("s,levels", subdivisions(3), ids=str)
    def test_face_values_solve_the_matching_system(self, s, levels):
        assert sigma_values_at_half(s, levels) == sigma_half_oracle(s, levels)

    @pytest.mark.parametrize(
        "s,levels",
        [
            (Stencil(1, 1), 1),
            (Stencil(2, 1), 1),
            (Stencil(2, 1), 2),
            (Stencil(1, 2), 2),
            (Stencil(2, 2), 1),
            (Stencil(2, 2), 2),
            (Stencil(2, 2), 3),
            (Stencil(3, 2), 2),
            (Stencil(2, 3), 3),
            (Stencil(3, 3), 2),
            (Stencil(3, 3), 5),
            (Stencil(-1, 3), 1),
        ],
        ids=str,
    )
    def test_weights_rebuild_the_large_reconstruction(self, s, levels):
        family = sigma_weights(s, levels)
        big = basis(s)
        for i, off in enumerate(s.offsets()):
            lhs = RatFunction.constant(0)
            for k, w in enumerate(family.weights):
                sub = substencil(s, levels, k)
                if off in sub.offsets():
                    lhs = lhs + w * RatFunction.from_poly(basis(sub).alpha_h[off + sub.m_minus])
            assert lhs == RatFunction.from_poly(big.alpha_h[i])

    @pytest.mark.parametrize("m", range(2, 8))
    def test_families_match_the_convolution_recurrence(self, m):
        for s in near_pivot_windows(m, 2):
            for levels in range(1, m):
                family = sigma_weights(s, levels).weights
                assert family == sigma_family_recurrence_oracle(s, levels), (s, levels)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_face_values_match_the_convolution_recurrence(self, m):
        for s in near_pivot_windows(m, 2):
            for levels in range(1, m):
                values = sigma_values_at_half(s, levels)
                assert values == sigma_half_recurrence_oracle(s, levels), (s, levels)

    @pytest.mark.parametrize(
        "s", [Stencil(-20, 26), Stencil(31, -24), Stencil(-45, 55), Stencil(60, -48)], ids=str
    )
    def test_far_one_sided_face_values_match_the_recurrence(self, s):
        for levels in range(1, s.m):
            assert sigma_values_at_half(s, levels) == sigma_half_recurrence_oracle(s, levels), levels

    @pytest.mark.parametrize("s,levels", subdivisions(2), ids=str)
    def test_symbolic_and_value_paths_agree(self, s, levels):
        family = sigma_weights(s, levels)
        assert family.values_at(F(1, 2)) == sigma_values_at_half(s, levels)

    def test_family_validation(self):
        one = RatFunction.constant(1)
        with pytest.raises(ValidationError):
            WeightFamily(Stencil(2, 2), 2, (one,))
        with pytest.raises(InvariantError):
            WeightFamily(Stencil(1, 1), 1, (one, one))

    def test_family_members_must_be_rational_functions(self):
        with pytest.raises(ValidationError, match="RatFunction members"):
            WeightFamily(Stencil(2, 2), 1, (1, 0))

    def test_family_weights_must_be_iterable(self):
        with pytest.raises(ValidationError, match="RatFunction members"):
            WeightFamily(Stencil(2, 2), 1, 5)

    @pytest.mark.parametrize("levels", [True, 0, 4, F(1)], ids=repr)
    def test_family_level_must_be_a_subdivision_level(self, levels):
        one, zero = RatFunction.constant(1), RatFunction.constant(0)
        with pytest.raises(ValidationError):
            WeightFamily(Stencil(2, 2), levels, (one, zero))

    def test_family_weights_are_stored_as_a_tuple(self):
        w = RatFunction.constant(F(1, 3))
        family = WeightFamily(Stencil(1, 1), 1, [w, RatFunction.constant(1) - w])
        assert family.weights == (w, RatFunction.constant(F(2, 3)))
        assert hash(family) is not None

    def test_values_sum_to_one_off_the_face(self):
        family = sigma_weights(Stencil(2, 2), 2)
        for xi in (F(0), F(1, 4), F(-3, 2), F(7, 3)):
            assert sum(family.values_at(xi)) == 1


class TestPoleAnalysis:
    def test_five_cell_split_census(self):
        reports = sigma_pole_analysis(sigma_weights(Stencil(2, 2), 2))
        assert [r.denominator.degree for r in reports] == [2, 4, 2]
        for r in reports:
            assert r.real_root_count == r.denominator.degree
            assert len(r.isolating_intervals) == r.real_root_count

    def test_isolating_intervals_hold_one_root_each(self):
        for s, levels in ((Stencil(2, 2), 2), (Stencil(2, 1), 1), (Stencil(3, 2), 2)):
            for r in sigma_pole_analysis(sigma_weights(s, levels)):
                for lo, hi in r.isolating_intervals:
                    assert lo < hi
                    assert sturm_real_root_count(r.denominator, lo, hi) == 1
                for (_, a), (b, _) in zip(r.isolating_intervals, r.isolating_intervals[1:]):
                    assert a <= b

    def test_no_poles_at_cell_interfaces(self):
        family = sigma_weights(Stencil(2, 2), 2)
        m = family.stencil.m
        for w in family.weights:
            for n in range(-m - 2, m + 3):
                assert poly_eval(w.den, F(2 * n + 1, 2)) != 0

    def test_polynomial_weights_report_no_poles(self):
        family = WeightFamily(
            Stencil(1, 1), 1, (RatFunction.constant(F(1, 3)), RatFunction.constant(F(2, 3)))
        )
        reports = sigma_pole_analysis(family)
        assert all(r.real_root_count == 0 and r.isolating_intervals == () for r in reports)

    def test_complex_denominator_roots_are_flagged(self):
        w = RatFunction(RatPoly.of([1]), RatPoly.of([1, 0, 1]))
        family = WeightFamily(Stencil(1, 1), 1, (w, RatFunction.constant(1) - w))
        with pytest.raises(InvariantError) as exc:
            sigma_pole_analysis(family)
        # the message names the weight, the stencil and the levels
        assert str(exc.value) == "weight 0 of (1,1) at 1 levels: 0 real roots for degree 2"

    def test_interface_pole_is_flagged(self):
        w = RatFunction(RatPoly.of([1]), RatPoly.of([F(-1, 2), 1]))
        family = WeightFamily(Stencil(1, 1), 1, (w, RatFunction.constant(1) - w))
        with pytest.raises(InvariantError) as exc:
            sigma_pole_analysis(family)
        assert str(exc.value) == "weight 0 of (1,1) at 1 levels has a pole at the cell interface 0+1/2"


def census_class_ends():
    # the nearest and farthest windows of the (M, K) = (5, 2) and (6, 3)
    # benchmark census classes, right of the pivot and mirrored left of it
    out = []
    for m, levels, cells in ((5, 2, (20, 63)), (6, 3, (70, 91))):
        for c in cells:
            out += [(Stencil(-c, m + c), levels), (Stencil(m + c, -c), levels)]
    return out


class TestCensusRoutesAgree:
    """One integer Sturm chain per denominator against the rebuild-per-step oracle."""

    @pytest.mark.parametrize("m", range(2, 10))
    def test_every_padded_window(self, m):
        for s in near_pivot_windows(m, 2):
            for levels in range(1, m):
                family = sigma_weights(s, levels)
                expected = sigma_pole_analysis_rebuild_oracle(family)
                assert sigma_pole_analysis(family) == expected, (s, levels)

    @pytest.mark.parametrize("s, levels", census_class_ends(), ids=str)
    def test_census_class_ends(self, s, levels):
        family = sigma_weights(s, levels)
        assert sigma_pole_analysis(family) == sigma_pole_analysis_rebuild_oracle(family)

    def test_one_chain_per_nonconstant_denominator(self, monkeypatch):
        build = weno._int_sturm_chain
        calls = []

        def counting(p):
            calls.append(p)
            return build(p)

        monkeypatch.setattr(weno, "_int_sturm_chain", counting)
        polynomial = WeightFamily(
            Stencil(1, 1), 1, (RatFunction.constant(F(1, 3)), RatFunction.constant(F(2, 3)))
        )
        families = [sigma_weights(s, levels) for s, levels in ((Stencil(3, 3), 3), (Stencil(4, 5), 4))]
        for family in families + [sigma_weights(*census_class_ends()[0]), polynomial]:
            calls.clear()
            reports = sigma_pole_analysis(family)
            assert calls == [r.denominator for r in reports if r.denominator.degree > 0]
        assert calls == []


class TestDenominatorFactors:
    """den_k = D_(k-1) D_k, with D_j the monic leftmost alpha_h of substencil j.

    The end weights take one factor each.  The factors of neighbouring
    weights are coprime, so the census finds each root of D_j once in
    each of the two weights it divides.
    """

    @pytest.mark.parametrize("m", range(2, 12))
    def test_every_padded_window(self, m):
        for s in near_pivot_windows(m, 3):
            for levels in range(1, m):
                d = [basis(substencil(s, levels, j)).alpha_h[0].monic() for j in range(levels)]
                assert all(f.degree == m - levels for f in d), (s, levels)
                assert all(poly_gcd(a, b).degree == 0 for a, b in zip(d, d[1:])), (s, levels)
                expected = [d[0]] + [a * b for a, b in zip(d, d[1:])] + [d[-1]]
                reports = sigma_pole_analysis(sigma_weights(s, levels))
                assert [r.denominator for r in reports] == expected, (s, levels)


def face_derivative(s):
    # P'(xi) for P(xi) = prod_l (xi - l - 1/2) over the right faces of the cells
    p = RatPoly.constant(1)
    for l in s.offsets():
        p = p * RatPoly.of([-l - F(1, 2), 1])
    return p.derivative()


class TestLeftmostBasisClosedForm:
    """alpha_h,0 = (-1)^M P'/(M+1)!: the weight denominators in closed form."""

    @pytest.mark.parametrize("m", range(11))
    def test_every_padded_window(self, m):
        for s in near_pivot_windows(m, 3):
            expected = face_derivative(s) * F((-1) ** m, math.factorial(m + 1))
            assert basis(s).alpha_h[0] == expected, s

    @pytest.mark.parametrize("m", range(11))
    def test_no_cell_interface_is_a_root(self, m):
        # Rolle: the M roots of P' lie strictly between the M+1 faces
        for s in near_pivot_windows(m, 3):
            d = face_derivative(s)
            assert all(d(n + F(1, 2)) != 0 for n in range(-m - 10, m + 11)), s


class TestInterfaceRoute:
    """Weight-functions interpolated from the face solve at the cell interfaces."""

    @pytest.mark.parametrize("m", range(2, 10))
    def test_every_padded_window_matches_the_symbolic_solve(self, m):
        for s in near_pivot_windows(m, 2):
            for levels in range(1, m):
                assert sigma_weights(s, levels) == sigma_weights_symbolic_oracle(s, levels), (s, levels)

    @pytest.mark.parametrize(
        "s, levels",
        [
            (Stencil(-20, 25), 2),
            (Stencil(-70, 76), 3),
            (Stencil(45, -40), 2),
            (Stencil(-30, 41), 5),
            (Stencil(-60, 76), 8),
        ],
        ids=str,
    )
    def test_far_windows_match_the_symbolic_solve(self, s, levels):
        assert sigma_weights(s, levels) == sigma_weights_symbolic_oracle(s, levels)

    def test_a_cold_call_builds_no_basis(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the weight-functions reached a basis, an inverse or tau")

        monkeypatch.setattr(weno, "basis", forbidden)
        monkeypatch.setattr(recon_module, "inv_vandermonde", forbidden)
        monkeypatch.setattr(vandermonde_module, "inv_vandermonde", forbidden)
        monkeypatch.setattr(deconv_module, "tau", forbidden)
        s, levels = Stencil(-41, 47), 3
        misses = sigma_weights.cache_info().misses
        family = sigma_weights(s, levels)
        assert sigma_weights.cache_info().misses == misses + 1
        monkeypatch.undo()
        assert family == sigma_weights_symbolic_oracle(s, levels)

    @pytest.mark.parametrize(
        "s, levels", [(Stencil(-37, 43), 2), (Stencil(33, -27), 3), (Stencil(-48, 57), 8)], ids=str
    )
    def test_a_cold_call_solves_at_the_first_interfaces_only(self, monkeypatch, s, levels):
        solve = weno.sigma_values_at_half
        asked = []

        def spy(st, k):
            asked.append((st, k))
            return solve(st, k)

        monkeypatch.setattr(weno, "sigma_values_at_half", spy)
        misses = sigma_weights.cache_info().misses
        family = sigma_weights(s, levels)
        assert sigma_weights.cache_info().misses == misses + 1
        # B_K + 1 interfaces t + 1/2, nearest the pivot's right face first:
        # t = 0, -1, 1, -2, ...
        need = levels + (levels + 1) * (s.m - levels) + 1
        shifts = sorted(range(-need, need), key=lambda t: (abs(2 * t + 1), -t))[:need]
        assert shifts[:4] == [0, -1, 1, -2]
        assert asked == [(Stencil(s.m_minus + t, s.m_plus - t), levels) for t in shifts]
        monkeypatch.undo()
        assert family == sigma_weights_symbolic_oracle(s, levels)

    def test_a_wrong_value_past_the_fitted_nodes_fails_the_certificate(self, monkeypatch):
        # M = 5, K = 2: every weight is fitted on the first 9 interfaces
        # and certified on interfaces 9 .. 11, t = -5, 5, -6
        s, levels = Stencil(-13, 18), 2
        solve = weno.sigma_values_at_half

        def shifted(st, k):
            vals = solve(st, k)
            if st == Stencil(s.m_minus - 5, s.m_plus + 5):
                vals = vals[:2] + (vals[2] + F(1, 7),)
            return vals

        monkeypatch.setattr(weno, "sigma_values_at_half", shifted)
        with pytest.raises(InvariantError) as exc:
            sigma_weights(s, levels)
        assert str(exc.value) == (
            "interface certificate: weight 2 of (-13,18) at 2 levels misses its value at xi = -9/2"
        )
        monkeypatch.undo()
        assert sigma_weights(s, levels) == sigma_weights_symbolic_oracle(s, levels)

    @pytest.mark.parametrize(
        "s, levels", [(Stencil(2, 3), 2), (Stencil(3, 3), 3), (Stencil(4, 5), 4)], ids=str
    )
    def test_a_wrong_first_factor_fails_the_certificate(self, monkeypatch, s, levels):
        # D_0 built on the faces of cells one to the right: the weights then
        # sum to 1 nowhere, but the certificate of weight 0 catches it first
        build = weno._node_poly
        calls = []

        def shifted(nodes):
            nodes = list(nodes)
            calls.append(nodes)
            return build([u + 2 for u in nodes] if len(calls) == 1 else nodes)

        monkeypatch.setattr(weno, "_node_poly", shifted)
        sigma_weights.cache_clear()
        with pytest.raises(InvariantError) as exc:
            sigma_weights(s, levels)
        assert str(exc.value).startswith(f"interface certificate: weight 0 of {s} at {levels} levels ")
        assert len(calls) == levels
        monkeypatch.undo()
        assert sigma_weights(s, levels) == sigma_weights_symbolic_oracle(s, levels)


WRONG_TYPE_CASES = [
    (vandermonde, ()),
    (inv_vandermonde, ()),
    (nu, (0, 0)),
    (basis, ()),
    (face_coeffs, ()),
    (mu_f, (3,)),
    (mu_h, (3,)),
    (lambda_f, (3,)),
    (lambda_h, (3,)),
    (Lambda, (3,)),
    (error_expansion, ("h",)),
    (substencil, (1, 0)),
    (sigma_weights, (1,)),
    (sigma_values_at_half, (1,)),
    (beta_form, ()),
    (harness.derivative_coeffs, ()),
    (harness.convergence_study, ("face",)),
    (harness.non_interpolation_check, (0.1,)),
    (harness.halving_slope, (0.1,)),
    (sigma_pole_analysis, ()),
    (WeightFamily, (1, (RatFunction.constant(1), RatFunction.constant(0)))),
    (harness.SampleSet, (0.0, 0.1, (1.0, 1.0, 1.0))),
    (harness.reconstruct_face, ()),
    (harness.ConvergenceReport, ("face", (0.5,), (1e-3,), 3.0, (0,))),
]


@pytest.mark.parametrize("call, args", WRONG_TYPE_CASES, ids=[c.__name__ for c, _ in WRONG_TYPE_CASES])
def test_wrong_argument_type_is_a_validation_error(call, args):
    # a tuple where a Stencil (or, for the census, a WeightFamily, and for
    # the face value, a SampleSet) belongs, also as the stencil field of a
    # weight family or a sample set
    with pytest.raises(ValidationError, match="expected a (Stencil|WeightFamily|SampleSet), got tuple"):
        call((2, 2), *args)


S22 = Stencil(2, 2)
BAD_VALUE_CASES = [
    ("tau", tau, ([1],)),
    ("basis", basis, ([1, 1],)),
    ("mu_f", mu_f, (S22, [3])),
    ("Lambda", Lambda, (S22, [7])),
    ("sigma_values_at_half", sigma_values_at_half, (S22, [1])),
    ("error_expansion", error_expansion, (S22, ["h"])),
    ("non_interpolation_check", harness.non_interpolation_check, (S22, "0.1")),
    ("SampleSet-pivot", harness.SampleSet, (S22, "0", 0.1, (1.0,) * 5)),
    ("SampleSet-sample", harness.SampleSet, (S22, 0.0, 0.1, (1.0, 1.0, "1", 1.0, 1.0))),
    ("exp_pair_reference", harness.exp_pair_reference, ("1", 0.1)),
    ("g_tau_float", harness.g_tau_float, ("x",)),
    ("CoeffTable.identity", CoeffTable.identity, ("2",)),
    ("RatPoly", RatPoly, (5,)),
    ("RatPoly.from_strings-float", RatPoly.from_strings, ([1.5],)),
    ("RatPoly.from_strings-None", RatPoly.from_strings, ([None],)),
    ("CoeffTable", CoeffTable, (5,)),
    ("CoeffTable-row", CoeffTable, ((5,),)),
    ("SmoothnessForm.value", beta_form(S22).value, (5,)),
    ("ConvergenceReport-sizes", harness.ConvergenceReport, (S22, "face", 5, 5, 3.0, (0,))),
    ("ConvergenceReport-target", harness.ConvergenceReport, (S22, "edge", (0.5,), (1e-3,), 3.0, (0,))),
    ("ConvergenceReport-fit", harness.ConvergenceReport, (Stencil(1, 1), "face", (0.5,), (1e-3,), "x", 5)),
    ("ConvergenceReport-fit-index", harness.ConvergenceReport, (S22, "face", (0.5,), (1e-3,), 3.0, (1,))),
    ("ReconstructionBasis-stencil", recon_module.ReconstructionBasis, ("x", 1, 2)),
    ("ReconstructionBasis-members", recon_module.ReconstructionBasis, (Stencil(1, 1), (1,), (2,))),
    ("alpha_h_at", basis(Stencil(1, 1)).alpha_h_at, (-3,)),
    ("alpha_f_at", basis(Stencil(1, 1)).alpha_f_at, (-4,)),
]


@pytest.mark.parametrize("call, args", [c[1:] for c in BAD_VALUE_CASES], ids=[c[0] for c in BAD_VALUE_CASES])
def test_unhashable_or_non_numeric_argument_is_a_validation_error(call, args):
    # a list where a memoized call needs a hashable argument, a string where
    # a number belongs, a scalar where a sequence belongs, a float where a
    # literal belongs, an offset or a fit index outside its range and a
    # basis family of the wrong size fail before any arithmetic
    with pytest.raises(ValidationError):
        call(*args)


class TestHypergeometricLinearWeights:
    def test_closed_form_inside_the_positivity_condition(self):
        # every M <= 24 with m_minus >= 0, m_plus >= 1, 1 <= K <= min(m_minus + 1, m_plus)
        configs = [
            (Stencil(mm, m - mm), levels)
            for m in range(2, 25)
            for mm in range(m)
            for levels in range(1, min(mm + 1, m - mm, m - 1) + 1)
        ]
        assert len(configs) == 1377
        assert [c for c in configs if sigma_values_at_half(*c) != sigma_half_hypergeometric_oracle(*c)] == []

    @pytest.mark.parametrize("s, levels", [(Stencil(2, 2), 3), (Stencil(3, 0), 1), (Stencil(0, 4), 2)], ids=str)
    def test_closed_form_fails_outside_the_condition(self, s, levels):
        assert sigma_values_at_half(s, levels) != sigma_half_hypergeometric_oracle(s, levels)


class TestPositivityScan:
    def test_extent_validation(self):
        for bad in (-1, 10, True, 2.5):
            with pytest.raises(ValidationError):
                positivity_scan(bad)

    def test_condition_guarantees_positive_weights(self):
        for row in positivity_scan(3):
            if row.in_condition:
                assert row.all_positive

    def test_condition_is_sharp_at_the_boundary(self):
        rows = {(r.stencil, r.levels): r for r in positivity_scan(2)}
        inside = rows[(Stencil(2, 2), 2)]
        assert inside.in_condition and inside.all_positive
        for outside in (rows[(Stencil(2, 1), 2)], rows[(Stencil(2, 2), 3)]):
            assert not outside.in_condition
            assert not outside.all_positive


def principal_minor_determinant(table, idx):
    m = [[table[i, j] for j in idx] for i in idx]
    n = len(idx)
    det = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def nonneg_stencils(max_m):
    return [
        Stencil(mm, mp)
        for mm in range(max_m + 1)
        for mp in range(max_m + 1 - mm)
        if 1 <= mm + mp
    ]


def exact_cell_averages(h, s, dx):
    anti = h.antiderivative()
    out = []
    for j in s.offsets():
        lo, hi = F(2 * j - 1, 2) * dx, F(2 * j + 1, 2) * dx
        out.append((poly_eval(anti, hi) - poly_eval(anti, lo)) / dx)
    return out


class TestSmoothnessForm:
    def test_frozen_centered_form(self):
        expected = CoeffTable.of(
            [
                [F(4, 3), F(-13, 6), F(5, 6)],
                [F(-13, 6), F(13, 3), F(-13, 6)],
                [F(5, 6), F(-13, 6), F(4, 3)],
            ]
        )
        assert beta_form(Stencil(1, 1)).matrix == expected

    def test_centered_form_splits_into_difference_squares(self):
        # 13/12 (f_-1 - 2 f_0 + f_1)^2 + 1/4 (f_-1 - f_1)^2
        d2, d1 = (1, -2, 1), (1, 0, -1)
        form = beta_form(Stencil(1, 1))
        for i in range(3):
            for j in range(3):
                assert form.matrix[i, j] == F(13, 12) * d2[i] * d2[j] + F(1, 4) * d1[i] * d1[j]

    def test_rejects_single_cell_stencil(self):
        with pytest.raises(ValidationError):
            beta_form(Stencil(0, 0))

    def test_construction_validation(self):
        with pytest.raises(ValidationError):
            SmoothnessForm(Stencil(1, 1), CoeffTable.identity(2))
        with pytest.raises(InvariantError):
            SmoothnessForm(Stencil(1, 0), CoeffTable.of([[0, 1], [-1, 0]]))
        with pytest.raises(InvariantError):
            SmoothnessForm(Stencil(1, 0), CoeffTable.identity(2))

    def test_construction_needs_a_stencil(self):
        with pytest.raises(ValidationError, match="expected a Stencil, got str"):
            SmoothnessForm("x", CoeffTable.identity(2))

    def test_construction_needs_a_coefficient_table(self):
        with pytest.raises(ValidationError, match="expected a CoeffTable, got list"):
            SmoothnessForm(Stencil(0, 0), [[0]])

    @pytest.mark.parametrize("flag", ["no", 1, 0, None], ids=repr)
    def test_construction_needs_a_bool_face_flag(self, flag):
        with pytest.raises(ValidationError, match="face_centered must be a bool"):
            SmoothnessForm(Stencil(1, 1), beta_form(Stencil(1, 1)).matrix, flag)

    @pytest.mark.parametrize("flag", ["no", 1, 0, None], ids=repr)
    def test_beta_form_needs_a_bool_face_flag(self, flag):
        with pytest.raises(ValidationError, match="face_centered must be a bool"):
            beta_form(Stencil(1, 1), flag)

    def test_value_length_validation(self):
        form = beta_form(Stencil(1, 1))
        with pytest.raises(ValidationError):
            form.value([1, 2])

    @pytest.mark.parametrize("s", nonneg_stencils(4), ids=str)
    def test_matches_direct_derivative_integrals(self, s):
        rng = random.Random(hash((s.m_minus, s.m_plus)) & 0xFFFF)
        cells = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in s.offsets()]
        recon = RatPoly()
        for c, p in zip(cells, basis(s).alpha_h):
            recon = recon + p * c
        direct = F(0)
        for k in range(1, s.m + 1):
            sq = dpoly(recon, k)
            anti = (sq * sq).antiderivative()
            direct += poly_eval(anti, F(1, 2)) - poly_eval(anti, F(-1, 2))
        assert beta_form(s).value(cells) == direct

    def test_face_centered_variant_integrates_over_the_shifted_cell(self):
        s = Stencil(1, 1)
        cells = [F(3), F(-1), F(2)]
        recon = RatPoly()
        for c, p in zip(cells, basis(s).alpha_h):
            recon = recon + p * c
        direct = F(0)
        for k in range(1, s.m + 1):
            sq = dpoly(recon, k)
            anti = (sq * sq).antiderivative()
            direct += poly_eval(anti, F(1)) - poly_eval(anti, F(0))
        variant = beta_form(s, face_centered=True)
        assert variant.face_centered
        assert variant.value(cells) == direct
        assert variant.matrix != beta_form(s).matrix

    def test_constant_fields_are_annihilated(self):
        for s in nonneg_stencils(3):
            assert beta_form(s).value([F(7, 3)] * (s.m + 1)) == 0

    @pytest.mark.parametrize("s", nonneg_stencils(6), ids=str)
    def test_positive_semidefinite_certificate(self, s):
        table = beta_form(s).matrix
        for size in range(1, s.m + 2):
            for idx in combinations(range(s.m + 1), size):
                assert principal_minor_determinant(table, idx) >= 0

    @pytest.mark.parametrize("s", nonneg_stencils(6), ids=str)
    def test_never_negative_on_random_data(self, s):
        form = beta_form(s)
        n = s.m + 1
        scale = math.lcm(*[form.matrix[i, j].denominator for i in range(n) for j in range(n)])
        b = [[int(form.matrix[i, j] * scale) for j in range(n)] for i in range(n)]
        rng = random.Random(20260817 + 100 * s.m_minus + s.m_plus)
        for _ in range(10_000):
            v = [rng.randint(-20, 20) for _ in range(n)]
            assert sum(v[i] * sum(b[i][j] * v[j] for j in range(n)) for i in range(n)) >= 0

    @pytest.mark.parametrize(
        "s1,s2,expected",
        [
            (Stencil(2, 0), Stencil(1, 1), 4),
            (Stencil(1, 1), Stencil(0, 2), 4),
            (Stencil(3, 0), Stencil(1, 2), 5),
            (Stencil(2, 1), Stencil(1, 2), 5),
            (Stencil(2, 2), Stencil(3, 1), 6),
            (Stencil(3, 2), Stencil(2, 3), 7),
        ],
        ids=str,
    )
    def test_indicators_agree_across_stencils_to_high_order(self, s1, s2, expected):
        # smooth data: indicator differences between equal-order stencils decay
        # two powers faster than the reconstruction accuracy itself
        m = s1.m
        assert s2.m == m
        h = RatPoly.of([F(i + 1, i + 2) for i in range(m + 2)])
        diffs = []
        for k in (10, 11):
            dx = F(1, 2**k)
            d = beta_form(s1).value(exact_cell_averages(h, s1, dx)) - beta_form(s2).value(
                exact_cell_averages(h, s2, dx)
            )
            assert d != 0
            diffs.append(d)
        slope = math.log2(abs(float(diffs[0] / diffs[1])))
        assert abs(slope - expected) < 0.1

    def test_mirror_pair_difference_is_a_single_power(self):
        # for cubic data the (2,0)/(0,2) indicator difference is exactly c dx^5
        h = RatPoly.of([1, 1, 1, 1])
        s1, s2 = Stencil(2, 0), Stencil(0, 2)
        vals = []
        for k in (6, 7):
            dx = F(1, 2**k)
            vals.append(
                beta_form(s1).value(exact_cell_averages(h, s1, dx))
                - beta_form(s2).value(exact_cell_averages(h, s2, dx))
            )
        assert vals[0] == 32 * vals[1]


class TestBetaRoutesAgree:
    """The integer Gram-matrix route against the derivative-ladder oracle."""

    @staticmethod
    def assert_routes_agree(windows):
        for s in windows:
            for face_centered in (False, True):
                form = beta_form(s, face_centered)
                assert form == beta_form_product_oracle(s, face_centered), (s, face_centered)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_padded_window(self, m):
        # pad 2: centred, one-sided and pivot-excluding windows alike
        self.assert_routes_agree([Stencil(mm, m - mm) for mm in range(-2, m + 3)])

    @pytest.mark.parametrize("m", (7, 8, 9))
    def test_thinned_wide_windows(self, m):
        self.assert_routes_agree([Stencil(m // 2, m - m // 2), Stencil(m, 0), Stencil(-2, m + 2)])

    def test_gram_route_builds_no_polynomial_product(self, monkeypatch):
        s = Stencil(4, 5)
        basis(s)

        def forbidden(*args):
            raise AssertionError("beta_form multiplied or differentiated a polynomial")

        monkeypatch.setattr(RatPoly, "__mul__", forbidden)
        monkeypatch.setattr(RatPoly, "__rmul__", forbidden)
        monkeypatch.setattr(RatPoly, "derivative", forbidden)
        for face_centered in (False, True):
            form = beta_form(s, face_centered)
            assert form.matrix.rows == s.m + 1
            assert form.face_centered is face_centered
