"""Pair maps, cardinal bases, and face coefficients."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reconkernel
from reconkernel import deconv, exact, harness, recon, vandermonde, weno
from reconkernel.exact import (
    RatPoly,
    ValidationError,
    cauchy_root_bound,
    poly_eval,
    sturm_real_root_count,
)
from reconkernel.recon import (
    PairCoeffs,
    basis,
    face_coeffs,
    pair_f_from_h,
    pair_h_from_f,
    poly_sliding_average,
)
from reconkernel.vandermonde import CoeffTable, Stencil, inv_vandermonde
from reconkernel.cli import main
from oracles import (
    basis_deconvolution_oracle,
    deconv_matrix,
    deconv_matrix_inverse,
    derivative_coeffs_difference_oracle,
    face_coeffs_folds_oracle,
    face_coeffs_shu_oracle,
    lambda_h_relocation_oracle,
    matmul,
    mu_h_explicit_oracle,
    pair_map_fraction_oracle,
    poly_mul_fraction_oracle,
    poly_sliding_average_oracle,
    unitriangular_inverse,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
coeff_lists = st.lists(rationals, min_size=1, max_size=13)


def all_stencils(max_extent, min_m=0, max_m=None):
    out = []
    for mm in range(-max_extent, max_extent + 1):
        for mp in range(-max_extent, max_extent + 1):
            m = mm + mp
            if m >= min_m and (max_m is None or m <= max_m):
                out.append(Stencil(mm, mp))
    return out


class TestPairMaps:
    def test_quadratic_pair(self):
        # averages of x^2 over unit cells are x^2 + 1/12
        assert pair_f_from_h([0, 0, 1]) == [F(1, 12), 0, 1]
        assert pair_h_from_f([F(1, 12), 0, 1]) == [0, 0, 1]

    def test_cubic_pair(self):
        # averages of x^3 are x^3 + x/4
        assert pair_f_from_h([0, 0, 0, 1]) == [0, F(1, 4), 0, 1]
        assert pair_h_from_f([0, F(1, 4), 0, 1]) == [0, 0, 0, 1]

    def test_length_preserved(self):
        for n in range(1, 14):
            c = [F(1)] * n
            assert len(pair_f_from_h(c)) == n
            assert len(pair_h_from_f(c)) == n

    def test_matches_symbolic_sliding_average(self):
        h = RatPoly.of([3, -2, F(1, 3), 5, 0, 1])
        assert RatPoly.of(pair_f_from_h(h.coeffs)) == poly_sliding_average_oracle(h)

    def test_rejects_ratpoly_input(self):
        with pytest.raises(ValidationError):
            pair_f_from_h(RatPoly.of([1, 2]))

    @pytest.mark.parametrize("bad", [5, None, F(1, 2)], ids=repr)
    def test_rejects_a_non_iterable(self, bad):
        for pair_map in (pair_h_from_f, pair_f_from_h):
            with pytest.raises(ValidationError, match="expected a coefficient list"):
                pair_map(bad)

    def test_takes_a_generator(self):
        assert pair_h_from_f(c for c in [F(1, 12), 0, 1]) == [0, 0, 1]
        assert pair_f_from_h(c for c in [0, 0, 1]) == [F(1, 12), 0, 1]

    def test_one_map_serves_both_directions(self, monkeypatch):
        # the two directions differ only in their weights: the forward
        # 1/(4^k (2k+1)!) and tau_{2k}
        pair_map = recon._pair_map
        seen = []

        def recording(c, weight):
            seen.append(weight(1))
            return pair_map(c, weight)

        monkeypatch.setattr(recon, "_pair_map", recording)
        assert pair_f_from_h([0, 0, 1]) == [F(1, 12), 0, 1]
        assert pair_h_from_f([F(1, 12), 0, 1]) == [0, 0, 1]
        assert seen == [F(1, 24), F(-1, 24)]

    @given(coeff_lists)
    @settings(max_examples=150)
    def test_round_trip_both_ways(self, c):
        c = [F(x) for x in c]
        assert pair_h_from_f(pair_f_from_h(c)) == c
        assert pair_f_from_h(pair_h_from_f(c)) == c

    def test_sliding_average_runs_the_forward_pair_map(self, monkeypatch):
        pair_map = recon._pair_map
        seen = []

        def recording(c, weight):
            seen.append((c, weight(1)))
            return pair_map(c, weight)

        monkeypatch.setattr(recon, "_pair_map", recording)
        h = RatPoly.of([0, 0, 1])
        assert recon.poly_sliding_average(h) == RatPoly.of([F(1, 12), 0, 1])
        assert seen == [(h.coeffs, F(1, 24))]

    def test_sliding_average_of_degree_24(self):
        h = RatPoly.of([F((-1) ** m * (m + 1), m % 7 + 1) for m in range(25)])
        assert h.degree == 24
        assert recon.poly_sliding_average(h) == poly_sliding_average_oracle(h)

    def test_package_surface(self):
        for name in reconkernel.__all__:
            assert getattr(reconkernel, name) is not None, name
        assert reconkernel.poly_sliding_average is recon.poly_sliding_average
        assert "poly_sliding_average" not in exact.__all__


# zeros anywhere, trailing ones included, among mixed denominators and signs
sparse_coeff_lists = st.lists(st.one_of(rationals, st.just(F(0))), max_size=13)
PAIR_WEIGHTS = (deconv.deconv_forward_coeff, deconv.deconv_inverse_coeff)


class TestIntegerPairMap:
    """The pair map and the polynomial product in integers, against the Fraction loops they replaced."""

    def test_pair_maps_add_and_multiply_no_fractions(self, monkeypatch):
        c = [F(3, 4), F(-1, 6), 0, F(5, 2), F(1, 7)]
        expected = [pair_map_fraction_oracle(c, w) for w in PAIR_WEIGHTS]

        def forbidden(*args):
            raise AssertionError("the pair map ran Fraction arithmetic")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__"):
            monkeypatch.setattr(F, name, forbidden)
        assert [pair_f_from_h(c), pair_h_from_f(c)] == expected

    @given(sparse_coeff_lists)
    @settings(max_examples=200)
    def test_matches_the_fraction_sum_both_ways(self, c):
        for weight in PAIR_WEIGHTS:
            out = recon._pair_map(c, weight)
            assert out == pair_map_fraction_oracle(c, weight)
            assert len(out) == len(c)

    @pytest.mark.parametrize(
        "c",
        [
            [],
            [0],
            [0, 0, 0, 0],
            [F(-7, 3)],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, F(-2, 5)],
            [F(1, 2), 0, 0, F(-3, 4), 0, F(5, 6), 0],
            [F(-1, 9), F(7, 10), F(-11, 12), F(13, 14)],
            [F(10**40, 3), F(-1, 10**30), 0, F(7, 2**50)],
        ],
        ids=repr,
    )
    def test_edge_cases_both_ways(self, c):
        for pair_map, weight in ((pair_f_from_h, PAIR_WEIGHTS[0]), (pair_h_from_f, PAIR_WEIGHTS[1])):
            out = pair_map(c)
            assert out == pair_map_fraction_oracle(c, weight)
            assert len(out) == len(c)
        assert pair_h_from_f(pair_f_from_h(c)) == c

    @pytest.mark.parametrize(
        "s", [Stencil(1, 1), Stencil(3, 4), Stencil(10, 10), Stencil(30, 30), Stencil(0, 60)], ids=str
    )
    def test_every_cardinal_column_both_ways(self, s):
        vinv = inv_vandermonde(s)
        for pos in range(s.m + 1):
            column = [vinv[m, pos] for m in range(s.m + 1)]
            assert pair_h_from_f(column) == pair_map_fraction_oracle(column, deconv.deconv_inverse_coeff)
            assert pair_f_from_h(column) == pair_map_fraction_oracle(column, deconv.deconv_forward_coeff)

    def test_error_expansions_match_the_fraction_loops(self, monkeypatch):
        # the integer sums of mu_h and lambda_h against the explicit mu_h and
        # the relocation loop, run on the Fraction pair map and product
        windows = [Stencil(1, 1), Stencil(0, 4), Stencil(3, 4), Stencil(-2, 9), Stencil(6, 6)]
        routes = {"h": mu_h_explicit_oracle, "lambda-h": lambda_h_relocation_oracle}
        expected = [weno.error_expansion(s, kind).terms for s in windows for kind in routes]
        calls = {"pair map": 0, "product": 0}

        def pair_map(c, weight):
            calls["pair map"] += 1
            return pair_map_fraction_oracle(c, weight)

        def product(a, b):
            calls["product"] += 1
            return poly_mul_fraction_oracle(a, b)

        monkeypatch.setattr(recon, "_pair_map", pair_map)
        monkeypatch.setattr(RatPoly, "__mul__", product)
        monkeypatch.setattr(RatPoly, "__rmul__", product)
        for module in (deconv, vandermonde, recon, weno):
            for memoized in vars(module).values():
                if hasattr(memoized, "cache_clear"):
                    memoized.cache_clear()
        orders = {s: range(s.m + 1, s.m + weno.DEFAULT_MARGIN + 1) for s in windows}
        fraction_routes = [
            tuple((n, route(s, n)) for n in orders[s]) for s in windows for route in routes.values()
        ]
        assert fraction_routes == expected
        assert calls["pair map"] > 0 and calls["product"] > 0


class TestPairCoeffs:
    def test_construction_from_either_side(self):
        p = PairCoeffs.from_h([0, 0, 1])
        assert p.c_f == (F(1, 12), 0, 1)
        q = PairCoeffs.from_f([F(1, 12), 0, 1])
        assert q.c_h == (0, 0, 1)

    def test_rejects_mismatched_pair(self):
        with pytest.raises(ValidationError):
            PairCoeffs(c_f=(F(1), F(0)), c_h=(F(0), F(1)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            PairCoeffs(c_f=(F(1),), c_h=(F(1), F(0)))

    def test_rejects_a_non_iterable(self):
        for build in (PairCoeffs.from_f, PairCoeffs.from_h):
            with pytest.raises(ValidationError, match="expected a coefficient list"):
                build(3)
        with pytest.raises(ValidationError):
            PairCoeffs(c_f=None, c_h=(F(1),))


class TestMatrixRoute:
    @pytest.mark.parametrize("m", range(13))
    def test_closed_form_inverse(self, m):
        u = deconv_matrix(m)
        n = u.rows
        assert matmul(u, deconv_matrix_inverse(m)) == CoeffTable.identity(n)
        assert unitriangular_inverse(u) == deconv_matrix_inverse(m)

    @staticmethod
    def _via_chains(c, inverse):
        # split the coefficient list by parity and apply the chain matrices
        d = len(c) - 1
        out = [F(0)] * (d + 1)
        for top in {d, max(d - 1, 0)}:
            n = top // 2
            mat = deconv_matrix_inverse(top) if inverse else deconv_matrix(top)
            vec = [F(c[top - 2 * (n - i)]) for i in range(n + 1)]
            res = [
                sum(mat[r, j] * vec[j] for j in range(n + 1)) for r in range(n + 1)
            ]
            for i in range(n + 1):
                out[top - 2 * (n - i)] = res[i]
        return out

    @given(coeff_lists.filter(lambda c: len(c) <= 11))
    @settings(max_examples=100)
    def test_pair_maps_agree_with_chain_matrices(self, c):
        assert pair_f_from_h(c) == self._via_chains(c, inverse=False)
        assert pair_h_from_f(c) == self._via_chains(c, inverse=True)


class TestUnitriangularInverse:
    def test_small_case(self):
        u = CoeffTable.of([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        inv = unitriangular_inverse(u)
        assert matmul(u, inv) == CoeffTable.identity(3)
        assert matmul(inv, u) == CoeffTable.identity(3)

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValidationError):
            unitriangular_inverse(CoeffTable.of([[2, 1], [0, 1]]))

    def test_rejects_lower_entries(self):
        with pytest.raises(ValidationError):
            unitriangular_inverse(CoeffTable.of([[1, 0], [3, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            unitriangular_inverse(CoeffTable.of([[1, 0, 0], [0, 1, 0]]))


class TestBasis:
    def test_frozen_three_cell_reconstruction(self):
        b = basis(Stencil(1, 1))
        assert b.alpha_h[0] == RatPoly.of([F(-1, 24), F(-1, 2), F(1, 2)])
        assert b.alpha_h[1] == RatPoly.of([F(13, 12), 0, -1])
        assert b.alpha_h[2] == RatPoly.of([F(-1, 24), F(1, 2), F(1, 2)])

    def test_offset_accessors(self):
        b = basis(Stencil(1, 1))
        assert b.alpha_h_at(-1) == b.alpha_h[0]
        assert b.alpha_f_at(1) == b.alpha_f[2]

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_cardinal_property(self, s):
        b = basis(s)
        for p, node_p in zip(b.alpha_f, s.offsets()):
            for node_q in s.offsets():
                assert poly_eval(p, node_q) == (1 if node_p == node_q else 0)

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_partition_of_unity(self, s):
        b = basis(s)
        one = RatPoly.of([1])
        assert sum(b.alpha_f, RatPoly()) == one
        assert sum(b.alpha_h, RatPoly()) == one

    @pytest.mark.parametrize("row, col", [(0, 0), (2, 3), (4, 4)])
    def test_a_perturbed_column_does_not_sum_to_one(self, monkeypatch, row, col):
        # the perturbed member keeps degree M, so only the sum check can fail
        s = Stencil(2, 2)
        rows = [list(r) for r in inv_vandermonde(s).entries]
        rows[row][col] += F(1, 7)
        monkeypatch.setattr(recon, "inv_vandermonde", lambda t: CoeffTable.of(rows))
        basis.cache_clear()
        try:
            with pytest.raises(exact.InvariantError, match="does not sum to 1"):
                basis(s)
        finally:
            basis.cache_clear()

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_degree_is_exactly_m(self, s):
        b = basis(s)
        for p in b.alpha_f + b.alpha_h:
            assert p.degree == s.m

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_sliding_average_links_the_families(self, s):
        b = basis(s)
        for ph, pf in zip(b.alpha_h, b.alpha_f):
            assert poly_sliding_average(ph) == pf

    @pytest.mark.parametrize("s", all_stencils(3, min_m=1) + [Stencil(4, 4)], ids=str)
    def test_alpha_h_roots_all_real(self, s):
        for p in basis(s).alpha_h:
            bound = cauchy_root_bound(p)
            assert sturm_real_root_count(p, -bound, bound) == s.m

    @pytest.mark.parametrize("s", all_stencils(3), ids=str)
    def test_no_roots_at_half_integers(self, s):
        for p in basis(s).alpha_h:
            for n in range(-s.m - 2, s.m + 3):
                assert poly_eval(p, F(2 * n + 1, 2)) != 0


#: every window with both bounds in -4..9
FACE_WINDOWS = [Stencil(a, b) for a in range(-4, 10) for b in range(-4, 10) if a + b >= 0]


class TestFaceCardinalBasis:
    """alpha_h from the face cardinals, against the deconvolution of the inverse columns."""

    @pytest.mark.parametrize("m", sorted({s.m for s in FACE_WINDOWS}))
    def test_every_small_window(self, m):
        windows = [s for s in FACE_WINDOWS if s.m == m]
        assert [s for s in windows if basis(s).alpha_h != basis_deconvolution_oracle(s)] == []

    @pytest.mark.parametrize(
        "s", [Stencil(30, 30), Stencil(0, 60), Stencil(-10**6, 10**6 + 7)], ids=str
    )
    def test_wide_and_far_windows(self, s):
        assert basis(s).alpha_h == basis_deconvolution_oracle(s)


class TestFaceCoeffs:
    def test_frozen_values(self):
        assert face_coeffs(Stencil(1, 1)) == (F(-1, 6), F(5, 6), F(1, 3))
        assert face_coeffs(Stencil(0, 1)) == (F(1, 2), F(1, 2))
        assert face_coeffs(Stencil(2, 2)) == (F(1, 30), F(-13, 60), F(47, 60), F(9, 20), F(-1, 20))

    def test_coefficients_sum_to_one(self):
        for s in all_stencils(3):
            assert sum(face_coeffs(s)) == 1

    @pytest.mark.parametrize("s", all_stencils(4), ids=str)
    def test_product_form_oracle_agrees(self, s):
        assert face_coeffs(s) == face_coeffs_shu_oracle(s)


def padded_windows(m, pad=2):
    """Every window of width m whose pivot lies at most pad cells beyond an end."""
    return [Stencil(mm, m - mm) for mm in range(-pad, m + pad + 1)]


def far_windows(m, gaps):
    """One-sided windows of width m that start gap cells right or left of the pivot."""
    return [w for g in gaps for w in (Stencil(-g, m + g), Stencil(m + g, -g))]


class TestFaceRoutesAgree:
    """The integer product route against the basis polynomials and the O(M^4) oracle."""

    @staticmethod
    def assert_routes_agree(windows):
        half = F(1, 2)
        for s in windows:
            fc = face_coeffs(s)
            assert fc == tuple(poly_eval(p, half) for p in basis(s).alpha_h), s
            assert fc == face_coeffs_shu_oracle(s), s

    @pytest.mark.parametrize("m", range(13))
    def test_every_padded_window(self, m):
        self.assert_routes_agree(padded_windows(m))

    @pytest.mark.parametrize("m", (0, 1, 2, 3, 5, 8, 12))
    def test_one_sided_windows_far_off_the_pivot(self, m):
        self.assert_routes_agree(far_windows(m, (3, 10, 25, 60)))

    @pytest.mark.parametrize("m", (14, 17, 20))
    def test_thinned_wide_windows(self, m):
        self.assert_routes_agree([Stencil(m // 2, m - m // 2), Stencil(-2, m + 2), Stencil(m, 0)])

    def test_face_route_builds_no_polynomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the face route reached the polynomial basis")

        for module in (recon, weno, harness):
            monkeypatch.setattr(module, "basis", forbidden)
        monkeypatch.setattr(recon, "inv_vandermonde", forbidden)
        monkeypatch.setattr(deconv, "tau", forbidden)
        for memoized in (face_coeffs, weno.sigma_values_at_half):
            memoized.cache_clear()
        assert weno.positivity_scan(4)
        assert sum(w for _, w in harness.derivative_coeffs(Stencil(7, 9))) == 0

    def test_cli_far_one_sided_window(self, capsys):
        assert main(["face-coeffs", "--stencil", "60", "0", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "offset,coeff"
        assert sum(F(r.split(",")[1]) for r in rows[1:]) == 1


class TestFaceWeights:
    """The slopes of the face cardinals at 1/2 against the folds and differences they replaced."""

    @pytest.mark.parametrize("m", range(41))
    def test_face_coeffs_on_every_window_within_the_bounds(self, m):
        windows = [Stencil(a, m - a) for a in range(-30, 40) if -30 <= m - a <= 39]
        assert [s for s in windows if face_coeffs(s) != face_coeffs_folds_oracle(s)] == []

    @pytest.mark.parametrize(
        "s",
        [
            Stencil(350, 350),
            Stencil(0, 700),
            Stencil(-10**6, 10**6 + 16),
            Stencil(10**9, -10**9 + 5),
        ],
        ids=str,
    )
    def test_face_coeffs_on_wide_and_far_windows(self, s):
        assert face_coeffs(s) == face_coeffs_folds_oracle(s)

    def test_flux_weights_are_face_coefficient_differences(self):
        windows = [Stencil(a, b) for a in range(-6, 10) for b in range(-6, 10) if a + b >= 0]
        windows.append(Stencil(-10**6, 10**6 + 7))
        oracle = derivative_coeffs_difference_oracle
        assert [s for s in windows if harness.derivative_coeffs(s) != oracle(s)] == []
