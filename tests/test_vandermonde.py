"""Stencil node-power matrices, their exact inverses, and the nu coefficients."""

import inspect
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reconkernel
from reconkernel import vandermonde as vandermonde_module
from reconkernel.exact import ValidationError
from reconkernel.vandermonde import CoeffTable, Stencil, inv_vandermonde, nu, vandermonde
from oracles import (
    comb0,
    inv_vandermonde_left_aligned,
    inv_vandermonde_shift_oracle,
    matmul,
    nu_vinv_oracle,
    stirling1_unsigned,
)


def gauss_inverse(t: CoeffTable) -> CoeffTable:
    """Independent inverse via Gauss-Jordan elimination with partial pivoting."""
    n = t.rows
    aug = [
        [t[i, j] for j in range(n)] + [F(1) if i == j else F(0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = 1 / aug[col][col]
        aug[col] = [x * scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return CoeffTable.of([row[n:] for row in aug])


def all_stencils(max_extent, max_m=None):
    for mm in range(-max_extent, max_extent + 1):
        for mp in range(-max_extent, max_extent + 1):
            if mm + mp >= 0 and (max_m is None or mm + mp <= max_m):
                yield Stencil(mm, mp)


def _windows(m: int):
    # the pivot up to 4 cells outside the window (one-sided and
    # pivot-excluding windows), or the window anywhere in offsets -200..200
    left = st.one_of(st.integers(-m - 4, 4), st.integers(-200, 200 - m))
    return left.map(lambda lo: Stencil(-lo, lo + m))


#: Stencils with M <= 12 whose offsets lie in -200..200.
stencils = st.integers(0, 12).flatmap(_windows)


class TestStencil:
    def test_properties(self):
        s = Stencil(1, 2)
        assert s.m == 3
        assert list(s.offsets()) == [-1, 0, 1, 2]
        assert str(s) == "(1,2)"

    def test_negative_side_allowed(self):
        s = Stencil(-1, 4)
        assert list(s.offsets()) == [1, 2, 3, 4]

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            Stencil(1, -2)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            Stencil(F(1, 2), 1)
        with pytest.raises(ValidationError):
            Stencil(True, 1)

    def test_ordering_is_total(self):
        assert sorted([Stencil(2, 0), Stencil(0, 2), Stencil(1, 1)]) == [
            Stencil(0, 2),
            Stencil(1, 1),
            Stencil(2, 0),
        ]


class TestCoeffTable:
    def test_requires_rectangular(self):
        with pytest.raises(ValidationError):
            CoeffTable.of([[1, 2], [3]])
        with pytest.raises(ValidationError):
            CoeffTable.of([])

    def test_matmul_identity(self):
        t = CoeffTable.of([[1, 2], [3, 4]])
        assert matmul(t, CoeffTable.identity(2)) == t

    def test_matmul_shape_check(self):
        t = CoeffTable.of([[1, 2]])
        with pytest.raises(ValidationError):
            matmul(t, t)

    def test_symmetry_predicate(self):
        assert CoeffTable.of([[1, 5], [5, 2]]).is_symmetric
        assert not CoeffTable.of([[1, 5], [4, 2]]).is_symmetric


class TestHelpers:
    def test_comb0_in_range(self):
        assert comb0(5, 2) == 10
        assert comb0(0, 0) == 1

    def test_comb0_out_of_range_is_zero(self):
        assert comb0(2, 5) == 0
        assert comb0(-1, 0) == 0
        assert comb0(3, -1) == 0

    def test_stirling_triangle(self):
        # unsigned first kind: rows n = 0..4
        assert [stirling1_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
        assert [stirling1_unsigned(3, k) for k in range(4)] == [0, 2, 3, 1]
        assert stirling1_unsigned(0, 0) == 1
        assert stirling1_unsigned(5, 7) == 0

    @pytest.mark.parametrize("n", range(13))
    def test_stirling_generates_rising_factorial(self, n):
        # x(x+1)...(x+n-1) = sum_k stirling1(n,k) x^k, checked coefficientwise
        from reconkernel.exact import RatPoly

        rising = RatPoly.of([1])
        for i in range(n):
            rising = rising * RatPoly.of([i, 1])
        expected = RatPoly.of([stirling1_unsigned(n, k) for k in range(n + 1)])
        assert rising == expected

    def test_stirling_rejects_negative(self):
        with pytest.raises(ValidationError):
            stirling1_unsigned(-1, 0)

    def test_submodule_is_not_shadowed_by_its_function(self):
        import reconkernel.vandermonde as by_path
        from reconkernel import vandermonde as by_name

        assert inspect.ismodule(by_path)
        assert inspect.ismodule(by_name)


class TestVandermondeMatrices:
    def test_matrix_entries(self):
        v = vandermonde(Stencil(1, 1))
        assert v == CoeffTable.of([[1, -1, 1], [1, 0, 0], [1, 1, 1]])

    def test_left_aligned_small_cases(self):
        assert inv_vandermonde_left_aligned(1) == CoeffTable.of([[1, 0], [-1, 1]])
        assert inv_vandermonde_left_aligned(2) == CoeffTable.of(
            [[1, 0, 0], [F(-3, 2), 2, F(-1, 2)], [F(1, 2), -1, F(1, 2)]]
        )

    def test_left_aligned_is_left_aligned_stencil(self):
        for m in range(7):
            assert inv_vandermonde_left_aligned(m) == inv_vandermonde(Stencil(0, m))

    @pytest.mark.parametrize("s", list(all_stencils(4, max_m=8)), ids=str)
    def test_inverse_matches_gaussian_elimination(self, s):
        assert inv_vandermonde(s) == gauss_inverse(vandermonde(s))

    def test_negative_side_stencil_inverse(self):
        s = Stencil(-1, 4)
        assert matmul(inv_vandermonde(s), vandermonde(s)) == CoeffTable.identity(4)


def padded_windows(max_m, pad):
    # every window with M <= max_m whose pivot lies at most pad cells outside it
    return [Stencil(mm, m - mm) for m in range(max_m + 1) for mm in range(-pad, m + pad + 1)]


class TestInverseRoutesAgree:
    """The node-polynomial inverse against the binomial shift of the Stirling closed form.

    The closed form builds its Stirling rows by their own recurrence, so it
    shares no code with the node polynomial or the cardinals.
    """

    @pytest.mark.parametrize("s", padded_windows(12, 4), ids=str)
    def test_every_padded_window(self, s):
        assert inv_vandermonde(s) == inv_vandermonde_shift_oracle(s)

    @pytest.mark.parametrize("m", (20, 40))
    def test_wide_centred_windows(self, m):
        s = Stencil(m // 2, m - m // 2)
        assert inv_vandermonde(s) == inv_vandermonde_shift_oracle(s)

    @given(stencils)
    @settings(max_examples=200, deadline=None)
    def test_drawn_windows(self, s):
        assert inv_vandermonde(s) == inv_vandermonde_shift_oracle(s)

    def test_inverse_reaches_no_stirling_number(self):
        # the closed form is a test oracle: the package holds none of it
        for name in ("comb0", "stirling1_unsigned", "inv_vandermonde_left_aligned"):
            assert not hasattr(vandermonde_module, name)
            assert not hasattr(reconkernel, name) and name not in reconkernel.__all__
        inv_vandermonde.cache_clear()
        s = Stencil(3, 4)
        assert matmul(inv_vandermonde(s), vandermonde(s)) == CoeffTable.identity(8)


class TestNu:
    @pytest.mark.parametrize("s", [Stencil(1, 1), Stencil(0, 3), Stencil(2, 2), Stencil(-1, 4)], ids=str)
    def test_kronecker_within_range(self, s):
        for m in range(s.m + 1):
            for k in range(s.m + 1):
                assert nu(s, m, k) == (1 if m == k else 0)

    @pytest.mark.parametrize("s", [Stencil(1, 1), Stencil(2, 1), Stencil(0, 4), Stencil(-2, 5)], ids=str)
    def test_power_reproduction_at_nodes(self, s):
        # sum_m nu(s,m,k) l^m recovers l^k at every node, also beyond k = M
        for k in range(s.m + 5):
            for l in s.offsets():
                acc = sum(nu(s, m, k) * F(l) ** m for m in range(s.m + 1))
                assert acc == F(l) ** k

    def test_validates_row_index(self):
        with pytest.raises(ValidationError):
            nu(Stencil(1, 1), 3, 0)
        with pytest.raises(ValidationError):
            nu(Stencil(1, 1), -1, 0)
        with pytest.raises(ValidationError):
            nu(Stencil(1, 1), 0, -1)

    @pytest.mark.parametrize("bad", [F(3, 2), 1.5, True], ids=repr)
    def test_rejects_non_integer_row_index(self, bad):
        with pytest.raises(ValidationError):
            nu(Stencil(1, 1), bad, 3)

    @pytest.mark.parametrize("m", range(13))
    def test_matches_the_inverse_vandermonde_moments(self, m):
        # every window of width m whose pivot lies at most 4 cells outside it
        for s in (Stencil(mm, m - mm) for mm in range(-4, m + 5)):
            for k in range(m + 8):
                got = [nu(s, row, k) for row in range(m + 1)]
                assert got == [nu_vinv_oracle(s, row, k) for row in range(m + 1)], (s, k)
                assert all(v.denominator == 1 for v in got), (s, k)

    @given(stencils, st.integers(0, 24))
    @settings(max_examples=200, deadline=None)
    def test_drawn_windows_match_the_inverse_vandermonde_moments(self, s, extra):
        k = s.m + extra
        got = [nu(s, row, k) for row in range(s.m + 1)]
        assert got == [nu_vinv_oracle(s, row, k) for row in range(s.m + 1)]
        assert all(v.denominator == 1 for v in got)

    def test_reaches_no_inverse_vandermonde(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("nu reached the inverse Vandermonde matrix")

        monkeypatch.setattr(vandermonde_module, "inv_vandermonde", forbidden)
        s = Stencil(2, 3)
        assert [nu(s, row, 7) for row in range(6)] == [0, 36, 0, -49, 0, 14]
