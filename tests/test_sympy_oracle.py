"""sympy as a third route to the face coefficients, the tau numbers, the
inverse Vandermonde matrices, the face error constants Lambda, the
local-derivative error polynomials lambda_h, the pivot-derivative error
polynomials mu_h, every reconstructing basis polynomial, the smoothness
forms, the linear weights, the weight-functions, the polynomial gcd and the
Sturm census of the weight denominators.

Runs only where sympy is installed; it is not a dependency of the package.
"""

import pytest

sympy = pytest.importorskip("sympy")

import random
from fractions import Fraction as F
from functools import cache

from reconkernel.deconv import tau
from reconkernel.exact import RatPoly, poly_gcd, sturm_real_root_count
from reconkernel.recon import basis, face_coeffs
from reconkernel.vandermonde import Stencil, inv_vandermonde
from reconkernel.weno import (
    Lambda,
    beta_form,
    lambda_h,
    mu_h,
    sigma_pole_analysis,
    sigma_values_at_half,
    sigma_weights,
    substencil,
)

X = sympy.Symbol("x")
HALF = sympy.Rational(1, 2)


def as_fraction(r) -> F:
    return F(int(r.p), int(r.q))


def cell_average_matrix(s: Stencil):
    """Row l, column d: the average of x^d over the cell [l - 1/2, l + 1/2]."""
    primitives = [sympy.Poly(X**d, X).integrate() for d in range(s.m + 1)]
    return sympy.Matrix(
        [[p.eval(l + HALF) - p.eval(l - HALF) for p in primitives] for l in s.offsets()]
    )


def as_rational(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def as_sympy_poly(p: RatPoly):
    return sympy.Poly([as_rational(c) for c in reversed(p.coeffs)], X)


@cache
def moment_solution(s: Stencil) -> tuple[F, ...]:
    """Face coefficients as the solution of the cell-average moment system.

    Row d asks the weights to turn the averages of x^d over the cells
    [l - 1/2, l + 1/2] into its face value (1/2)^d, for d = 0..M.
    """
    system = cell_average_matrix(s).T
    rhs = sympy.Matrix([HALF**d for d in range(s.m + 1)])
    return tuple(as_fraction(c) for c in system.LUsolve(rhs))


NEAR = [Stencil(mm, m - mm) for m in range(9) for mm in range(-1, m + 2)]
OFF_PIVOT = [Stencil(-5, 9), Stencil(12, -7), Stencil(-20, 23), Stencil(27, -20)]


@pytest.mark.parametrize("s", NEAR + OFF_PIVOT, ids=str)
def test_face_coeffs_solve_the_moment_system(s):
    assert face_coeffs(s) == moment_solution(s)


def test_tau_through_bernoulli_numbers():
    for k in range(301):
        expected = (sympy.Integer(2) ** (1 - 2 * k) - 1) * sympy.bernoulli(2 * k) / sympy.factorial(2 * k)
        assert tau(2 * k) == as_fraction(expected), k


@pytest.mark.parametrize("s", NEAR + OFF_PIVOT, ids=str)
def test_inv_vandermonde_is_the_sympy_inverse(s):
    nodes = sympy.Matrix([[l**j for j in range(s.m + 1)] for l in s.offsets()])
    expected = tuple(tuple(as_fraction(c) for c in row) for row in nodes.inv().tolist())
    assert inv_vandermonde(s).entries == expected


@pytest.mark.parametrize(
    "s,order,expected",
    [
        (Stencil(1, 1), 3, F(1, 12)),
        (Stencil(0, 0), 1, F(-1, 2)),
        (Stencil(0, 1), 2, F(1, 6)),
    ],
    ids=["(1,1)-order3", "(0,0)-order1", "(0,1)-order2"],
)
def test_face_error_constant_reconstructs_the_shifted_power(s, order, expected):
    # h = (x - 1/2)^n / n! has every derivative but the n-th zero at the
    # face, so reconstructing it from its exact cell averages, with face
    # coefficients from the moment system, misses h(1/2) = 0 by Lambda
    h = (X - HALF) ** order / sympy.factorial(order)
    primitive = sympy.integrate(h, X)
    averages = [primitive.subs(X, l + HALF) - primitive.subs(X, l - HALF) for l in s.offsets()]
    value = sum(as_rational(c) * a for c, a in zip(moment_solution(s), averages)) - h.subs(X, HALF)
    assert Lambda(s, order) == as_fraction(value) == expected


@pytest.mark.parametrize(
    "s", [Stencil(1, 1), Stencil(2, 0), Stencil(-1, 3), Stencil(2, 3), Stencil(5, -2)], ids=str
)
@pytest.mark.parametrize("face_centered", (False, True))
def test_beta_form_integrates_the_derivative_products(s, face_centered):
    # the reconstructing basis from the inverse of the cell-average matrix:
    # alpha_h,i has cell averages 1 on cell i and 0 on the others
    coeffs = cell_average_matrix(s).inv()
    alpha = [sum(coeffs[d, i] * X**d for d in range(s.m + 1)) for i in range(s.m + 1)]
    lo, hi = (0, 1) if face_centered else (-HALF, HALF)
    table = beta_form(s, face_centered).matrix
    for i in range(s.m + 1):
        for j in range(s.m + 1):
            integrand = sum(
                sympy.diff(alpha[i], X, k) * sympy.diff(alpha[j], X, k) for k in range(1, s.m + 1)
            )
            # indefinite, then evaluated at the ends: the definite form of
            # integrate is many times slower on these polynomials
            primitive = sympy.integrate(sympy.expand(integrand), X)
            assert table[i, j] == as_fraction(primitive.subs(X, hi) - primitive.subs(X, lo))


@pytest.mark.parametrize("s", [s for s in NEAR + OFF_PIVOT if s.m >= 2], ids=str)
def test_linear_weights_solve_every_cell_equation(s):
    # all M+1 equations sum_k sigma_k c(sub k)[l - k] = c(s)[l], one per
    # cell l, over face coefficients from the moment system: no triangular
    # order is used, and the solution must be unique
    big = moment_solution(s)
    for levels in range(1, s.m):
        subs = [moment_solution(substencil(s, levels, k)) for k in range(levels + 1)]
        system = sympy.Matrix(
            [
                [as_rational(sub[l - k]) if 0 <= l - k < len(sub) else 0 for k, sub in enumerate(subs)]
                for l in range(s.m + 1)
            ]
        )
        solution, free = system.gauss_jordan_solve(sympy.Matrix([as_rational(c) for c in big]))
        assert free.shape[0] == 0
        assert sigma_values_at_half(s, levels) == tuple(as_fraction(c) for c in solution), levels


def sympy_basis(s: Stencil) -> list:
    """The reconstructing basis: column l of the inverse cell-average matrix."""
    inverse = cell_average_matrix(s).inv()
    return [sum(inverse[d, l] * X**d for d in range(s.m + 1)) for l in range(s.m + 1)]


def as_fraction_coeffs(expr) -> tuple[F, ...]:
    return tuple(as_fraction(c) for c in reversed(sympy.Poly(expr, X).all_coeffs()))


@pytest.mark.parametrize("s", [Stencil(1, 1), Stencil(0, 4), Stencil(-2, 5), Stencil(3, 3)], ids=str)
def test_leftmost_basis_polynomial_is_the_face_derivative(s):
    # the weight denominators: (-1)^M P'(x)/(M+1)! with P vanishing on the
    # right faces of the cells
    faces = sympy.prod([X - l - HALF for l in s.offsets()])
    expected = (-1) ** s.m * sympy.diff(faces, X) / sympy.factorial(s.m + 1)
    assert sympy.expand(sympy_basis(s)[0] - expected) == 0


@pytest.mark.parametrize(
    "s,levels",
    [
        (Stencil(1, 1), 1),
        (Stencil(2, 2), 2),
        (Stencil(3, 1), 2),
        (Stencil(-2, 5), 1),
        (Stencil(2, 3), 3),
        (Stencil(1, 5), 4),
    ],
    ids=str,
)
def test_weight_functions_solve_the_first_cell_equations(s, levels):
    # cell l <= K of the stencil is cell l - k of substencil k; sympy solves
    # those K+1 equations and reduces each weight with cancel
    big = sympy_basis(s)
    subs = [sympy_basis(substencil(s, levels, k)) for k in range(levels + 1)]
    sigma = sympy.symbols(f"sigma0:{levels + 1}")
    equations = [
        sum(sigma[k] * sub[l - k] for k, sub in enumerate(subs) if 0 <= l - k < len(sub)) - big[l]
        for l in range(levels + 1)
    ]
    solution = sympy.solve(equations, sigma, dict=True)[0]
    for k, w in enumerate(sigma_weights(s, levels).weights):
        num, den = sympy.fraction(sympy.cancel(solution[sigma[k]]))
        lead = sympy.Poly(den, X).LC()
        assert as_fraction_coeffs(num / lead) == w.num.coeffs, k
        assert as_fraction_coeffs(den / lead) == w.den.coeffs, k


@pytest.mark.parametrize(
    "s", [Stencil(1, 1), Stencil(0, 2), Stencil(3, 1), Stencil(-2, 5), Stencil(12, -9)], ids=str
)
def test_lambda_h_differentiates_the_face_interpolant(s):
    # the reconstruction is the derivative of the polynomial interpolating
    # the primitive of the averages at the M+2 faces; h = (t - x)^n/n! about
    # the point x has primitive (t - x)^(n+1)/(n+1)! and h(x) = 0, so the
    # derivative of its face interpolant at t = x is lambda_h(s, n)(x)
    t = sympy.Symbol("t")
    faces = [l - HALF for l in s.offsets()] + [s.m_plus + HALF]
    cardinals = [
        sympy.prod([(t - p) / (q - p) for p in faces if p != q]) for q in faces
    ]
    slopes = [sympy.diff(c, t) for c in cardinals]
    for n in range(s.m + 1, s.m + 4):
        primitive = [(q - X) ** (n + 1) / sympy.factorial(n + 1) for q in faces]
        error = sum(v * d for v, d in zip(primitive, slopes)).subs(t, X)
        assert lambda_h(s, n).coeffs == as_fraction_coeffs(sympy.expand(error)), n


@pytest.mark.parametrize(
    "s", [Stencil(1, 1), Stencil(0, 2), Stencil(3, 1), Stencil(-2, 5), Stencil(12, -9)], ids=str
)
def test_mu_h_differentiates_the_face_error_of_the_bernoulli_primitive(s):
    # x^n/n! is the sliding average of the derivative of
    # Phi_n = B_(n+1)(x + 1/2)/(n+1)!, as B_(n+1)(y+1) - B_(n+1)(y) =
    # (n+1) y^n; the reconstruction differentiates the face interpolant of
    # the primitive, so mu_h(s, n) is -d/dx [Phi_n - its face interpolant]
    faces = [l - HALF for l in s.offsets()] + [s.m_plus + HALF]
    for n in range(s.m + 1, s.m + 4):
        phi = sympy.bernoulli(n + 1, X + HALF) / sympy.factorial(n + 1)
        interpolant = sympy.interpolate([(q, phi.subs(X, q)) for q in faces], X)
        error = -sympy.diff(phi - interpolant, X)
        assert mu_h(s, n).coeffs == as_fraction_coeffs(sympy.expand(error)), n


@pytest.mark.parametrize(
    "s", [Stencil(0, 0), Stencil(1, 1), Stencil(0, 4), Stencil(-2, 5), Stencil(3, 3), Stencil(12, -9)],
    ids=str,
)
def test_every_basis_polynomial_is_a_face_derivative(s):
    # the primitive of a unit average on cell l is 0 at the faces left of
    # it and 1 at those right of it: alpha_h,l is the derivative of the
    # sum of the face cardinals right of cell l
    faces = [l - HALF for l in s.offsets()] + [s.m_plus + HALF]
    cardinals = [sympy.prod([(X - p) / (q - p) for p in faces if p != q]) for q in faces]
    for l, alpha in enumerate(basis(s).alpha_h):
        suffix = sum(cardinals[l + 1 :])
        assert alpha.coeffs == as_fraction_coeffs(sympy.expand(sympy.diff(suffix, X))), l


def random_poly(rng: random.Random, degree: int) -> RatPoly:
    return RatPoly.of([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)] + [1])


def test_poly_gcd_is_the_sympy_gcd():
    rng = random.Random(5)
    for _ in range(60):
        common = random_poly(rng, rng.randint(0, 3))
        a = common * random_poly(rng, rng.randint(0, 4))
        b = common * random_poly(rng, rng.randint(0, 4)) * F(rng.randint(1, 5), rng.randint(1, 5))
        expected = sympy.gcd(as_sympy_poly(a), as_sympy_poly(b)).monic().all_coeffs()
        assert poly_gcd(a, b).coeffs == tuple(as_fraction(c) for c in reversed(expected)), (a, b)


CENSUS = [(Stencil(2, 2), 2), (Stencil(-1, 3), 1), (Stencil(4, 2), 3), (Stencil(1, 5), 4)] + [
    (Stencil(3, 3), levels) for levels in range(1, 6)
]


@pytest.mark.parametrize("s,levels", CENSUS, ids=str)
def test_weight_denominator_census_matches_real_roots(s, levels):
    # every half-integer grid point in the window, as interval ends
    grid = [F(n, 2) for n in range(-2 * s.m - 6, 2 * s.m + 7)]
    for report in sigma_pole_analysis(sigma_weights(s, levels)):
        roots = sympy.real_roots(as_sympy_poly(report.denominator))
        distinct = sorted(set(roots), key=lambda r: float(r))
        assert report.real_root_count == len(distinct) == report.denominator.degree

        def inside(lo, hi):
            return sum(1 for r in distinct if bool(r > as_rational(lo)) and bool(r <= as_rational(hi)))

        for lo, hi in report.isolating_intervals:
            assert inside(lo, hi) == 1
        for lo, hi in zip(grid, grid[1:]):
            assert sturm_real_root_count(report.denominator, lo, hi) == inside(lo, hi)
