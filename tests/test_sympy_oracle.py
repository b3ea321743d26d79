"""sympy as a third route to the face coefficients, the tau numbers, the
inverse Vandermonde matrices and the smoothness forms.

Runs only where sympy is installed; it is not a dependency of the package.
"""

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction as F

from reconkernel.deconv import tau
from reconkernel.recon import face_coeffs
from reconkernel.vandermonde import Stencil, inv_vandermonde
from reconkernel.weno import beta_form

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
    for k in range(31):
        expected = (sympy.Integer(2) ** (1 - 2 * k) - 1) * sympy.bernoulli(2 * k) / sympy.factorial(2 * k)
        assert tau(2 * k) == as_fraction(expected), k


@pytest.mark.parametrize("s", NEAR + OFF_PIVOT, ids=str)
def test_inv_vandermonde_is_the_sympy_inverse(s):
    nodes = sympy.Matrix([[l**j for j in range(s.m + 1)] for l in s.offsets()])
    expected = tuple(tuple(as_fraction(c) for c in row) for row in nodes.inv().tolist())
    assert inv_vandermonde(s).entries == expected


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
