"""sympy as a third route to the face coefficients and the tau numbers.

Runs only where sympy is installed; it is not a dependency of the package.
"""

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction as F

from reconkernel.deconv import tau
from reconkernel.recon import face_coeffs
from reconkernel.vandermonde import Stencil

X = sympy.Symbol("x")
HALF = sympy.Rational(1, 2)


def as_fraction(r) -> F:
    return F(int(r.p), int(r.q))


def moment_solution(s: Stencil) -> tuple[F, ...]:
    """Face coefficients as the solution of the cell-average moment system.

    Row d asks the weights to turn the averages of x^d over the cells
    [l - 1/2, l + 1/2] into its face value (1/2)^d, for d = 0..M.
    """
    offsets = list(s.offsets())
    primitives = [sympy.Poly(X**d, X).integrate() for d in range(s.m + 1)]
    system = sympy.Matrix(
        [[p.eval(l + HALF) - p.eval(l - HALF) for l in offsets] for p in primitives]
    )
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
