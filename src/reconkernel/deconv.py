"""Deconvolution coefficients relating a function to its sliding cell average.

If f is the unit-width sliding average of h (a reconstruction pair with
spacing folded into the variable), the Taylor jets of the two functions are
related by sparse triangular maps whose entries are the rationals computed
here.  The forward direction (h to f) uses 1/(2^(2l) (2l+1)!); the inverse
direction is governed by the tau numbers, the Taylor coefficients of

    g(x) = (x/2) / sinh(x/2).

A two-fold average (average of the average) has its own coefficient pair,
the Cauchy squares of the one-fold sequences; the package exports them and
uses them nowhere else.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .exact import RatPoly, _int, _memo

__all__ = [
    "deconv_forward_coeff",
    "deconv_inverse_coeff",
    "double_forward_coeff",
    "double_inverse_coeff",
    "shifted_taylor_poly",
    "tau",
]


def _index(n: int) -> int:
    return _int(n, "index must be a nonnegative integer", lo=0)


#: tau_{2k} by k.  Entries are added in increasing k and only ever read
#: below the one being filled, so the table never has gaps.
_TAU_EVEN = {0: Fraction(1)}


@_memo
def tau(n: int) -> Fraction:
    """The n-th tau number.

    tau_0 = 1, every odd entry vanishes, and the even entries satisfy

        tau_{2k} = - sum_{s=1}^{k} tau_{2k-2s} / (2^(2s) (2s+1)!),

    which is the convolution identity forcing the forward and inverse
    deconvolution maps to be mutual inverses.  The recurrence is filled
    bottom-up, so a cold call at any index never recurses.  Successful values
    are memoized, and the memo behaves as an idempotent cache: the recurrence
    is deterministic, so concurrent fills of the same index agree.
    """
    _index(n)
    if n % 2:
        return Fraction(0)
    for k in range(len(_TAU_EVEN), n // 2 + 1):
        _TAU_EVEN[k] = -sum(
            _TAU_EVEN[k - s] / (4**s * factorial(2 * s + 1)) for s in range(1, k + 1)
        )
    return _TAU_EVEN[n // 2]


def deconv_forward_coeff(l: int) -> Fraction:
    """Weight of h^(n+2l) in the expansion of f^(n): 1/(2^(2l) (2l+1)!)."""
    _index(l)
    return Fraction(1, 4**l * factorial(2 * l + 1))


def deconv_inverse_coeff(l: int) -> Fraction:
    """Weight of f^(n+2l) in the expansion of h^(n): tau_{2l}."""
    _index(l)
    return tau(2 * l)


def shifted_taylor_poly(s: int) -> RatPoly:
    """Coefficient polynomial of f^(s) in the jet of h at a shifted point.

    Expanding h(x + xi*dx) in powers of dx with f-derivatives at x as the
    basis gives, at order s, the degree-s polynomial

        sum_{l=0}^{floor(s/2)} tau_{2l} xi^(s-2l) / (s-2l)!.
    """
    _index(s)
    coeffs = [Fraction(0)] * (s + 1)
    for l in range(s // 2 + 1):
        coeffs[s - 2 * l] = tau(2 * l) / factorial(s - 2 * l)
    return RatPoly.of(coeffs)


def double_forward_coeff(l: int) -> Fraction:
    """Weight of the two-fold average's derivatives in the expansion of f^(n)."""
    _index(l)
    num = sum(comb(2 * l + 2, 2 * s + 1) for s in range(l + 1))
    return Fraction(num, 4**l * factorial(2 * l + 2))


def double_inverse_coeff(l: int) -> Fraction:
    """Inverse weights of the two-fold average: sum_{s} tau_{2s} tau_{2l-2s}.

    The Cauchy square of the tau sequence, so the duality
    sum_s double_inverse_coeff(s) * double_forward_coeff(k-s) = delta_{k0}
    holds term by term.
    """
    _index(l)
    return sum((tau(2 * s) * tau(2 * l - 2 * s) for s in range(l + 1)), Fraction(0))
