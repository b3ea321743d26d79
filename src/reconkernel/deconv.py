"""Deconvolution coefficients relating a function to its sliding cell average.

If f is the unit-width sliding average of h (a reconstruction pair with
spacing folded into the variable), the Taylor jets of the two functions are
related by sparse triangular maps whose entries are the rationals computed
here.  The forward direction (h to f) uses 1/(2^(2l) (2l+1)!); the inverse
direction is governed by the tau numbers, the Taylor coefficients of

    g(x) = (x/2) / sinh(x/2).

The paper defines them by a convolution recurrence; the package computes
them from the closed form of that generating function,
tau_(2n) = (2^(1-2n) - 1) B_(2n)/(2n)!, with the Bernoulli numbers taken
from the tangent numbers of Brent and Harvey, "Fast computation of
Bernoulli, tangent and secant numbers" (2013).  The recurrence is kept as a
test oracle.

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


#: Tangent numbers T_0 = 0, T_1 = 1, T_2 = 2, T_3 = 16, ... by index.  A
#: fill builds a whole new table and only then binds it here, so a reader
#: always sees a complete one.
_TANGENT = [0]


def _tangent_numbers(n: int) -> list[int]:
    """T_0 .. T_n, tan x = sum_k T_k x^(2k-1)/(2k-1)!, in O(n^2) small-by-big integer products.

    The in-place recurrence of Brent and Harvey (2013), Algorithm
    TangentNumbers: start from T_k = (k-1)!, then sweep k = 2..n, replacing
    T_j by (j-k) T_(j-1) + (j-k+2) T_j for j = k..n.
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _tangent(k: int) -> int:
    global _TANGENT
    table = _TANGENT
    if len(table) <= k:
        table = _TANGENT = _tangent_numbers(max(k, 2 * len(table)))
    return table[k]


@_memo
def tau(n: int) -> Fraction:
    """The n-th tau number, the n-th Taylor coefficient of (x/2)/sinh(x/2).

    tau_0 = 1, every odd entry vanishes, and the paper defines the even
    entries by the recurrence

        tau_{2k} = - sum_{s=1}^{k} tau_{2k-2s} / (2^(2s) (2s+1)!),

    the convolution identity forcing the forward and inverse deconvolution
    maps to be mutual inverses.  That recurrence is now a test oracle.  The
    value is read from the closed form of the generating function,
    tau_{2k} = (2^(1-2k) - 1) B_{2k}/(2k)!, with
    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)):

        tau_{2k} = (-1)^k (4^k - 2) 2k T_k / (16^k (4^k - 1) (2k)!),

    where T_k is the k-th tangent number from the integer recurrence of
    Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (2013).  The tangent table is refilled whole, to at least twice
    its length, when an index beyond it is asked, so a cold call at any
    index never recurses.  Successful values are memoized, and the memo and
    the table behave as idempotent caches: both are deterministic, and a
    refill is bound only when complete, so concurrent fills agree.
    """
    _index(n)
    if n % 2:
        return Fraction(0)
    k = n // 2
    if not k:
        return Fraction(1)
    num = (4**k - 2) * 2 * k * _tangent(k)
    return Fraction(-num if k % 2 else num, 16**k * (4**k - 1) * factorial(2 * k))


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
