"""Independent derivation routes, used only as test oracles.

Each oracle reaches a quantity the package computes by a route that shares
none of its code: the tau numbers by exact power-series division of
sinh(x/2)/(x/2) and by the paper's convolution recurrence
(`tau_recurrence_oracle`), which the package's tangent numbers replaced,
the deconvolution map as an upper unitriangular matrix
whose back-substitution inverse is checked against its closed form, and the
face coefficients by the classical product/sum formula in O(M^4) integer
products and by the prefix and suffix product folds of the face gaps
(`face_coeffs_folds_oracle`), which the package's slopes of the face
cardinals at 1/2 replaced, the flux-difference weights as differences of
the face coefficients, and the smoothness forms by integrating products of
the basis derivatives one at a time, and the weight-functions and linear weights by
the level-by-level convolution recurrence over one-fold splits, the
weight-functions also by the triangular solve in `RatFunction` arithmetic
on the basis polynomials, which the package's interpolation at the cell
interfaces replaced, and the pole census by Sturm chains in `Fraction`s,
rebuilt at every bisection step; the linear weights inside the
positivity condition also by the hypergeometric closed form.  The face-error
constants Lambda are also reached by evaluating lambda_h at the face.
Polynomial division, evaluation, products and the sliding average are also
reached by the `Fraction` loops that the package's integer kernels replaced:
the elimination loop, Horner's rule, the schoolbook product, and the
antiderivative shifted by +-1/2; the pair maps by their term-by-term
`Fraction` sum, and matrix products by the dense `Fraction` sum.
The inverse Vandermonde matrix is also reached by the binomial shift of the
Stirling closed form on {0, ..., M}, its Stirling numbers from the textbook
recurrence, the error generators nu by the moments of its rows
against the powers of the nodes, and the local-derivative error polynomials
by polynomial powers: their brackets, the Taylor expansion of every
sample about the evaluation point in the cardinal basis, and the relocation
loop that re-centres the mu expansions on the evaluation point, which the
package's integer remainder sums replaced.  Two deconvolution routes
stand beside the face route of the package: the reconstructing basis by
`pair_h_from_f` of each inverse-Vandermonde column, and mu_h by its
explicit form, the deconvolved interpolant of x^n less the tau tail, in
`RatPoly` arithmetic.  The polynomial gcd
is also reached by the integer subresultant remainder sequence, on the
step-by-step pseudo-remainder that the package's integer long division
replaced, and the square-free part by the rational quotient of p by that
gcd of p and p'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from typing import Iterable, Union

from reconkernel.deconv import _index, shifted_taylor_poly, tau
from reconkernel.exact import (
    InvariantError,
    RatFunction,
    RatPoly,
    Rational,
    ValidationError,
    _int,
    _int_coeffs,
    _rat,
    as_poly,
    cauchy_root_bound,
    poly_definite_integral,
)
from reconkernel.recon import _coeff_tuple, basis, face_coeffs, pair_h_from_f, poly_sliding_average
from reconkernel.vandermonde import CoeffTable, Stencil, inv_vandermonde
from reconkernel.weno import (
    PoleReport,
    SmoothnessForm,
    WeightFamily,
    _require_expansion_order,
    mu_f,
    mu_h,
    substencil,
)


# ---------------------------------------------------------------------------
# polynomial and matrix arithmetic in Fraction loops
# ---------------------------------------------------------------------------


def poly_divmod_oracle(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Quotient and remainder by the rational elimination loop."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    d, lc = b.degree, b.leading
    r = list(a.coeffs)
    q = [Fraction(0)] * max(len(r) - d, 0)
    for k in reversed(range(len(q))):
        q[k] = t = r[k + d] / lc
        for i, c in enumerate(b.coeffs):
            r[k + i] -= t * c
    return RatPoly(tuple(q)), RatPoly(tuple(r[:d]))


def poly_mul_fraction_oracle(self: RatPoly, other: "Union[RatPoly, Rational]") -> RatPoly:
    """The product by the schoolbook `Fraction` loop; a drop-in for `RatPoly.__mul__`."""
    if isinstance(other, RatPoly):
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(tuple(out))
    scalar = _rat(other)
    return RatPoly(tuple(c * scalar for c in self.coeffs))


def pair_map_fraction_oracle(c, weight) -> list[Fraction]:
    """The pair map by its term-by-term `Fraction` sum; a drop-in for `recon._pair_map`.

    c_out[m] = (1/m!) sum_k w_k (m+2k)! c[m+2k] over the nonzero c, w_k = weight(k).
    """
    cs = _coeff_tuple(c)
    n = len(cs)
    w = [weight(k) for k in range((n + 1) // 2)]
    out = []
    for m in range(n):
        terms = (w[(j - m) // 2] * factorial(j) * cs[j] for j in range(m, n, 2) if cs[j])
        out.append(sum(terms, Fraction(0)) / factorial(m))
    return out


def poly_eval_oracle(p, x: Rational) -> Fraction:
    """Horner evaluation at a rational point, in Fractions."""
    p = as_poly(p)
    x = _rat(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def taylor_shift(p: RatPoly, c: Rational) -> RatPoly:
    """p(x + c), expanded by Horner's rule in (x + c)."""
    shift = RatPoly((_rat(c), Fraction(1)))
    result = RatPoly()
    for coeff in reversed(p.coeffs):
        result = result * shift + RatPoly.constant(coeff)
    return result


def poly_sliding_average_oracle(p) -> RatPoly:
    """The sliding average as the antiderivative shifted by +1/2 minus -1/2."""
    prim = as_poly(p).antiderivative()
    half = Fraction(1, 2)
    return taylor_shift(prim, half) - taylor_shift(prim, -half)


def matmul(a: CoeffTable, b: CoeffTable) -> CoeffTable:
    """The exact matrix product a b; ValidationError when the shapes do not compose."""
    if a.cols != b.rows:
        raise ValidationError("matrix shapes do not compose")
    out = []
    for i in range(a.rows):
        out.append(
            [
                sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), Fraction(0))
                for j in range(b.cols)
            ]
        )
    return CoeffTable.of(out)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSeries:
    """Taylor jet: coefficients of x^0 .. x^order, trailing zeros kept.

    The truncation order is part of the value; sums and products truncate to
    the shorter operand, so arithmetic never silently extends a result past
    coefficients that are actually known.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValidationError("a power series stores at least its constant term")
        object.__setattr__(self, "coeffs", tuple(_rat(c) for c in self.coeffs))

    @classmethod
    def of(cls, coeffs: Iterable[Rational], order: "int | None" = None) -> "PowerSeries":
        cs = [_rat(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValidationError("truncation order must be nonnegative")
            cs = cs[: order + 1]
            cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValidationError(f"coefficient {k} is beyond the truncation order {self.order}")
        return self.coeffs[k]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return PowerSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))


def series_divide(a: PowerSeries, b: PowerSeries, order: int) -> PowerSeries:
    """Quotient jet of a/b through the stated order, exact.

    Operands are read as polynomials: coefficients above an operand's stored
    order are exact zeros.  When an operand is itself a truncation of a longer
    series, supply it zero-padded to the working order.
    """
    if order < 0:
        raise ValidationError("truncation order must be nonnegative")
    if b.coeffs[0] == 0:
        raise ValidationError("division by a power series with zero constant term")

    def at(series: PowerSeries, k: int) -> Fraction:
        return series.coeffs[k] if k <= series.order else Fraction(0)

    inv0 = b.coeffs[0]
    q: list[Fraction] = []
    for n in range(order + 1):
        acc = at(a, n)
        for k in range(1, n + 1):
            bk = at(b, k)
            if bk:
                acc -= bk * q[n - k]
        q.append(acc / inv0)
    return PowerSeries(tuple(q))


# ---------------------------------------------------------------------------
# tau by generating-function division and by the paper's recurrence
# ---------------------------------------------------------------------------


def tau_gf_oracle(n: int) -> Fraction:
    """n-th Taylor coefficient of (x/2)/sinh(x/2), by exact series division.

    Independent derivation path for `tau`: expand sinh(x/2)/(x/2) directly
    and divide 1 by it.  The jet is carried two orders past n to guard the
    last coefficient.
    """
    _index(n)
    order = n + 2
    cs = []
    for k in range(order + 1):
        if k % 2:
            cs.append(Fraction(0))
        else:
            m = k // 2
            cs.append(Fraction(1, 4**m * factorial(2 * m + 1)))
    one = PowerSeries.of([1], order=order)
    return series_divide(one, PowerSeries(tuple(cs)), order).coeff(n)


#: tau_{2k} by k.  Entries are added in increasing k and only ever read
#: below the one being filled, so the table never has gaps.
_TAU_EVEN = {0: Fraction(1)}


def tau_recurrence_oracle(n: int) -> Fraction:
    """The n-th tau number by the paper's definition, which `tau` replaced.

    tau_0 = 1, every odd entry vanishes, and the even entries satisfy

        tau_{2k} = - sum_{s=1}^{k} tau_{2k-2s} / (2^(2s) (2s+1)!),

    the convolution identity forcing the forward and inverse deconvolution
    maps to be mutual inverses, filled bottom-up in O(k^2) `Fraction` terms.
    """
    _index(n)
    if n % 2:
        return Fraction(0)
    for k in range(len(_TAU_EVEN), n // 2 + 1):
        _TAU_EVEN[k] = -sum(
            _TAU_EVEN[k - s] / (4**s * factorial(2 * s + 1)) for s in range(1, k + 1)
        )
    return _TAU_EVEN[n // 2]


# ---------------------------------------------------------------------------
# deconvolution map in matrix form
# ---------------------------------------------------------------------------


def unitriangular_inverse(u: CoeffTable) -> CoeffTable:
    """Exact inverse of an upper unitriangular matrix.

    Uses the backward recurrence inv[r][r+s] = -sum_{l=1}^{s} u[r][r+l] *
    inv[r+l][r+s]; the inverse is again upper unitriangular.
    """
    n = u.rows
    if u.cols != n:
        raise ValidationError("matrix must be square")
    for i in range(n):
        if u[i, i] != 1:
            raise ValidationError("matrix must have a unit diagonal")
        for j in range(i):
            if u[i, j] != 0:
                raise ValidationError("matrix must be upper triangular")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n - 1, -1, -1):
        inv[r][r] = Fraction(1)
        for sdx in range(1, n - r):
            inv[r][r + sdx] = -sum(
                (u[r, r + l] * inv[r + l][r + sdx] for l in range(1, sdx + 1)), Fraction(0)
            )
    return CoeffTable.of(inv)


def deconv_matrix(m: int) -> CoeffTable:
    """Unitriangular matrix of the parity-respecting deconvolution map.

    For a degree-m polynomial, the coefficients of indices m, m-2, m-4, ...
    form a chain; with N = floor(m/2), row r of this (N+1)x(N+1) matrix maps
    the h-chain to the f-chain: entry (N-l, N-l+k) = C(m-2l+2k, 2k) /
    ((2k+1) 2^(2k)).
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValidationError("degree must be a nonnegative integer")
    n = m // 2
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for l in range(n + 1):
        r = n - l
        for k in range(l + 1):
            rows[r][r + k] = Fraction(comb0(m - 2 * l + 2 * k, 2 * k), (2 * k + 1) * 4**k)
    return CoeffTable.of(rows)


def deconv_matrix_inverse(m: int) -> CoeffTable:
    """Closed form for the inverse of `deconv_matrix`.

    Entry (N-l, N-l+k) = tau_{2k} (m-2l+2k)! / (m-2l)!.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise ValidationError("degree must be a nonnegative integer")
    n = m // 2
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for l in range(n + 1):
        r = n - l
        for k in range(l + 1):
            rows[r][r + k] = tau(2 * k) * Fraction(
                factorial(m - 2 * l + 2 * k), factorial(m - 2 * l)
            )
    return CoeffTable.of(rows)


# ---------------------------------------------------------------------------
# inverse Vandermonde matrices by the Stirling closed form and the binomial shift
# ---------------------------------------------------------------------------


def comb0(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever the pair is out of range."""
    return comb(n, k) if 0 <= k <= n else 0


#: Rows [n, 0], ..., [n, n] of the unsigned Stirling numbers, grown on demand.
_STIRLING_ROWS = [(1,)]


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind, from the textbook recurrence.

    [n+1, k] = n [n, k] + [n, k-1], with [0, 0] = 1; out-of-range k gives 0.
    Rows are added bottom-up, so a cold call never recurses.
    """
    _int(n, "Stirling indices must be nonnegative integers", lo=0)
    _int(k, "Stirling indices must be nonnegative integers", lo=0)
    while len(_STIRLING_ROWS) <= n:
        j, prev = len(_STIRLING_ROWS) - 1, _STIRLING_ROWS[-1]
        _STIRLING_ROWS.append(tuple(j * a + b for a, b in zip(prev + (0,), (0,) + prev)))
    return _STIRLING_ROWS[n][k] if k <= n else 0


@cache
def inv_vandermonde_left_aligned(m: int) -> CoeffTable:
    """Closed-form inverse of the Vandermonde matrix on the window {0, ..., m}.

    Zero-based entry (i, j) is
        (-1)^(i+j) * sum_{k=0}^{m} C(k, j) * [k, i] / k!
    with [k, i] the unsigned Stirling numbers.
    """
    _int(m, "window size must be a nonnegative integer", lo=0)
    rows = []
    for i in range(m + 1):
        row = []
        for j in range(m + 1):
            total = sum(
                (Fraction(comb0(k, j) * stirling1_unsigned(k, i), factorial(k)) for k in range(m + 1)),
                Fraction(0),
            )
            row.append(total if (i + j) % 2 == 0 else -total)
        rows.append(row)
    return CoeffTable.of(rows)


def inv_vandermonde_shift_oracle(s: Stencil) -> CoeffTable:
    """Exact inverse Vandermonde matrix on an arbitrary stencil.

    Transports the left-aligned inverse by the binomial shift: zero-based

        entry(i, j) = sum_{n=0}^{m-i} m_minus^n * C(n+i, n) * L[i+n][j],

    where L is the left-aligned inverse and m_minus^n is the literal signed
    power, so windows right of the pivot (negative m_minus) work unchanged.
    """
    m = s.m
    left = inv_vandermonde_left_aligned(m)
    rows = []
    for i in range(m + 1):
        row = []
        for j in range(m + 1):
            total = sum(
                (
                    Fraction(s.m_minus**n * comb0(n + i, n)) * left[i + n, j]
                    for n in range(m - i + 1)
                ),
                Fraction(0),
            )
            row.append(total)
        rows.append(row)
    return CoeffTable.of(rows)


def nu_vinv_oracle(s: Stencil, m: int, k: int) -> Fraction:
    """Moment of inverse-Vandermonde row m against the k-th powers of the nodes."""
    vinv = inv_vandermonde(s)
    return sum(
        (vinv[m, pos] * Fraction(ell**k) for pos, ell in enumerate(s.offsets())),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# face coefficients
# ---------------------------------------------------------------------------


def face_coeffs_shu_oracle(s: Stencil) -> tuple[Fraction, ...]:
    """Face coefficients by the classical product/sum formula.

    Independent derivation path: no Vandermonde inversion and no tau numbers,
    only integer products over the primitive-function interpolation nodes.
    """
    m_total, mm = s.m, s.m_minus
    out = []
    for ell in s.offsets():
        total = Fraction(0)
        for m in range(ell + mm + 1, m_total + 2):
            num = 0
            for p in range(m_total + 2):
                if p == m:
                    continue
                prod = 1
                for q in range(m_total + 2):
                    if q == m or q == p:
                        continue
                    prod *= mm - q + 1
                num += prod
            den = 1
            for p in range(m_total + 2):
                if p != m:
                    den *= m - p
            total += Fraction(num, den)
        out.append(total)
    return tuple(out)


def _product_folds(factors) -> list[tuple[int, int]]:
    # entry i: the product of the first i factors, and the sum of the i
    # products of those factors that leave one of them out
    out = [(1, 0)]
    for g in factors:
        prod, rest = out[-1]
        out.append((prod * g, rest * g + prod))
    return out


def face_coeffs_folds_oracle(s: Stencil) -> tuple[Fraction, ...]:
    """Face coefficients by prefix and suffix product folds over the face gaps.

    Node m of the M+2 primitive nodes, at integer gap g_q = 1 + m_minus - q
    from the face, weighs sum_{p != m} prod_{q not in {m, p}} g_q over
    prod_{q != m} (m - q); coefficient l sums the weights right of cell l.
    The folds give every weight in O(M) integer products over (M+1)!, with
    no division: the route the package's exact quotient of the three lowest
    coefficients of prod_q (y + g_q) replaced.
    """
    n = s.m + 2
    gaps = [1 + s.m_minus - q for q in range(n)]
    # g_q over q < i in pre[i] and over q >= i in suf[i]
    pre = _product_folds(gaps)
    suf = _product_folds(reversed(gaps))[::-1]
    nums = []
    acc = 0
    for m in range(n - 1, 0, -1):
        (pl, rl), (pr, rr) = pre[m], suf[m + 1]
        acc += (-1) ** (n - 1 - m) * comb(n - 1, m) * (rl * pr + pl * rr)
        nums.append(acc)
    nums.reverse()
    den = factorial(n - 1)
    if sum(nums) != den:
        raise InvariantError(f"face coefficients of stencil {s} do not sum to 1")
    return tuple(Fraction(a, den) for a in nums)


def derivative_coeffs_difference_oracle(s: Stencil) -> tuple[tuple[int, Fraction], ...]:
    """Flux-difference weights as differences of the face coefficients.

    Offset j weighs c_j - c_(j+1) with c = face_coeffs(s), zero outside the
    window: the face value at +1/2 less the same face value shifted one
    cell left.
    """
    a = face_coeffs(s)
    lo, hi = -s.m_minus, s.m_plus
    out = []
    for j in range(lo - 1, hi + 1):
        w = Fraction(0)
        if j >= lo:
            w += a[j - lo]
        if j + 1 <= hi:
            w -= a[j + 1 - lo]
        out.append((j, w))
    return tuple(out)


# ---------------------------------------------------------------------------
# local-derivative error polynomials by polynomial powers
# ---------------------------------------------------------------------------


def lambda_h_power_oracle(s: Stencil, order: int) -> RatPoly:
    """Local-derivative error polynomial of the reconstruction.

    Re-centers the mu_h expansion on the evaluation point and trades the
    pivot derivatives of the averaged field for derivatives of the
    reconstructed function itself:

        lambda_h(s, n) = sum_{l=0}^{n-M-1} mu_h(s, n-l) *
            ((-1)^(l+1)/(l+1)!) * ((xi-1/2)^(l+1) - (xi+1/2)^(l+1)).

    The l = 0 factor is 1, so the leading term equals mu_h(s, M+1).
    """
    _require_expansion_order(s, order)
    half = Fraction(1, 2)
    ximinus = RatPoly((-half, Fraction(1)))
    xiplus = RatPoly((half, Fraction(1)))
    total = RatPoly()
    for l in range(order - s.m):
        bracket = ximinus ** (l + 1) - xiplus ** (l + 1)
        factor = Fraction((-1) ** (l + 1), factorial(l + 1))
        total = total + mu_h(s, order - l) * bracket * factor
    return total


def _relocated(s: Stencil, order: int, mu, averaged: bool) -> RatPoly:
    # sum_{l=0}^{n-M-1} mu(s, n-l) * k_l, with k_l = (-xi)^l/l! or, when
    # averaged, its sliding average
    total = RatPoly()
    for l in range(order - s.m):
        kernel = RatPoly.monomial(l, Fraction((-1) ** l, factorial(l)))
        if averaged:
            kernel = poly_sliding_average(kernel)
        total = total + mu(s, order - l) * kernel
    return total


def lambda_h_relocation_oracle(s: Stencil, order: int) -> RatPoly:
    """lambda_h(s, n) = sum_{l=0}^{n-M-1} mu_h(s, n-l) * k_l, the relocation loop.

    Re-centers the mu_h expansion on the evaluation point: k_l is the
    sliding average (`pair_f_from_h`) of (-xi)^l/l!, which trades the pivot
    derivatives of the averaged field for derivatives of h itself.
    """
    _require_expansion_order(s, order)
    return _relocated(s, order, mu_h, averaged=True)


def lambda_f_relocation_oracle(s: Stencil, order: int) -> RatPoly:
    """lambda_f(s, n) = sum_{l=0}^{n-M-1} ((-xi)^l / l!) * mu_f(s, n-l), the relocation loop."""
    _require_expansion_order(s, order)
    return _relocated(s, order, mu_f, averaged=False)


def mu_h_explicit_oracle(s: Stencil, order: int) -> RatPoly:
    """mu_h(s, n) = pair_h_from_f(x^n mod omega)/n! - shifted_taylor_poly(n), in `RatPoly` arithmetic.

    The interpolant x^n mod omega comes from the rational elimination loop
    on the node polynomial built as a product of its linear factors.
    """
    omega = RatPoly.constant(1)
    for ell in s.offsets():
        omega = omega * RatPoly((Fraction(-ell), Fraction(1)))
    interpolant = poly_divmod_oracle(RatPoly.monomial(order), omega)[1]
    nu_h = RatPoly.of(pair_h_from_f(interpolant.coeffs))
    return nu_h * Fraction(1, factorial(order)) - shifted_taylor_poly(order)


def basis_deconvolution_oracle(s: Stencil) -> tuple[RatPoly, ...]:
    """alpha_h,l = pair_h_from_f of inverse-Vandermonde column l, the deconvolution route.

    The reconstruction of the cell averages is the deconvolution of their
    interpolant, so each reconstructing cardinal deconvolves a cell
    cardinal.
    """
    return tuple(RatPoly.of(pair_h_from_f(col)) for col in zip(*inv_vandermonde(s).entries))


def lambda_f_cardinal_oracle(s: Stencil, order: int) -> RatPoly:
    """lambda_f(s, n)(xi) = sum_l alpha_f,l(xi) (l-xi)^n / n!, for n > M.

    Each sample f_l is the Taylor series of f about xi evaluated at l, and
    the interpolant reproduces the terms below order M+1.
    """
    total = RatPoly()
    for ell, alpha in zip(s.offsets(), basis(s).alpha_f):
        total = total + alpha * RatPoly((Fraction(ell), Fraction(-1))) ** order
    return total * Fraction(1, factorial(order))


def lambda_h_cardinal_oracle(s: Stencil, order: int) -> RatPoly:
    """lambda_h(s, n)(xi) = sum_l alpha_h,l(xi) ((l+1/2-xi)^(n+1) - (l-1/2-xi)^(n+1)) / (n+1)!.

    The bracket over (n+1)! is the cell-l average of (x-xi)^n/n!, the
    Taylor term of h about xi, and the reconstruction reproduces the terms
    below order M+1.
    """
    half = Fraction(1, 2)
    total = RatPoly()
    for ell, alpha in zip(s.offsets(), basis(s).alpha_h):
        right = RatPoly((ell + half, Fraction(-1))) ** (order + 1)
        left = RatPoly((ell - half, Fraction(-1))) ** (order + 1)
        total = total + alpha * (right - left)
    return total * Fraction(1, factorial(order + 1))


def Lambda_face_oracle(s: Stencil, order: int) -> Fraction:
    """Lambda(s, n) = sum_l c_l (l^(n+1) - (l-1)^(n+1)) / (n+1)!, c = face_coeffs(s).

    The bracket over (n+1)! is the cell-l average of (x-1/2)^n/n!, the
    Taylor term of h about the face.
    """
    total = sum(
        c * (ell ** (order + 1) - (ell - 1) ** (order + 1))
        for ell, c in zip(s.offsets(), face_coeffs(s))
    )
    return total / factorial(order + 1)


def Lambda_relocation_oracle(s: Stencil, order: int) -> Fraction:
    """Lambda(s, n) = lambda_h(s, n)(1/2): mu_h, the relocation loop and one evaluation at the face."""
    return poly_eval_oracle(lambda_h_relocation_oracle(s, order), Fraction(1, 2))


# ---------------------------------------------------------------------------
# smoothness forms
# ---------------------------------------------------------------------------


def beta_form_product_oracle(s: Stencil, face_centered: bool = False) -> SmoothnessForm:
    """The smoothness-indicator matrix of a stencil.

    B[l][l'] = sum_{k=1}^{M} integral of alpha_h,l^(k) * alpha_h,l'^(k) over
    one cell.  The integration interval is the pivot cell xi in [-1/2, 1/2];
    pass face_centered=True for the variant over xi in [0, 1].
    """
    if s.m < 1:
        raise ValidationError("smoothness forms need at least two cells")
    lo, hi = (Fraction(0), Fraction(1)) if face_centered else (Fraction(-1, 2), Fraction(1, 2))
    alpha = basis(s).alpha_h
    derivatives = []
    for p in alpha:
        ladder = []
        q = p
        for _ in range(s.m):
            q = q.derivative()
            ladder.append(q)
        derivatives.append(ladder)
    n = s.m + 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Fraction(0)
            for k in range(s.m):
                acc += poly_definite_integral(derivatives[i][k] * derivatives[j][k], lo, hi)
            row.append(acc)
        rows.append(row)
    return SmoothnessForm(s, CoeffTable.of(rows), face_centered)


# ---------------------------------------------------------------------------
# substencil weights by the symbolic solve and the convolution recurrence
# ---------------------------------------------------------------------------


@cache
def sigma_weights_symbolic_oracle(s: Stencil, levels: int) -> WeightFamily:
    """Weight-functions by the triangular solve on the basis polynomials.

    Solves alpha_h,l = sum_k sigma_k * (alpha_h of substencil k at that
    cell), one equation per cell l, over the reconstructing bases of the
    stencil and of its K+1 substencils, in `RatFunction` arithmetic: cell
    l <= K is the leftmost cell of substencil l, so the first K+1 cells fix
    the weights one at a time, each step reduced by a polynomial gcd.
    """
    stencils = [s] + [substencil(s, levels, k) for k in range(levels + 1)]
    big, *subs = [[RatFunction.from_poly(p) for p in basis(st).alpha_h] for st in stencils]
    width = len(subs[0])
    sigma = []
    for l, sub in enumerate(subs):
        rest = big[l]
        for k in range(max(0, l - width + 1), l):
            rest = rest - sigma[k] * subs[k][l - k]
        sigma.append(rest / sub[0])
    return WeightFamily(s, levels, tuple(sigma))


@cache
def sigma_level1_oracle(s: Stencil) -> tuple[RatFunction, RatFunction]:
    # one subdivision level: each weight is a ratio of an outer-node basis
    # polynomial of the big stencil to the matching one of its substencil
    big = basis(s)
    left = basis(substencil(s, 1, 0))
    right = basis(substencil(s, 1, 1))
    return (
        RatFunction(big.alpha_h[0], left.alpha_h[0]),
        RatFunction(big.alpha_h[-1], right.alpha_h[-1]),
    )


@cache
def sigma_family_recurrence_oracle(s: Stencil, levels: int) -> tuple[RatFunction, ...]:
    """Weight-functions of the K-fold subdivision by the convolution recurrence.

    A K-fold family is the (K-1)-fold family composed with one-fold splits
    of its substencils.
    """
    if levels == 1:
        return sigma_level1_oracle(s)
    prev = sigma_family_recurrence_oracle(s, levels - 1)
    out = []
    for k in range(levels + 1):
        acc = RatFunction.constant(0)
        for l in range(max(0, k - 1), min(levels - 1, k) + 1):
            acc = acc + prev[l] * sigma_level1_oracle(substencil(s, levels - 1, l))[k - l]
        out.append(acc)
    return tuple(out)


@cache
def sigma_half_recurrence_oracle(s: Stencil, levels: int) -> tuple[Fraction, ...]:
    """Linear weights by the same recurrence, run on face values only."""
    if levels == 1:
        num = face_coeffs(s)
        den_left = face_coeffs(substencil(s, 1, 0))
        den_right = face_coeffs(substencil(s, 1, 1))
        if den_left[0] == 0 or den_right[-1] == 0:
            raise InvariantError(f"face coefficient of a substencil of {s} vanished")
        return (num[0] / den_left[0], num[-1] / den_right[-1])
    prev = sigma_half_recurrence_oracle(s, levels - 1)
    out = []
    for k in range(levels + 1):
        acc = Fraction(0)
        for l in range(max(0, k - 1), min(levels - 1, k) + 1):
            acc += prev[l] * sigma_half_recurrence_oracle(substencil(s, levels - 1, l), 1)[k - l]
        out.append(acc)
    return tuple(out)


def sigma_half_hypergeometric_oracle(s: Stencil, levels: int) -> tuple[Fraction, ...]:
    """Linear weights as the hypergeometric law C(m_minus+1, k) C(m_plus, K-k) / C(M+1, K).

    Expected to hold inside the positivity condition m_minus >= 0,
    m_plus >= 1, K <= min(m_minus + 1, m_plus), where every term is positive
    and the terms sum to 1 by Vandermonde's identity; outside it the linear
    weights are something else.
    """
    total = comb(s.m + 1, levels)
    return tuple(
        Fraction(comb(s.m_minus + 1, k) * comb(s.m_plus, levels - k), total) for k in range(levels + 1)
    )


# ---------------------------------------------------------------------------
# pole census on rational Sturm chains
# ---------------------------------------------------------------------------


def _primitive_scaled(p: RatPoly) -> RatPoly:
    # positive rescaling only: Sturm sign variations must survive
    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    content = gcd(*ints)
    return RatPoly.of([Fraction(i, content) for i in ints])


def _sturm_chain(p: RatPoly) -> list[RatPoly]:
    chain = [p, p.derivative()]
    while True:
        _, r = poly_divmod_oracle(chain[-2], chain[-1])
        if r.is_zero:
            return chain
        chain.append(_primitive_scaled(-r))


def _sign_variations(chain: list[RatPoly], x: Fraction) -> int:
    signs = []
    for s in chain:
        v = poly_eval_oracle(s, x)
        if v != 0:
            signs.append(v > 0)
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def square_free_part_oracle(p) -> RatPoly:
    """p over its subresultant gcd with p', by the rational divmod, made monic."""
    p = as_poly(p)
    return poly_divmod_oracle(p, poly_gcd_subresultant_oracle(p, p.derivative()))[0].monic()


def sturm_count_oracle(p, a: Rational, b: Rational) -> int:
    """Distinct real roots of p in (a, b] from the rational Sturm chain."""
    p = as_poly(p)
    if p.degree == 0:
        return 0
    chain = _sturm_chain(square_free_part_oracle(p))
    return _sign_variations(chain, _rat(a)) - _sign_variations(chain, _rat(b))


def _isolate(p: RatPoly, lo: Fraction, hi: Fraction, count: int) -> list[tuple[Fraction, Fraction]]:
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    left = sturm_count_oracle(p, lo, mid)
    return _isolate(p, lo, mid, left) + _isolate(p, mid, hi, count - left)


def sigma_pole_analysis_rebuild_oracle(family: WeightFamily) -> tuple[PoleReport, ...]:
    """The pole census with the Sturm chain rebuilt for every count."""
    reports = []
    m_total = family.stencil.m
    for k, w in enumerate(family.weights):
        den = w.den
        for n in range(-m_total - 2, m_total + 3):
            if poly_eval_oracle(den, Fraction(2 * n + 1, 2)) == 0:
                raise InvariantError(
                    f"weight {k} of {family.stencil} has a pole at the cell interface {n}+1/2"
                )
        if den.degree == 0:
            reports.append(PoleReport(k, den, 0, ()))
            continue
        bound = cauchy_root_bound(den)
        count = sturm_count_oracle(den, -bound, bound)
        if count != den.degree:
            raise InvariantError(
                f"weight {k} of {family.stencil}: {count} real roots for degree {den.degree}"
            )
        reports.append(PoleReport(k, den, count, tuple(_isolate(den, -bound, bound, count))))
    return tuple(reports)


# ---------------------------------------------------------------------------
# gcd by the integer subresultant remainder sequence
# ---------------------------------------------------------------------------


def _primitive_ints(ints: list[int]) -> list[int]:
    content = gcd(*ints)
    sign = -1 if ints[-1] < 0 else 1
    return [i // (sign * content) for i in ints]


def _exact_int_div(c: int, d: int) -> int:
    q, rem = divmod(c, d)
    if rem:
        raise InvariantError("subresultant division was not exact")
    return q


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced modulo b."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    # one step per degree from deg a down to deg b, zero leads included
    for k in reversed(range(len(a) - db)):
        lead = r.pop()
        r = [lb * c for c in r]
        for j in range(db):
            r[k + j] -= lead * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Subresultant polynomial remainder sequence over the integers.

    The divisor choices keep intermediate coefficients polynomially bounded,
    which is what makes weight-function reduction tractable for wide stencils.
    """
    if len(a) < len(b):
        a, b = b, a
    a = _primitive_ints(a)
    b = _primitive_ints(b)
    g = h = 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        r = _prem(a, b)
        if not r:
            return _primitive_ints(b)
        if len(r) == 1:
            return [1]
        div = g * h**delta
        a, b = b, [_exact_int_div(c, div) for c in r]
        g = a[-1]
        if delta:
            h = _exact_int_div(g**delta, h ** (delta - 1))


def poly_gcd_subresultant_oracle(p, q) -> RatPoly:
    """Monic gcd over the rationals by the subresultant remainder sequence."""
    p, q = as_poly(p), as_poly(q)
    if p.is_zero and q.is_zero:
        return RatPoly()
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.degree == 0 or q.degree == 0:
        return RatPoly.constant(1)
    return RatPoly.of(_int_poly_gcd(_int_coeffs(p), _int_coeffs(q))).monic()
