"""Truncation-error polynomials, substencil weight-functions, and smoothness forms.

The reconstruction and interpolation errors of a stencil admit exact
expansions in powers of the cell width: mu polynomials weight derivatives at
the pivot, lambda polynomials weight derivatives at the evaluation point, and
the constants Lambda = lambda_h(1/2) govern the face-value error.  Lambda
is one integer moment of the slopes at xi = 1/2 of the face cardinals, the
vector whose suffix sums are the face coefficients.

All four error polynomials are the unreproduced part of one function under
one integer kernel, the remainders x^j mod a monic node polynomial, each
one step from the last.  On the M+1 cells, with e_j = xi^j - (xi^j mod
omega), they are the interpolation errors of x^n/n! and (x - xi)^n/n!:

    mu_f(s, n) = -e_n/n!,
    lambda_f(s, n) = -(1/n!) sum_{j=M+1}^{n} C(n, j) (-xi)^(n-j) e_j.

The reconstruction is the derivative of the interpolant of the primitive on
the M+2 faces, the odd integers u = 2x; with R_j = u^j mod the face
polynomial and E_j = d/dxi [xi^j - R_j(2 xi)/2^j], its errors come from the
primitives sum_k tau_k x^(n+1-k)/(n+1-k)!, of the field averaging to
x^n/n!, and (x - xi)^(n+1)/(n+1)!, of the Taylor term of h about xi:

    mu_h(s, n) = -sum_{j=M+2}^{n+1} tau_(n+1-j)/j! E_j,
    lambda_h(s, n) = -(1/(n+1)!) sum_{j=M+2}^{n+1} C(n+1, j) (-xi)^(n+1-j) E_j.

e_j and E_j vanish below the number of nodes, and no basis, inverse
Vandermonde matrix, deconvolution or polynomial product is built.

A stencil of M+1 cells splits into K+1 overlapping substencils of M-K+1
cells each.  The rational weight-functions sigma combine the substencil
reconstructing polynomials exactly into the big-stencil one; their values at
xi = 1/2 are the classical linear weights of weighted essentially
non-oscillatory schemes.  The linear weights come from one triangular solve
of that identity on the face coefficients: cell l <= K is the leftmost cell
of substencil l, so the first K+1 cells fix the weights one at a time.  The
weight denominators come in closed form from the right faces of the
substencil cells; on a uniform grid the face solve on a shifted window gives
sigma at every cell interface, so all numerators are interpolated from the
same first interfaces in integers, and every weight is certified at all the
others sampled, enough to prove it exact.  Sturm counting certifies that
every weight denominator has only real roots, and the Jiang-Shu smoothness
indicator is assembled as an exact quadratic form in the cell values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, perm
from operator import mul

from .exact import (
    InvariantError,
    RatFunction,
    RatPoly,
    Rational,
    ValidationError,
    _common_denominator,
    _homogeneous_eval,
    _int,
    _int_sturm_chain,
    _memo,
    _positive_primitive,
    _rat,
    _sturm_variations,
    _tuple,
    cauchy_root_bound,
)
from .deconv import tau
from .recon import _face_weights, basis, face_coeffs
from .vandermonde import (
    CoeffTable,
    Stencil,
    _cardinals,
    _faces,
    _node_poly,
    _power_remainders,
    _stencil,
)

__all__ = [
    "ErrorExpansion",
    "Lambda",
    "PoleReport",
    "PositivityRow",
    "SmoothnessForm",
    "WeightFamily",
    "beta_form",
    "error_expansion",
    "lambda_f",
    "lambda_h",
    "mu_f",
    "mu_h",
    "positivity_scan",
    "sigma_pole_analysis",
    "sigma_values_at_half",
    "sigma_weights",
    "substencil",
]

#: Orders kept in an expansion when no cutoff is given: M+1 .. M+DEFAULT_MARGIN.
DEFAULT_MARGIN = 5


def _require_expansion_order(s: Stencil, order: int) -> None:
    _stencil(s)
    _int(order, "expansion order must be an integer")
    if order <= s.m:
        raise ValidationError(
            f"error terms of stencil {s} vanish identically below order {s.m + 1}"
        )


def _unreproduced(nodes: range, n: int, terms, d: int) -> list[int]:
    # -sum c x^shift e_j over the (j, c, shift) terms, e_j = x^j - (x^j mod
    # omega) or, for d = 1, its derivative, as integer coefficients of
    # x^0 .. x^(n - d), with shift + j <= n; e_j = 0 below the number of
    # nodes, which the interpolant reproduces
    rems = _power_remainders(nodes, n)
    acc = [0] * (n + 1 - d)
    for j, c, shift in terms:
        if j < len(nodes):
            continue
        acc[shift + j - d] -= c * j**d
        for i, r in enumerate(rems[j][d:], d):
            acc[shift + i - d] += c * i**d * r
    return acc


def _binomial_terms(n: int) -> list[tuple[int, int, int]]:
    # (x - xi)^n = sum_j C(n, j) (-xi)^(n-j) x^j
    return [(j, (-1) ** (n - j) * comb(n, j), n - j) for j in range(n + 1)]


def _in_xi(coeffs: list[int], den: int) -> RatPoly:
    # p(u)/den with u = 2 xi: coefficient m scales by 2^m
    return RatPoly.of(Fraction(c << m, den) for m, c in enumerate(coeffs))


def _mu_f_any(s: Stencil, order: int) -> RatPoly:
    # no floor check: below M+1 x^order is its own interpolant, so this is
    # the zero polynomial, which is exactly the property the tests pin down
    acc = _unreproduced(s.offsets(), order, [(order, 1, 0)], 0)
    return RatPoly.of(Fraction(a, factorial(order)) for a in acc)


def _mu_h_any(s: Stencil, order: int) -> RatPoly:
    # E_j weighs tau_(n+1-j)/j! = T_(n+1-j) (n+1)!/j! 2^(n+1-j) over
    # (n+1)! 2^n dt in u = 2 xi, with tau = T/dt; below order M+1 the faces
    # reproduce Phi, and this is zero, as above
    ts, dt = _common_denominator([tau(k) for k in range(order - s.m)])
    top = factorial(order + 1)
    terms = [
        (j, (ts[order + 1 - j] * (top // factorial(j))) << (order + 1 - j), 0)
        for j in range(s.m + 2, order + 2)
    ]
    return _in_xi(_unreproduced(_faces(s), order + 1, terms, 1), (top << order) * dt)


@_memo
def mu_f(s: Stencil, order: int) -> RatPoly:
    """Pivot-derivative error polynomial of the interpolant.

    The interpolation error on the stencil is sum_{n > M} mu_f(s, n)(xi)
    dx^n f^(n) at the pivot;  mu_f(s, n) = (1/n!)(-xi^n + sum_m nu_{m,n} xi^m)
    has degree exactly n; the sum is xi^n mod the stencil's node polynomial.
    """
    _require_expansion_order(s, order)
    return _mu_f_any(s, order)


@_memo
def mu_h(s: Stencil, order: int) -> RatPoly:
    """Pivot-derivative error polynomial of the reconstruction.

    The averaged field's Taylor term x^n/n! is the sliding average of
    Phi_n', Phi_n(x) = B_(n+1)(x + 1/2)/(n+1)! = sum_k tau_k
    x^(n+1-k)/(n+1-k)!, and the reconstruction differentiates the face
    interpolant I of the primitive, so mu_h(s, n) = -d/dxi [Phi_n - I Phi_n]
    = -sum_{j=M+2}^{n+1} tau_(n+1-j)/j! E_j in the kernel of `lambda_h`,
    in integers; degree exactly n.  It is the deconvolution
    (`pair_h_from_f`) of mu_f(s, n).
    """
    _require_expansion_order(s, order)
    return _mu_h_any(s, order)


@_memo
def lambda_h(s: Stencil, order: int) -> RatPoly:
    """Local-derivative error polynomial of the reconstruction.

    With the face cardinals L_q and n = order,

        lambda_h(s, n)(xi) = sum_q L_q'(xi) (x_q - xi)^(n+1) / (n+1)!
            = -(1/(n+1)!) sum_{j=M+2}^{n+1} C(n+1, j) (-xi)^(n+1-j) E_j(xi),

    the slope at xi of the face interpolant of the primitive of the Taylor
    term (x - xi)^n/n!, which vanishes there.  The binomial sum of the bare
    xi^j is the derivative of (x - xi)^(n+1) at x = xi, zero, and E_j = 0
    for j <= M+1: those terms drop.  The sum is formed in integers scaled by
    2^n (n+1)!.  The leading term lambda_h(s, M+1) equals mu_h(s, M+1).
    """
    _require_expansion_order(s, order)
    acc = _unreproduced(_faces(s), order + 1, _binomial_terms(order + 1), 1)
    return _in_xi(acc, factorial(order + 1) << order)


@_memo
def lambda_f(s: Stencil, order: int) -> RatPoly:
    """Local-derivative error polynomial of the interpolant.

    Each sample f(l) is the Taylor series of f about xi evaluated at l, so
    with the cell cardinals alpha_f,l and n = order,

        lambda_f(s, n)(xi) = sum_l alpha_f,l(xi) (l - xi)^n / n!
            = -(1/n!) sum_{j=M+1}^{n} C(n, j) (-xi)^(n-j) e_j(xi).

    The binomial sum of the bare xi^j is (xi - xi)^n = 0, and e_j = 0 for
    j <= M: those terms drop.  The sum is formed in integers over n!.
    """
    _require_expansion_order(s, order)
    acc = _unreproduced(s.offsets(), order, _binomial_terms(order), 0)
    return RatPoly.of(Fraction(a, factorial(order)) for a in acc)


def Lambda(s: Stencil, order: int) -> Fraction:
    """Face-error constant: lambda_h evaluated exactly at xi = 1/2.

    The reconstructed face value satisfies
    h_{i+1/2} approx = h(x_{i+1/2}) + sum_{n > M} Lambda(s, n) dx^n h^(n),
    with the h-derivatives taken at the face.  At xi = 1/2 the sum over the
    face cardinals in `lambda_h` is one integer moment of their slopes
    omega_q, no polynomial built: Lambda(s, n) = sum_q omega_q
    (q - m_minus - 1)^(n+1)/(n+1)!, the face value rebuilt from the cell
    averages of (x - 1/2)^n/n!.
    """
    _require_expansion_order(s, order)
    moment = sum(w * j ** (order + 1) for j, w in enumerate(_face_weights(s), -s.m_minus - 1))
    return Fraction(moment, factorial(s.m + 1) * factorial(order + 1))


@dataclass(frozen=True)
class ErrorExpansion:
    """Error polynomials of one stencil, keyed by order M+1 .. n_max.

    kind is "f" or "h" for the pivot-derivative expansions and "lambda-f" or
    "lambda-h" for the local-derivative ones.
    """

    stencil: Stencil
    kind: str
    terms: tuple[tuple[int, RatPoly], ...]

    def __post_init__(self) -> None:
        _stencil(self.stencil)
        _expansion_kind(self.kind)
        message = "expansion terms must be (order, RatPoly) pairs"
        terms = tuple(_tuple(t, message) for t in _tuple(self.terms, message))
        for t in terms:
            if len(t) != 2 or not isinstance(t[1], RatPoly):
                raise ValidationError(message)
            _int(t[0], message)
        object.__setattr__(self, "terms", terms)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.terms)

    def term(self, order: int) -> RatPoly:
        for n, p in self.terms:
            if n == order:
                return p
        raise ValidationError(f"order {order} not stored (have {self.orders})")


_EXPANSION_BUILDERS = {
    "f": mu_f,
    "h": mu_h,
    "lambda-f": lambda_f,
    "lambda-h": lambda_h,
}


def _expansion_kind(kind: object) -> None:
    if not isinstance(kind, str) or kind not in _EXPANSION_BUILDERS:
        raise ValidationError(f"kind must be one of {sorted(_EXPANSION_BUILDERS)}")


def error_expansion(s: Stencil, kind: str, n_max: "int | None" = None) -> ErrorExpansion:
    """All error polynomials of one kind through order n_max (default M+5)."""
    _stencil(s)
    _expansion_kind(kind)
    if n_max is None:
        n_max = s.m + DEFAULT_MARGIN
    _require_expansion_order(s, n_max)
    build = _EXPANSION_BUILDERS[kind]
    return ErrorExpansion(
        s, kind, tuple((n, build(s, n)) for n in range(s.m + 1, n_max + 1))
    )


# ---------------------------------------------------------------------------
# substencil weight-functions
# ---------------------------------------------------------------------------


def substencil(s: Stencil, levels: int, k: int) -> Stencil:
    """Substencil k of the K-fold subdivision; k = 0 is the leftmost."""
    _stencil(s)
    _int(levels, "subdivision level must be an integer")
    _int(k, f"substencil index {k} outside 0..{levels}", lo=0, hi=levels)
    return Stencil(s.m_minus - k, s.m_plus - levels + k)


def _check_subdivision(s: Stencil, levels: int) -> None:
    _stencil(s)
    _int(levels, "subdivision level must be an integer")
    if s.m < 2:
        raise ValidationError("subdivision needs a stencil of at least three cells")
    if not 1 <= levels <= s.m - 1:
        raise ValidationError(
            f"subdivision level {levels} outside 1..{s.m - 1} for stencil {s}"
        )


@dataclass(frozen=True)
class WeightFamily:
    """The K+1 rational weight-functions of a K-fold stencil subdivision.

    weights[k] belongs to substencil(stencil, levels, k).  Any iterable of
    K+1 RatFunction is stored as a tuple and must sum to the constant 1.
    """

    stencil: Stencil
    levels: int
    weights: tuple[RatFunction, ...]

    def __post_init__(self) -> None:
        _check_subdivision(self.stencil, self.levels)
        weights = _tuple(self.weights, "weight family must hold levels + 1 RatFunction members")
        if len(weights) != self.levels + 1 or not all(isinstance(w, RatFunction) for w in weights):
            raise ValidationError("weight family must hold levels + 1 RatFunction members")
        object.__setattr__(self, "weights", weights)
        if sum(weights, RatFunction.constant(0)) != RatFunction.constant(1):
            raise InvariantError(f"weights of {self.stencil} at {self.levels} levels do not sum to 1")

    def values_at(self, xi: Rational) -> tuple[Fraction, ...]:
        return tuple(w(xi) for w in self.weights)


def _solve_weights(s: Stencil, big, subs) -> tuple:
    # big[l] = sum_k sigma_k subs[k][l - k] for every cell l, as substencil k
    # covers cells k .. k + M - K.  Cell l <= K lies in substencils
    # max(0, l - M + K) .. l and is the leftmost cell of substencil l, so the
    # first K + 1 equations fix the weights one at a time, here on the
    # coefficients at one point xi.
    width = len(subs[0])
    sigma = []
    for l, sub in enumerate(subs):
        if sub[0] == 0:
            raise InvariantError(f"leftmost coefficient of substencil {l} of {s} vanished")
        rest = big[l]
        for k in range(max(0, l - width + 1), l):
            rest = rest - sigma[k] * subs[k][l - k]
        sigma.append(rest / sub[0])
    return tuple(sigma)


def _interpolate(cards: list[tuple[list[int], int]], values) -> tuple[list[int], int]:
    # the polynomial in u through the values at the nodes of the cardinals,
    # as integer coefficients over one common denominator
    nums, den = _common_denominator([v / w for v, (_, w) in zip(values, cards)])
    coeffs = [0] * len(cards)
    for c, (q, _) in zip(nums, cards):
        if c:
            coeffs = [a + c * b for a, b in zip(coeffs, q)]
    return coeffs, den


@_memo
def sigma_weights(s: Stencil, levels: int) -> WeightFamily:
    """Weight-functions sigma of the K-fold subdivision, fully reduced.

    sigma_k solves alpha_h,l = sum_k sigma_k * (alpha_h of substencil k at
    that cell) over the first K+1 cells.  The denominators are den_k =
    D_(k-1) D_k with D_(-1) = D_K = 1, where D_j, the leftmost alpha_h of
    substencil j, on M'+1 cells is (-1)^M' P'(xi)/(M'+1)!, P(xi) = prod_l
    (xi - l - 1/2) over the right faces of the cells, so by Rolle's theorem
    no cell interface is a root.  No basis is built: sigma at the interface
    xi = t + 1/2 is `sigma_values_at_half` of the window shifted by t, for
    t = 0, -1, 1, -2, ....  Every N_k = sigma_k den_k has degree at most
    deg den_k + K, so all of them are interpolated in u = 2 xi at the same
    first max_k deg den_k + K + 1 odd integers, in integers.  By the solve,
    sigma_k D_0 ... D_k and N_k D_0 ... D_k / den_k are polynomials of
    degree at most B_K = K + (K+1)(M-K) for every k, so their agreement at
    B_K + 1 interfaces proves each weight: every weight is checked at every
    sampled interface past the fitted ones, and a miss is an InvariantError.
    Valid for M >= 2 and 1 <= levels <= M-1.
    """
    _check_subdivision(s, levels)
    width = s.m - levels
    # the B_K + 1 interfaces of the certificate
    shifts = [(-1) ** i * ((i + 1) // 2) for i in range(levels + (levels + 1) * width + 1)]
    nodes = [2 * t + 1 for t in shifts]
    values = [sigma_values_at_half(Stencil(s.m_minus + t, s.m_plus - t), levels) for t in shifts]

    # D_(-1) = 1, D_0 .. D_(K-1), D_K = 1
    factors = [[1]]
    for j in range(levels):
        # P'(u) with P(u) vanishing on the right faces of the cells of substencil j
        faces = _node_poly(_faces(substencil(s, levels, j))[1:])
        factors.append(_positive_primitive([m * c for m, c in enumerate(faces)][1:]))
    factors.append([1])
    # each factor, then each denominator D_(k-1) D_k, with its values at the nodes
    pairs = [(_in_xi(d, 1), [_homogeneous_eval(d, u, 1) for u in nodes]) for d in factors]
    dens = [(a * b, list(map(mul, x, y))) for (a, x), (b, y) in zip(pairs, pairs[1:])]

    # the first n interfaces fit every N_k, the rest certify every weight
    n = max(den.degree for den, _ in dens) + levels + 1
    cards = _cardinals(nodes[:n])
    weights = []
    for k, (den, den_at) in enumerate(dens):
        num, scale = _interpolate(cards, [v[k] * d for v, d in zip(values[:n], den_at)])
        for i in range(n, len(nodes)):
            p, q = values[i][k].as_integer_ratio()
            if _homogeneous_eval(num, nodes[i], 1) * q != p * scale * den_at[i]:
                raise InvariantError(
                    f"interface certificate: weight {k} of {s} at {levels} levels "
                    f"misses its value at xi = {Fraction(nodes[i], 2)}"
                )
        weights.append(RatFunction(_in_xi(num, scale), den))
    return WeightFamily(s, levels, tuple(weights))


@_memo
def sigma_values_at_half(s: Stencil, levels: int) -> tuple[Fraction, ...]:
    """The linear weights: sigma evaluated at xi = 1/2 without symbolic algebra.

    Solves the first K+1 cell equations on the face coefficients of the
    stencil and of its K+1 substencils, so wide positivity scans stay cheap;
    `sigma_weights` samples this solve at every cell interface.  The
    weights are checked to sum to 1, which holds only if the residuals of
    the other M-K cell equations sum to zero.
    """
    _check_subdivision(s, levels)
    subs = [face_coeffs(substencil(s, levels, k)) for k in range(levels + 1)]
    vals = _solve_weights(s, face_coeffs(s), subs)
    if sum(vals) != 1:
        raise InvariantError(f"face weights of {s} at {levels} levels do not sum to 1")
    return vals


# ---------------------------------------------------------------------------
# pole analysis and positivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleReport:
    """Real-root census of one weight-function denominator."""

    k_s: int
    denominator: RatPoly
    real_root_count: int
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]


def _isolate(
    chain: list[list[int]], lo: Fraction, hi: Fraction, v_lo: int, v_hi: int
) -> list[tuple[Fraction, Fraction]]:
    # the sign variations at both ends come in, so only the midpoint is new
    count = v_lo - v_hi
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    v_mid = _sturm_variations(chain, mid)
    return _isolate(chain, lo, mid, v_lo, v_mid) + _isolate(chain, mid, hi, v_mid, v_hi)


def sigma_pole_analysis(family: WeightFamily) -> tuple[PoleReport, ...]:
    """Certify that every weight denominator has only real roots.

    For each weight: Sturm-count the distinct real roots over a Cauchy bound
    interval, require the count to equal the denominator degree (all roots
    real and simple), and bisect down to isolating intervals (lo, hi], one
    root each.  Denominators are also checked to be nonzero at every cell
    interface xi = n + 1/2 in the window |n| <= M + 2; a fully cancelled
    polynomial weight is reported with zero poles.  Each nonconstant
    denominator gets one integer Sturm chain, whose first entry, the
    square-free part, also serves the interface check.
    """
    if not isinstance(family, WeightFamily):
        raise ValidationError(f"expected a WeightFamily, got {type(family).__name__}")
    reports = []
    m_total = family.stencil.m
    for k, w in enumerate(family.weights):
        den = w.den
        if den.degree == 0:
            reports.append(PoleReport(k, den, 0, ()))
            continue
        where = f"weight {k} of {family.stencil} at {family.levels} levels"
        chain = _int_sturm_chain(den)
        for n in range(-m_total - 2, m_total + 3):
            if _homogeneous_eval(chain[0], 2 * n + 1, 2) == 0:
                raise InvariantError(f"{where} has a pole at the cell interface {n}+1/2")
        bound = cauchy_root_bound(den)
        v_lo, v_hi = _sturm_variations(chain, -bound), _sturm_variations(chain, bound)
        count = v_lo - v_hi
        if count != den.degree:
            raise InvariantError(f"{where}: {count} real roots for degree {den.degree}")
        reports.append(PoleReport(k, den, count, tuple(_isolate(chain, -bound, bound, v_lo, v_hi))))
    return tuple(reports)


@dataclass(frozen=True)
class PositivityRow:
    """One scanned configuration and whether all its linear weights are positive."""

    stencil: Stencil
    levels: int
    in_condition: bool
    all_positive: bool


def positivity_scan(max_extent: int) -> tuple[PositivityRow, ...]:
    """Evaluate every subdivision's linear weights exactly and flag positivity.

    Covers all stencils with |m_minus|, |m_plus| <= max_extent and every
    subdivision level.  in_condition marks the sufficient condition
    m_minus >= 0, m_plus >= 1, levels <= min(m_minus + 1, m_plus), under
    which all weights are expected positive; configurations outside it are
    reported without any claim.  Extents above 9 are not covered by the
    positivity result and are rejected.
    """
    _int(max_extent, "positivity scans cover extents 0..9 only", lo=0, hi=9)
    rows = []
    for mm in range(-max_extent, max_extent + 1):
        for mp in range(-max_extent, max_extent + 1):
            if mm + mp < 2:
                continue
            st = Stencil(mm, mp)
            for levels in range(1, st.m):
                vals = sigma_values_at_half(st, levels)
                in_cond = mm >= 0 and mp >= 1 and levels <= min(mm + 1, mp)
                rows.append(PositivityRow(st, levels, in_cond, all(v > 0 for v in vals)))
    return tuple(rows)


# ---------------------------------------------------------------------------
# smoothness indicator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothnessForm:
    """Jiang-Shu smoothness indicator as an exact quadratic form.

    beta = c^T B c where c holds the cell values on the stencil and B sums
    the integrals of squared reconstructing-polynomial derivatives.  B is
    symmetric, positive semidefinite, and annihilates constant fields.
    """

    stencil: Stencil
    matrix: CoeffTable
    face_centered: bool = False

    def __post_init__(self) -> None:
        _stencil(self.stencil)
        _face_flag(self.face_centered)
        if not isinstance(self.matrix, CoeffTable):
            raise ValidationError(f"expected a CoeffTable, got {type(self.matrix).__name__}")
        n = self.stencil.m + 1
        if self.matrix.rows != n or self.matrix.cols != n:
            raise ValidationError("smoothness matrix shape must match the stencil")
        if not self.matrix.is_symmetric:
            raise InvariantError(f"smoothness form of {self.stencil} is not symmetric")
        for i in range(n):
            if sum(_common_denominator(self.matrix.row(i))[0]) != 0:
                raise InvariantError(f"smoothness form of {self.stencil} does not annihilate constants")

    def value(self, cells: "tuple[Rational, ...] | list[Rational]") -> Fraction:
        n = self.stencil.m + 1
        vals = [_rat(c) for c in _tuple(cells, f"expected {n} cell values")]
        if len(vals) != n:
            raise ValidationError(f"expected {n} cell values, got {len(vals)}")
        acc = Fraction(0)
        for i in range(n):
            for j in range(n):
                acc += vals[i] * self.matrix[i, j] * vals[j]
        return acc


def _face_flag(face_centered: object) -> None:
    if not isinstance(face_centered, bool):
        raise ValidationError(f"face_centered must be a bool, got {type(face_centered).__name__}")


def beta_form(s: Stencil, face_centered: bool = False) -> SmoothnessForm:
    """The smoothness-indicator matrix of a stencil.

    B[l][l'] = sum_{k=1}^{M} integral of alpha_h,l^(k) * alpha_h,l'^(k) over
    one cell.  The integration interval is the pivot cell xi in [-1/2, 1/2];
    pass face_centered=True for the variant over xi in [0, 1].

    No polynomial is multiplied: B = A^T H A, where column l of A holds the
    coefficients of alpha_h,l and H is the Gram matrix of the monomials,
    H[a][b] = sum_{k=1}^{min(a,b)} a!/(a-k)! b!/(b-k)! (hi^e - lo^e)/e with
    e = a + b - 2k + 1.  A and H each go over one common denominator, H A
    and then A^T (H A) are formed in integers, and each entry becomes one
    `Fraction` at the end.
    """
    _stencil(s)
    _face_flag(face_centered)
    if s.m < 1:
        raise ValidationError("smoothness forms need at least two cells")
    # the interval is [lo, hi] / scale with integer ends
    lo, hi, scale = (0, 1, 1) if face_centered else (-1, 1, 2)
    # basis checks that every alpha_h,l has degree M: n coefficients each
    n = s.m + 1
    nums, den_a = _common_denominator([c for p in basis(s).alpha_h for c in p.coeffs])
    cols = [nums[i : i + n] for i in range(0, len(nums), n)]
    top = 2 * s.m - 1
    den_h = lcm(*range(1, top + 1)) * scale**top
    gram = [[0] * n for _ in range(n)]
    for a in range(1, n):
        for b in range(1, n):
            for k in range(1, min(a, b) + 1):
                e = a + b - 2 * k + 1
                gram[a][b] += perm(a, k) * perm(b, k) * (hi**e - lo**e) * (den_h // (e * scale**e))
    # column j of H A, then entry (i, j) of A^T (H A)
    gram_a = [[sum(map(mul, row, col)) for row in gram] for col in cols]
    den = den_a * den_a * den_h
    rows = [[Fraction(sum(map(mul, ci, gj)), den) for gj in gram_a] for ci in cols]
    return SmoothnessForm(s, CoeffTable.of(rows), face_centered)
