"""Exact checks of library results by routes independent of the timed calls.

Every check here rebuilds what it needs from first principles (cell averages
of monomials, Lagrange interpolation of the primitive on cell faces,
Bernoulli numbers) and never calls back into the library's own construction
route for the object under test.  Each check returns None when the result is
right and a short reason string when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

HALF = Fraction(1, 2)


class Memo:
    """Benchmark-owned tables shared by the checks of one session."""

    def __init__(self) -> None:
        self._bernoulli = [Fraction(1)]
        self._avg: dict[tuple[int, int], Fraction] = {}

    def bernoulli(self, n: int) -> Fraction:
        """B_n with B_1 = +1/2, by the Akiyama-Tanigawa triangle."""
        while len(self._bernoulli) <= n:
            m_max = len(self._bernoulli)
            row = [Fraction(1, k + 1) for k in range(m_max + 1)]
            for m in range(m_max, 0, -1):
                for j in range(m):
                    row[j] = (j + 1) * (row[j] - row[j + 1])
            self._bernoulli.append(row[0])
        return self._bernoulli[n]

    def cell_average(self, cell: int, degree: int) -> Fraction:
        """Average of x^degree over the unit cell centred on `cell`."""
        key = (cell, degree)
        if key not in self._avg:
            hi = Fraction(2 * cell + 1, 2) ** (degree + 1)
            lo = Fraction(2 * cell - 1, 2) ** (degree + 1)
            self._avg[key] = (hi - lo) / (degree + 1)
        return self._avg[key]


def tau_reference(memo: Memo, n: int) -> Fraction:
    """tau_n from Bernoulli numbers: tau_2k = (2^(1-2k) - 1) B_2k / (2k)!."""
    if n % 2:
        return Fraction(0)
    return (Fraction(2) ** (1 - n) - 1) * memo.bernoulli(n) / factorial(n)


def poly_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a, b) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_derivative(a) -> list[Fraction]:
    return [m * a[m] for m in range(1, len(a))]


def trim(a) -> list[Fraction]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_cell_average(memo: Memo, coeffs, cell: int) -> Fraction:
    return sum((c * memo.cell_average(cell, d) for d, c in enumerate(coeffs)), Fraction(0))


def face_weights(offsets, xi: Fraction = HALF) -> list[Fraction]:
    """Cell-average weights of the reconstruction at xi, by Lagrange on faces.

    The primitive P of the reconstruction interpolates the running sums of
    the cell averages at the M+2 unit-spaced cell faces, so p_h(xi) = P'(xi)
    is a fixed combination of the averages.  O(M^2) exact arithmetic, no
    Vandermonde inversion and no tau numbers.
    """
    n = len(offsets) + 1
    nodes = [Fraction(2 * (offsets[0] + j) - 1, 2) for j in range(n)]
    # prod_{k != j} (x_j - x_k) on unit-spaced nodes
    dens = [(-1) ** (n - 1 - j) * factorial(j) * factorial(n - 1 - j) for j in range(n)]
    gaps = [xi - x for x in nodes]
    if 0 in gaps:
        i = gaps.index(0)
        others = Fraction(1)
        for k in range(n):
            if k != i:
                others *= gaps[k]
        dl = [
            sum((1 / (nodes[i] - nodes[k]) for k in range(n) if k != i), Fraction(0))
            if j == i
            else others / (nodes[i] - nodes[j]) / dens[j]
            for j in range(n)
        ]
    else:
        full = Fraction(1)
        for g in gaps:
            full *= g
        inv_sum = sum((1 / g for g in gaps), Fraction(0))
        dl = [full / gaps[j] / dens[j] * (inv_sum - 1 / gaps[j]) for j in range(n)]
    # P(face_j) sums the first j averages, so average i carries the
    # derivative weights of every face to its right
    out = []
    acc = Fraction(0)
    for j in range(n - 1, 0, -1):
        acc += dl[j]
        out.append(acc)
    return out[::-1]


def check_tau(memo: Memo, values) -> "str | None":
    for n, v in enumerate(values):
        if v != tau_reference(memo, n):
            return f"tau({n}) disagrees with the Bernoulli route"
    return None


def check_inverse_vandermonde(offsets, vinv) -> "str | None":
    n = len(offsets)
    for i in range(n):
        for k in range(n):
            acc = sum((vinv[i, p] * Fraction(offsets[p]) ** k for p in range(n)), Fraction(0))
            if acc != (1 if i == k else 0):
                return f"inv_vandermonde * V differs from I at ({i},{k})"
    return None


def check_basis(memo: Memo, offsets, b) -> "str | None":
    for l, (pf, ph) in enumerate(zip(b.alpha_f, b.alpha_h)):
        for j, node in enumerate(offsets):
            want = 1 if l == j else 0
            if poly_value(pf.coeffs, Fraction(node)) != want:
                return f"alpha_f[{l}] is not cardinal at node {node}"
            if poly_cell_average(memo, ph.coeffs, node) != want:
                return f"alpha_h[{l}] is not cardinal on cell {node}"
    return None


def check_face_coeffs(memo: Memo, offsets, fc, degree: int) -> "str | None":
    if len(fc) != len(offsets):
        return "face coefficient vector has the wrong length"
    for d in range(degree + 1):
        got = sum((c * memo.cell_average(node, d) for c, node in zip(fc, offsets)), Fraction(0))
        if got != HALF**d:
            return f"face coefficients do not reproduce x^{d}"
    return None


def check_error_expansions(memo: Memo, offsets, b, exp_h, exp_lh) -> "str | None":
    """Reconstruct x^(M+1) and x^(M+2) from exact averages; the error must be
    sum_n lambda_h(s, n)(xi) h^(n)(xi), and mu_h(M+1) = lambda_h(M+1)."""
    m = len(offsets) - 1
    lam1 = list(exp_lh.term(m + 1).coeffs)
    lam2 = list(exp_lh.term(m + 2).coeffs)
    if trim(exp_h.term(m + 1).coeffs) != trim(lam1):
        return "leading mu_h and lambda_h terms differ"
    for extra in (1, 2):
        d = m + extra
        recon = [Fraction(0)] * (m + 1)
        for ph, node in zip(b.alpha_h, offsets):
            w = memo.cell_average(node, d)
            for k, c in enumerate(ph.coeffs):
                recon[k] += w * c
        err = recon + [Fraction(0)] * (d + 1 - len(recon))
        err[d] -= 1
        if extra == 1:
            want = [c * factorial(d) for c in lam1]
        else:
            # h^(M+1)(xi) = (M+2)! xi and h^(M+2)(xi) = (M+2)!
            want = [Fraction(0)] + [c * factorial(d) for c in lam1]
            want += [Fraction(0)] * (len(lam2) - len(want))
            for k, c in enumerate(lam2):
                want[k] += c * factorial(d)
        if trim(err) != trim(want):
            return f"reconstruction error of x^{d} disagrees with lambda_h"
    return None


def check_beta(memo: Memo, offsets, form, q) -> "str | None":
    """c^T B c = sum_k integral of (q^(k))^2 over the pivot cell when c are
    the averages of a polynomial q of degree <= M."""
    cells = [poly_cell_average(memo, q, node) for node in offsets]
    want = Fraction(0)
    d = list(q)
    for _ in range(len(offsets) - 1):
        d = poly_derivative(d)
        sq = poly_mul(d, d)
        want += sum((c * (HALF ** (k + 1) - (-HALF) ** (k + 1)) / (k + 1) for k, c in enumerate(sq)), Fraction(0))
    n = len(cells)
    got = sum((cells[i] * form.matrix[i, j] * cells[j] for i in range(n) for j in range(n)), Fraction(0))
    if got != want:
        return "smoothness form disagrees with the direct integral"
    return None


def sigma_half_reference(offsets, levels: int) -> "list[Fraction] | None":
    """Linear weights by forward substitution on Lagrange face weights.

    Solves sum_k sigma_k w(sub_k) = w(stencil) row by row from the left edge,
    then verifies the remaining rows.  None when the system has no solution.
    """
    big = face_weights(offsets)
    m = len(offsets) - 1
    subs = [face_weights(offsets[k : k + m - levels + 1]) for k in range(levels + 1)]
    sigma: list[Fraction] = []
    for j in range(levels + 1):
        # row j holds substencils 0..j; substencil j enters at its left edge
        first = max(0, j - (m - levels))
        rest = big[j] - sum((sigma[k] * subs[k][j - k] for k in range(first, j)), Fraction(0))
        if subs[j][0] == 0:
            return None
        sigma.append(rest / subs[j][0])
    for row in range(m + 1):
        acc = sum(
            (sigma[k] * subs[k][row - k] for k in range(levels + 1) if 0 <= row - k <= m - levels),
            Fraction(0),
        )
        if acc != big[row]:
            return None
    return sigma


def check_sigma_half(offsets, levels: int, values) -> "str | None":
    ref = sigma_half_reference(offsets, levels)
    if ref is None or list(values) != ref:
        return "linear weights disagree with the Lagrange route"
    return None


def check_weight_family(offsets, levels: int, family, at_half, probes) -> "str | None":
    """sum_k sigma_k(xi) p_h^(k)(xi) = p_h(xi) for every cell datum, at each
    probe xi where no weight has a pole; values at 1/2 by the Lagrange route."""
    err = check_sigma_half(offsets, levels, at_half)
    if err:
        return err
    m = len(offsets) - 1
    for xi in probes:
        if any(poly_value(w.den.coeffs, xi) == 0 for w in family.weights):
            continue
        big = face_weights(offsets, xi)
        combined = [Fraction(0)] * (m + 1)
        for k, w in enumerate(family.weights):
            sk = w(xi)
            for j, c in enumerate(face_weights(offsets[k : k + m - levels + 1], xi)):
                combined[k + j] += sk * c
        if combined != big:
            return f"weights do not recombine the reconstruction at xi = {xi}"
    return None


def check_poles(family, reports) -> "str | None":
    if len(reports) != len(family.weights):
        return "one pole report per weight expected"
    for r, w in zip(reports, family.weights):
        den = list(w.den.coeffs)
        if len(r.isolating_intervals) != len(den) - 1:
            return f"weight {r.k_s}: interval count differs from the denominator degree"
        prev_hi = None
        for lo, hi in r.isolating_intervals:
            if prev_hi is not None and lo < prev_hi:
                return f"weight {r.k_s}: isolating intervals overlap"
            prev_hi = hi
            a, b = poly_value(den, lo), poly_value(den, hi)
            if a == 0:
                # a root at lo belongs to the interval on the left; the sign
                # just right of it is the sign of the derivative there
                a = poly_value(poly_derivative(den), lo)
            # (lo, hi] holds one simple root: a sign change, or a root at hi
            if not (b == 0 or a * b < 0):
                return f"weight {r.k_s}: no sign change on ({lo}, {hi}]"
    return None


def check_positivity(extent: int, rows, sample) -> "str | None":
    """Row set and flags by enumeration; sampled rows by the Lagrange route."""
    want = []
    for mm in range(-extent, extent + 1):
        for mp in range(-extent, extent + 1):
            if mm + mp >= 2:
                want.extend((mm, mp, k) for k in range(1, mm + mp))
    got = [(r.stencil.m_minus, r.stencil.m_plus, r.levels) for r in rows]
    if got != want:
        return "positivity rows differ from the enumerated configurations"
    for r in rows:
        mm, mp, k = r.stencil.m_minus, r.stencil.m_plus, r.levels
        cond = mm >= 0 and mp >= 1 and k <= min(mm + 1, mp)
        if r.in_condition != cond:
            return f"in_condition wrong at ({mm},{mp}) K={k}"
        if cond and not r.all_positive:
            return f"weights not positive inside the condition at ({mm},{mp}) K={k}"
    for i in sample:
        r = rows[i]
        ref = sigma_half_reference(list(r.stencil.offsets()), r.levels)
        if ref is None or r.all_positive != all(v > 0 for v in ref):
            return f"all_positive wrong at row {i}"
    return None
