"""Stencils and exact inverse Vandermonde matrices.

A stencil (m_minus, m_plus) is the contiguous cell-index window
{-m_minus, ..., m_plus} around a pivot cell.  The Vandermonde matrix of its
node offsets is inverted through its Lagrange cardinal polynomials: column j
of the inverse is the node polynomial prod_k (x - x_k) divided by (x - x_j)
and by the value of that quotient at x_j, all in integers.  The same node
polynomial gives the error generators nu: the interpolant of x^k on the
stencil is the remainder of x^k divided by it, one power after another,
kept in one table per node range that every later power extends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    Rational,
    ValidationError,
    _divmod_int,
    _homogeneous_eval,
    _int,
    _memo,
    _rat,
    _tuple,
)

__all__ = [
    "CoeffTable",
    "Stencil",
    "inv_vandermonde",
    "nu",
    "vandermonde",
]


@dataclass(frozen=True, order=True)
class Stencil:
    """Cell window {-m_minus, ..., m_plus} around pivot cell 0.

    Either bound may be negative (the window need not contain the pivot);
    only the total width M = m_minus + m_plus must be nonnegative.
    """

    m_minus: int
    m_plus: int

    def __post_init__(self) -> None:
        for v in (self.m_minus, self.m_plus):
            _int(v, "stencil bounds must be integers")
        if self.m_minus + self.m_plus < 0:
            raise ValidationError("stencil width m_minus + m_plus must be nonnegative")

    @property
    def m(self) -> int:
        """Number of intervals spanned; the window holds m + 1 cells."""
        return self.m_minus + self.m_plus

    def offsets(self) -> range:
        return range(-self.m_minus, self.m_plus + 1)

    def __str__(self) -> str:
        return f"({self.m_minus},{self.m_plus})"


def _stencil(s: object) -> Stencil:
    """s itself when it is a Stencil; else ValidationError."""
    if not isinstance(s, Stencil):
        raise ValidationError(f"expected a Stencil, got {type(s).__name__}")
    return s


@dataclass(frozen=True)
class CoeffTable:
    """Immutable dense matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        message = "coefficient tables must be an iterable of rows of exact rationals"
        rows = tuple(tuple(map(_rat, _tuple(row, message))) for row in _tuple(self.entries, message))
        if not rows or not rows[0]:
            raise ValidationError("coefficient tables must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValidationError("coefficient tables must be rectangular")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def of(cls, rows: Iterable[Sequence[Rational]]) -> "CoeffTable":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "CoeffTable":
        _int(n, "identity size must be a positive integer", lo=1)
        return cls.of([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    @property
    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_strings(self) -> list[list[str]]:
        return [[str(c) for c in row] for row in self.entries]


@_memo
def vandermonde(s: Stencil) -> CoeffTable:
    """Vandermonde matrix of the stencil's node offsets: row l holds l^j."""
    _stencil(s)
    m = s.m
    return CoeffTable.of([[Fraction(ell**j) for j in range(m + 1)] for ell in s.offsets()])


def _faces(s: Stencil) -> range:
    """The M+2 cell faces x_q = q - m_minus - 1/2 of the stencil, as the odd integers u = 2 x_q."""
    return range(-2 * s.m_minus - 1, 2 * s.m_plus + 2, 2)


def _node_poly(nodes: Iterable[int]) -> list[int]:
    """Ascending integer coefficients of the monic node polynomial prod_l (x - l)."""
    omega = [1]
    for x in nodes:
        omega = [a - x * b for a, b in zip([0] + omega, omega + [0])]
    return omega


def _cardinals(nodes: Sequence[int]) -> list[tuple[list[int], int]]:
    """The unscaled Lagrange cardinals q_j = omega/(x - x_j) on integer nodes, with q_j(x_j)."""
    omega = _node_poly(nodes)
    out = []
    for x in nodes:
        q = _divmod_int(omega, [-x, 1])[0]
        out.append((q, _homogeneous_eval(q, x, 1)))
    return out


@_memo
def inv_vandermonde(s: Stencil) -> CoeffTable:
    """Exact inverse Vandermonde matrix on an arbitrary stencil.

    Column j holds the coefficients of the Lagrange cardinal polynomial of
    node x_j: the node polynomial P(x) = prod_k (x - x_k), built once in
    integers, divided by (x - x_j) in integer long division and then by
    that quotient's value at x_j, which is P'(x_j), with one fraction per
    entry (the O(M^2) inverse of Press et al., Numerical Recipes, section
    2.8).  Nodes are the signed offsets, so windows beside the pivot work
    unchanged.
    """
    _stencil(s)
    cols = [[Fraction(c, den) for c in q] for q, den in _cardinals(s.offsets())]
    return CoeffTable.of(zip(*cols))


#: Per node range: omega's low coefficients and the rows x^j mod omega
#: computed so far.  Rows are appended to a copy and the longer tuple is
#: stored back under the same key, so concurrent extensions agree.
_REMAINDERS: dict[range, tuple[list[int], tuple[list[int], ...]]] = {}


def _power_remainders(nodes: range, n: int) -> tuple[list[int], ...]:
    """x^j mod the monic node polynomial of the integer nodes, for j = 0..n at least.

    Entry j holds the deg(omega) ascending integer coefficients of the
    interpolant of x^j on the nodes.  Each step multiplies the last remainder
    by x and subtracts its top coefficient times omega, so a power costs
    O(deg omega) integer products.  The rows are kept per node range and
    extended only by the ones missing, so every order of every error
    polynomial on the same nodes shares them.  Callers must not mutate them.
    """
    table = _REMAINDERS.get(nodes)
    if table is None:
        low = _node_poly(nodes)[:-1]
        table = low, ([1] + [0] * (len(low) - 1),)
    low, rows = table
    if len(rows) <= n:
        grown = list(rows)
        r = grown[-1]
        for _ in range(len(rows), n + 1):
            top = r[-1]
            r = [0] + r[:-1]
            if top:
                r = [a - top * w for a, w in zip(r, low)]
            grown.append(r)
        table = low, tuple(grown)
    _REMAINDERS[nodes] = table
    return table[1]


def nu(s: Stencil, m: int, k: int) -> Fraction:
    """Coefficient m of the interpolant of x^k on the stencil's nodes.

    The interpolant is x^k mod the monic integer node polynomial, so every
    value is an integer: delta_{mk} for k <= M (exact polynomial
    reproduction), and for k > M the generators of the error expansions.
    """
    _stencil(s)
    _int(m, f"row index {m} outside 0..{s.m}", lo=0, hi=s.m)
    _int(k, "power must be a nonnegative integer", lo=0)
    return Fraction(_power_remainders(s.offsets(), k)[k][m])
