"""Floating-point validation harness for the exact stencil coefficients.

The exponential is the canonical test field because its sliding-average
pair is known in closed form: when the sampled field is f = exp on a grid
of width dx, the underlying point-value field is g_tau(dx) * exp with
g_tau(x) = (x/2)/sinh(x/2).  That gives machine-accurate reference values
for both reconstruction targets without quadrature, so measured errors are
pure truncation error down to the roundoff floor.

Grid widths are negative powers of two throughout; they are exact floats,
so grid generation adds no noise of its own.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, fsum, isfinite, ldexp, log, sinh

from .deconv import tau
from .exact import InvariantError, ValidationError, _int, _tuple, poly_eval
from .recon import _face_weights, basis, face_coeffs
from .vandermonde import Stencil, _stencil

__all__ = [
    "ConvergenceReport",
    "G_TAU_SERIES_CUTOFF",
    "MAX_GRID_LEVELS",
    "SampleSet",
    "convergence_study",
    "derivative_coeffs",
    "exp_cell_average",
    "exp_pair_reference",
    "g_tau_float",
    "halving_slope",
    "non_interpolation_check",
    "reconstruct_face",
]

#: Below this width the closed form of g_tau is replaced by its Taylor jet.
G_TAU_SERIES_CUTOFF = 2.0**-10

#: Unit roundoff of binary64: half the spacing between 1.0 and its successor.
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2

#: Errors smaller than this multiple of the unit roundoff times the reference
#: magnitude are treated as roundoff and excluded from order fits.
ROUNDOFF_FLOOR_FACTOR = 1.0e3

#: Most grid levels of a convergence study: beyond this the smallest width
#: 2^-(3+levels) leaves the normal binary64 range, whose floor is 2^-1022.
MAX_GRID_LEVELS = 1019

#: Largest argument whose exponential is a finite binary64 number.
_LOG_FLOAT_MAX = log(sys.float_info.max)


def _real(x: object, message: str, positive: bool = False) -> float:
    """x itself when it is a finite int or float (never a bool), positive if asked."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValidationError(message)
    if positive and not x > 0:
        raise ValidationError(message)
    return x


def _finite(fn, x: float) -> float:
    """fn(x), with ValidationError where the result overflows binary64."""
    try:
        return fn(x)
    except OverflowError:
        raise ValidationError(f"{fn.__name__}({x!r}) overflows binary64") from None


def g_tau_float(x: float) -> float:
    """The attenuation factor (x/2)/sinh(x/2) with a series branch near 0.

    The removable singularity at 0 evaluates to 1.  Inside the cutoff the
    quotient is replaced by the jet 1 - x^2/24 + 7x^4/5760, whose next term
    is far below double precision there; the coefficients are the tau
    numbers themselves.
    """
    _real(x, "g_tau takes a finite real argument")
    if abs(x) < G_TAU_SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 * (float(tau(2)) + x2 * float(tau(4)))
    half = 0.5 * x
    return half / _finite(sinh, half)


def exp_pair_reference(x: float, delta_x: float) -> float:
    """Point value at x of the field whose width-delta_x averages are exp.

    Returns g_tau(delta_x) * e^x: the exact reconstruction of the
    exponential, hence the truth value every stencil is measured against.
    """
    _real(x, "x must be a finite real")
    _real(delta_x, "delta_x must be positive and finite", positive=True)
    return g_tau_float(delta_x) * _finite(exp, x)


def exp_cell_average(x: float, delta_x: float) -> float:
    """Width-delta_x sliding average of exp at x, in cancellation-free form.

    Equal to (e^{x+dx/2} - e^{x-dx/2})/dx but evaluated as e^x / g_tau(dx),
    which stays fully accurate for small widths.  A quotient past the
    largest binary64 number is a ValidationError, as float division does
    not raise.
    """
    _real(x, "x must be a finite real")
    _real(delta_x, "delta_x must be positive and finite", positive=True)
    avg = _finite(exp, x) / g_tau_float(delta_x)
    if not isfinite(avg):
        raise ValidationError(f"exp_cell_average({x!r}, {delta_x!r}) overflows binary64")
    return avg


@dataclass(frozen=True)
class SampleSet:
    """Grid samples of the averaged field on one stencil.

    values[j] is the sample at pivot + offset*delta_x for the j-th offset of
    the stencil, left to right.
    """

    stencil: Stencil
    pivot: float
    delta_x: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _stencil(self.stencil)
        _real(self.pivot, "pivot must be finite and delta_x positive")
        _real(self.delta_x, "pivot must be finite and delta_x positive", positive=True)
        values = _tuple(self.values, "samples must be a sequence of finite numbers")
        if len(values) != self.stencil.m + 1:
            raise ValidationError(
                f"stencil {self.stencil} needs {self.stencil.m + 1} samples, got {len(values)}"
            )
        for v in values:
            _real(v, "samples must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, s: Stencil, fn, pivot: float, delta_x: float) -> "SampleSet":
        return cls(s, pivot, delta_x, tuple(fn(pivot + l * delta_x) for l in s.offsets()))


def reconstruct_face(samples: SampleSet) -> float:
    """Reconstructed point value at the right face of the pivot cell."""
    if not isinstance(samples, SampleSet):
        raise ValidationError(f"expected a SampleSet, got {type(samples).__name__}")
    coeffs = face_coeffs(samples.stencil)
    return fsum(float(a) * v for a, v in zip(coeffs, samples.values))


def derivative_coeffs(s: Stencil) -> tuple[tuple[int, Fraction], ...]:
    """Exact weights of the flux difference (h at +1/2 minus h at -1/2).

    Returns (offset, weight) pairs over offsets -m_minus-1 .. m_plus; the
    dot product with samples, divided by delta_x, approximates the
    derivative of the averaged field at the pivot.  The weight of offset j
    is the slope at xi = 1/2 of the cardinal of face j + 1/2 in the face
    interpolant of the primitive.  Raises InvariantError unless the weights
    sum to zero.
    """
    weights = _face_weights(s)
    if sum(weights) != 0:
        raise InvariantError(f"flux-difference weights of stencil {s} do not sum to 0")
    den = factorial(s.m + 1)
    return tuple((j, Fraction(w, den)) for j, w in enumerate(weights, -s.m_minus - 1))


@dataclass(frozen=True)
class ConvergenceReport:
    """Measured errors of one stencil and target over a dyadic grid sweep.

    fit_indices marks the entries the least-squares order fit used: the
    smallest widths whose error sits above the roundoff floor.
    """

    stencil: Stencil
    target: str
    grid_sizes: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    fit_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _stencil(self.stencil)
        _target(self.target)
        message = "grid sizes must be a sequence of positive floats"
        sizes = tuple(_real(dx, message, positive=True) for dx in _tuple(self.grid_sizes, message))
        message = "errors must be a sequence of finite floats"
        errors = tuple(_real(err, message) for err in _tuple(self.errors, message))
        if len(sizes) != len(errors):
            raise ValidationError("one error per grid size required")
        if any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ValidationError("grid sizes must decrease strictly")
        _real(self.fitted_order, "fitted order must be a finite real")
        message = "fit indices must be a sequence of grid-size positions"
        indices = tuple(
            _int(i, message, lo=0, hi=len(sizes) - 1) for i in _tuple(self.fit_indices, message)
        )
        object.__setattr__(self, "grid_sizes", sizes)
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "fit_indices", indices)


_TARGETS = ("face", "derivative")


def _target(target: object) -> None:
    if target not in _TARGETS:
        raise ValidationError(f"target must be one of {_TARGETS}")


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    xbar = fsum(xs) / n
    ybar = fsum(ys) / n
    num = fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = fsum((x - xbar) ** 2 for x in xs)
    return num / den


def convergence_study(
    s: Stencil,
    target: str,
    grid_levels: int = 7,
    fit_window: int = 4,
) -> ConvergenceReport:
    """Measure the observed order of one reconstruction target on exp data.

    Sweeps dx = 2^-4 .. 2^-(3+grid_levels) with f = exp sampled at the
    stencil nodes.  The face target compares against g_tau(dx) e^{dx/2};
    the derivative target divides the flux difference by dx and compares
    against f'(0) = 1.  The stencil weights are applied to the float
    samples in exact rational arithmetic, so the measured errors carry no
    accumulation noise and stay truncation-dominated; what remains below
    ROUNDOFF_FLOOR_FACTOR * unit-roundoff * |truth| is the rounding of the
    samples themselves (amplified by 1/dx on the derivative target) and is
    excluded from the fit.  The order is the log-log slope over the
    fit_window smallest usable widths; fewer than three usable points leave
    the fit degenerate, which is reported as an error.  More than
    MAX_GRID_LEVELS levels are rejected: the smallest width must stay a
    normal float.  Windows so far from the pivot that a sample or the error
    could overflow binary64 are rejected up front.
    """
    _stencil(s)
    _target(target)
    _int(grid_levels, "at least 3 grid levels required", lo=3)
    if grid_levels > MAX_GRID_LEVELS:
        raise ValidationError(
            f"{grid_levels} grid levels take the smallest width 2^-{3 + grid_levels} "
            f"below the normal float range (at most {MAX_GRID_LEVELS} levels)"
        )
    _int(fit_window, "fit window must span at least 3 points", lo=3)

    if target == "face":
        pairs = tuple(zip(s.offsets(), face_coeffs(s)))
    else:
        pairs = derivative_coeffs(s)
    _require_float_range(s, target, pairs)
    grid_sizes = []
    errors = []
    usable = []
    for level in range(4, 4 + grid_levels):
        dx = 2.0**-level
        value = sum(w * Fraction(exp(j * dx)) for j, w in pairs)
        if target == "face":
            truth = exp_pair_reference(0.5 * dx, dx)
        else:
            value /= Fraction(dx)
            truth = 1.0
        err = float(abs(value - Fraction(truth)))
        grid_sizes.append(dx)
        errors.append(err)
        if err >= ROUNDOFF_FLOOR_FACTOR * _UNIT_ROUNDOFF * abs(truth):
            usable.append(len(errors) - 1)

    if len(usable) < 3:
        raise ValidationError(
            f"degenerate fit: only {len(usable)} usable points above the roundoff floor"
        )
    window = usable[-min(fit_window, len(usable)):]
    slope = _fit_slope([log(grid_sizes[i]) for i in window], [log(errors[i]) for i in window])
    return ConvergenceReport(s, target, tuple(grid_sizes), tuple(errors), slope, tuple(window))


def _require_float_range(s: Stencil, target: str, pairs) -> None:
    # The samples e^(j dx) over the (offset, weight) pairs are largest at the
    # first width 2^-4, at most e^(J/16) with J = max |j|.  So the face value
    # is at most sum_j |w_j| e^(J/16).  The flux weights annihilate constants,
    # so the derivative is sum_j w_j (e^(j dx) - 1)/dx, and rounding to
    # nearest keeps |fl(e^y) - 1| <= 2 |e^y - 1| <= 2 |y| e^|y|: it is at most
    # sum_j 2 |j w_j| e^(J/16).  Each weight sum is at least 1, so a bound
    # below the largest float keeps every sample, value and error finite.
    reach = max(abs(j) for j, _ in pairs)
    if target == "face":
        total = sum(abs(w) for _, w in pairs)
    else:
        total = sum(2 * abs(j * w) for j, w in pairs)
    if log(total.numerator) - log(total.denominator) + reach / 16 >= _LOG_FLOAT_MAX:
        raise ValidationError(
            f"stencil {s} lies too far from the pivot: the {target} error of its "
            f"exp samples at width 2^-4 may overflow binary64"
        )


def _require_sample_width(s: Stencil, delta_x: float) -> None:
    _stencil(s)
    _real(delta_x, "delta_x must be positive and finite", positive=True)
    if max(s.m_plus, 0.5) * delta_x > _LOG_FLOAT_MAX:
        raise ValidationError(f"delta_x {delta_x!r} overflows the exp samples of stencil {s}")


def _nodal_gaps(s: Stencil, widths: list[float]) -> list[float]:
    # the reconstructing basis at the nodes does not depend on the width
    alpha_h = basis(s).alpha_h
    offsets = list(s.offsets())
    nodal = [[float(poly_eval(p, node)) for p in alpha_h] for node in offsets]
    gaps = []
    for dx in widths:
        samples = [exp(l * dx) for l in offsets]
        worst = 0.0
        for node, weights in zip(offsets, nodal):
            value = fsum(w * v for w, v in zip(weights, samples))
            truth = exp_pair_reference(node * dx, dx)
            worst = max(worst, abs(value - truth))
        gaps.append(worst)
    return gaps


def non_interpolation_check(s: Stencil, delta_x: float) -> float:
    """Largest nodal gap between the reconstruction and the true point values.

    Samples f = exp at the stencil nodes, evaluates the reconstructing
    polynomial at those same nodes, and compares against the exact point
    field g_tau(dx) e^x.  The reconstruction matches the averages, not the
    point values, so the gap is strictly positive and of order dx^{M+1}.
    Widths at which a sample e^{l dx} or the sinh(dx/2) of g_tau would
    overflow are rejected.
    """
    _require_sample_width(s, delta_x)
    return _nodal_gaps(s, [delta_x])[0]


def halving_slope(s: Stencil, delta_x: float, halvings: int = 2) -> float:
    """Log-log slope of the nodal mismatch under successive width halvings.

    The smallest width, delta_x / 2^halvings, must stay a normal float.
    """
    _int(halvings, "at least one halving required", lo=1)
    _require_sample_width(s, delta_x)
    if ldexp(delta_x, -halvings) < sys.float_info.min:
        raise ValidationError(
            f"{halvings} halvings of delta_x {delta_x!r} leave the normal float range"
        )
    widths = [ldexp(delta_x, -j) for j in range(halvings + 1)]
    gaps = _nodal_gaps(s, widths)
    if any(g <= 0.0 for g in gaps):
        raise ValidationError("mismatch vanished; slope undefined")
    return _fit_slope([log(w) for w in widths], [log(g) for g in gaps])
