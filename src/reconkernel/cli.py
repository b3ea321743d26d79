"""Command-line tables for the exact reconstruction kernel.

Every subcommand is a pure function of its flags and prints one table,
as JSON (default) or CSV.  Exact rationals are rendered as "p/q" strings,
floats as shortest round-trip decimals.  Exit codes: 0 on success, 2 when
the request is invalid, 3 when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from math import lcm
from operator import mul, sub

from .deconv import tau
from .exact import (
    InvariantError,
    RatPoly,
    ValidationError,
    _common_denominator,
    _homogeneous_eval,
    poly_eval,
)
from .harness import MAX_GRID_LEVELS, convergence_study, halving_slope, non_interpolation_check
from .recon import basis, face_coeffs
from .vandermonde import Stencil, _faces, inv_vandermonde, vandermonde
from .weno import (
    DEFAULT_MARGIN,
    Lambda,
    beta_form,
    error_expansion,
    positivity_scan,
    sigma_pole_analysis,
    sigma_weights,
)

SCHEMA = "recon-kernel/1"

__all__ = ["main"]

# Size limits, checked before any work; a larger request exits 2.  Each sits
# where one cold run of the command took about 5 s on a shared 2-CPU VM with
# Python 3.11, except weights and poles, which now take under 2 s at M = 16;
# README lists the measured times.

#: Largest stencil width M = m_minus + m_plus of each stencil command.
MAX_WIDTH = {
    "vandermonde": 60,
    "basis": 60,
    "face-coeffs": 700,
    "error-poly": 40,
    "lambda": 35,
    "weights": 16,
    "poles": 16,
    "beta": 60,
    "converge": 60,
    "check-noninterp": 24,
}
#: Largest tau index, and largest expansion order (the default M+5 included).
MAX_ORDER = {"tau": 600, "error-poly": 150, "lambda": 40}
#: check-noninterp: each halving is one more nodal check, O(M^2) float products
#: on the nodal basis weights, which are evaluated once.
MAX_HALVINGS = 40


def _at_most(args: argparse.Namespace, what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValidationError(f"{args.command} accepts {what} up to {limit}, got {value}")


def _stencil(args: argparse.Namespace) -> Stencil:
    m_minus, m_plus = args.stencil
    s = Stencil(m_minus, m_plus)
    _at_most(args, "stencil widths", s.m, MAX_WIDTH[args.command])
    return s


def _order(args: argparse.Namespace, s: Stencil) -> int:
    n_max = s.m + DEFAULT_MARGIN if args.order is None else args.order
    _at_most(args, "orders", n_max, MAX_ORDER[args.command])
    return n_max


def _poly_strings(p: RatPoly) -> list[str]:
    return p.to_strings() or ["0"]


def _cell(value) -> str:
    # payload values as CSV text: booleans as in JSON, floats by repr
    return str(value).lower() if isinstance(value, bool) else str(value)


# Each handler returns the payload fields that follow the envelope (schema,
# command and, when the command takes one, stencil), the CSV header, and the
# CSV rows built from those same payload values.


def _cmd_tau(args: argparse.Namespace):
    n_max = 21 if args.order is None else args.order
    if n_max < 0:
        raise ValidationError("order must be nonnegative")
    _at_most(args, "orders", n_max, MAX_ORDER["tau"])
    values = [str(tau(n)) for n in range(n_max + 1)]
    return {"n_max": n_max, "values": values}, ["n", "tau"], list(enumerate(values))


def _cardinal_miss(family, n: int, at, scale: int) -> "tuple[int, int | None] | None":
    """The first (member, point) where the family is not cardinal, or None.

    at(nums) gives scale times the n values of a polynomial with integer
    coefficients nums at the points, so a member over its common
    denominator d must give d * scale at its own point and 0 at the others.
    n members of at most n coefficients that pass are the one cardinal
    family; a member out of that shape misses with point None.
    """
    if len(family) != n:
        return min(len(family), n), None
    for l, coeffs in enumerate(family):
        nums, den = _common_denominator(coeffs)
        if len(nums) > n:
            return l, None
        for j, value in enumerate(at(nums)):
            if value != den * scale * (l == j):
                return l, j
    return None


def _face_moments(s: Stencil, coeffs, n_max: int) -> tuple[list[int], int]:
    # F_d = sum_l N_l (l^(d+1) - (l-1)^(d+1)), d = 0..n_max, with coeffs = N/D:
    # F_d/(D (d+1)!) is the face value rebuilt from the cell averages of
    # (x - 1/2)^d/d!.  By faces j, F_d = sum_j (N_j - N_(j+1)) j^(d+1).
    nums, den = _common_denominator(coeffs)
    jumps = list(map(sub, [0] + nums, nums + [0]))
    faces = range(-s.m_minus - 1, s.m_plus + 1)
    powers, moments = list(faces), []
    for _ in range(n_max + 1):
        moments.append(sum(map(mul, jumps, powers)))
        powers = list(map(mul, powers, faces))
    return moments, den


def _node_values(s: Stencil):
    return (lambda nums: [_homogeneous_eval(nums, x, 1) for x in s.offsets()]), 1


def _cell_averages(s: Stencil):
    # the antiderivative at the odd halves u/2, the faces, each average the
    # step across its cell: with coefficients a_k L/(k+1), L = lcm(1..M+1),
    # and padded to degree M+1, 2^(M+1) L A(u/2) is integer Horner in u
    n = s.m + 1
    big = lcm(*range(1, n + 1))

    def at(nums):
        anti = [0] + [a * (big // (k + 1)) for k, a in enumerate(nums)] + [0] * (n - len(nums))
        ends = [_homogeneous_eval(anti, u, 2) for u in _faces(s)]
        return list(map(sub, ends[1:], ends))

    return at, big << n


def _cmd_vandermonde(args: argparse.Namespace):
    s = _stencil(args)
    v = vandermonde(s)
    vi = inv_vandermonde(s)
    # V V^-1 = I: column j of V^-1 is the cardinal of node j
    if _cardinal_miss(list(zip(*vi.entries)), s.m + 1, *_node_values(s)) is not None:
        raise InvariantError(f"inverse check failed for stencil {s}")
    body = {"matrix": v.to_strings(), "inverse": vi.to_strings()}
    rows = [
        [name, i, j, value]
        for name, key in (("V", "matrix"), ("V_inverse", "inverse"))
        for i, row in enumerate(body[key])
        for j, value in enumerate(row)
    ]
    return body, ["matrix", "row", "col", "value"], rows


def _cmd_basis(args: argparse.Namespace):
    s = _stencil(args)
    b = basis(s)
    # alpha_f,l takes delta_lj at node j, and alpha_h,l averages delta_lj over cell j
    for name, family, check, where in (
        ("alpha_f", b.alpha_f, _node_values(s), "node"),
        ("alpha_h", b.alpha_h, _cell_averages(s), "cell"),
    ):
        miss = _cardinal_miss([p.coeffs for p in family], s.m + 1, *check)
        if miss is not None:
            member = f"{name} at offset {miss[0] - s.m_minus} of {s}"
            if miss[1] is None:
                raise InvariantError(f"{member} has degree above {s.m}")
            raise InvariantError(f"{member} is not cardinal at {where} {miss[1] - s.m_minus}")
    body = {
        "alpha_f": [p.to_strings() for p in b.alpha_f],
        "alpha_h": [p.to_strings() for p in b.alpha_h],
        "face_coeffs": [str(c) for c in face_coeffs(s)],
    }
    terms = [
        {"family": name, "offset": offset, "coeffs": coeffs}
        for name in ("alpha_f", "alpha_h")
        for offset, coeffs in zip(s.offsets(), body[name])
    ]
    return body, *_coeff_rows(terms, "family", "offset")


def _cmd_face_coeffs(args: argparse.Namespace):
    s = _stencil(args)
    fc = face_coeffs(s)
    # The face vector alone rebuilds every face value of degree <= M: on
    # (x - 1/2)^d/d!, F_0 = D and F_1..F_M = 0; as x^d span the same, the
    # first d to fail is the first power x^d that the vector misses.
    if len(fc) != s.m + 1:
        raise InvariantError(f"stencil {s} has {s.m + 1} cells but {len(fc)} face coefficients")
    moments, den = _face_moments(s, fc, s.m)
    for d, moment in enumerate(moments):
        if moment != den * (d == 0):
            raise InvariantError(f"face coefficients of {s} do not reproduce the face value of x^{d}")
    body = {"face_coeffs": [str(c) for c in fc]}
    return body, ["offset", "coeff"], list(zip(s.offsets(), body["face_coeffs"]))


def _coeff_rows(terms: list[dict], *keys: str) -> tuple[list[str], list[list]]:
    # one row per term: the named fields, then the coefficients padded to a
    # common width
    width = max(len(t["coeffs"]) for t in terms)
    header = list(keys) + [f"c{k}" for k in range(width)]
    rows = [[t[k] for k in keys] + t["coeffs"] + ["0"] * (width - len(t["coeffs"])) for t in terms]
    return header, rows


def _cmd_error_poly(args: argparse.Namespace):
    s = _stencil(args)
    exp = error_expansion(s, args.kind, _order(args, s))
    terms = [{"order": n, "coeffs": _poly_strings(p)} for n, p in exp.terms]
    return {"kind": args.kind, "terms": terms}, *_coeff_rows(terms, "order")


def _cmd_lambda(args: argparse.Namespace):
    s = _stencil(args)
    exp = error_expansion(s, f"lambda-{args.kind}", _order(args, s))
    terms = []
    for n, p in exp.terms:
        value = poly_eval(p, Fraction(1, 2))
        if args.kind == "h" and value != Lambda(s, n):
            raise InvariantError(f"lambda_h({s}, {n}) at 1/2 differs from Lambda({s}, {n})")
        terms.append({"order": n, "coeffs": _poly_strings(p), "face_value": str(value)})
    return {"kind": exp.kind, "terms": terms}, *_coeff_rows(terms, "order", "face_value")


def _cmd_weights(args: argparse.Namespace):
    s = _stencil(args)
    family = sigma_weights(s, args.levels)
    weights = [
        {"k_s": k, "num": _poly_strings(w.num), "den": _poly_strings(w.den), "at_half": str(v)}
        for k, (w, v) in enumerate(zip(family.weights, family.values_at(Fraction(1, 2))))
    ]
    terms = [{"k_s": w["k_s"], "part": p, "coeffs": w[p]} for w in weights for p in ("num", "den")]
    return {"levels": args.levels, "weights": weights}, *_coeff_rows(terms, "k_s", "part")


def _cmd_poles(args: argparse.Namespace):
    s = _stencil(args)
    reports = [
        {
            "k_s": r.k_s,
            "den_degree": r.denominator.degree,
            "real_roots": r.real_root_count,
            "intervals": [[str(lo), str(hi)] for lo, hi in r.isolating_intervals],
        }
        for r in sigma_pole_analysis(sigma_weights(s, args.levels))
    ]
    # a root-free denominator still gets a row, with empty interval ends
    rows = [
        [r["k_s"], r["den_degree"], r["real_roots"], lo, hi]
        for r in reports
        for lo, hi in r["intervals"] or [("", "")]
    ]
    header = ["k_s", "den_degree", "real_roots", "interval_lo", "interval_hi"]
    return {"levels": args.levels, "reports": reports}, header, rows


def _cmd_positivity(args: argparse.Namespace):
    scan = [
        {
            "m_minus": r.stencil.m_minus,
            "m_plus": r.stencil.m_plus,
            "levels": r.levels,
            "in_condition": r.in_condition,
            "all_positive": r.all_positive,
        }
        for r in positivity_scan(args.extent)
    ]
    header = ["m_minus", "m_plus", "levels", "in_condition", "all_positive"]
    return {"extent": args.extent, "rows": scan}, header, [list(r.values()) for r in scan]


def _cmd_beta(args: argparse.Namespace):
    s = _stencil(args)
    matrix = beta_form(s, face_centered=args.face_centered).matrix.to_strings()
    terms = [{"row": i, "coeffs": row} for i, row in enumerate(matrix)]
    return {"face_centered": args.face_centered, "matrix": matrix}, *_coeff_rows(terms, "row")


def _cmd_converge(args: argparse.Namespace):
    s = _stencil(args)
    _at_most(args, "grid levels", args.levels, MAX_GRID_LEVELS)
    report = convergence_study(s, args.target, args.levels, args.window)
    body = {
        "target": report.target,
        "grid_sizes": list(report.grid_sizes),
        "errors": list(report.errors),
        "fitted_order": report.fitted_order,
        "fit_indices": list(report.fit_indices),
    }
    rows = [[dx, err, report.fitted_order] for dx, err in zip(report.grid_sizes, report.errors)]
    return body, ["dx", "error", "fitted_order"], rows


def _cmd_check_noninterp(args: argparse.Namespace):
    s = _stencil(args)
    _at_most(args, "halvings", args.halvings, MAX_HALVINGS)
    # the slope validates every width before any work
    slope = halving_slope(s, args.dx, args.halvings)
    body = {
        "delta_x": args.dx,
        "max_mismatch": non_interpolation_check(s, args.dx),
        "halving_slope": slope,
    }
    return body, ["delta_x", "max_mismatch", "halving_slope"], [list(body.values())]


def _opt(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


_STENCIL = _opt(
    "--stencil",
    nargs=2,
    type=int,
    metavar=("M-", "M+"),
    required=True,
    help="cells to the left and right of the pivot",
)
_KIND = _opt("--kind", choices=("f", "h"), default="h", help="interpolation or reconstruction")
_ORDER = _opt("--order", type=int, default=None, help="largest order (default M+5)")
_LEVELS = _opt("--levels", type=int, default=1, help="subdivision level K (default 1)")

#: name, handler, help and options of every subcommand; each also takes --format
_COMMANDS = (
    ("tau", _cmd_tau, "deconvolution coefficients tau_n",
     [_opt("--order", type=int, default=None, help="largest index (default 21)")]),
    ("vandermonde", _cmd_vandermonde, "stencil node-power matrix and its exact inverse",
     [_STENCIL]),
    ("basis", _cmd_basis, "interpolating and reconstructing basis polynomials", [_STENCIL]),
    ("face-coeffs", _cmd_face_coeffs, "face-value coefficients of the stencil", [_STENCIL]),
    ("error-poly", _cmd_error_poly, "pivot-derivative error polynomials",
     [_STENCIL, _ORDER, _KIND]),
    ("lambda", _cmd_lambda, "local-derivative error polynomials and face constants",
     [_STENCIL, _ORDER, _KIND]),
    ("weights", _cmd_weights, "substencil weight-functions", [_STENCIL, _LEVELS]),
    ("poles", _cmd_poles, "real-root census of the weight denominators", [_STENCIL, _LEVELS]),
    ("positivity", _cmd_positivity, "positivity scan of the linear weights",
     [_opt("--extent", type=int, default=3, help="largest |M-|, |M+| to scan (default 3)")]),
    ("beta", _cmd_beta, "smoothness-indicator quadratic form",
     [_STENCIL,
      _opt("--face-centered", action="store_true",
           help="integrate over the face-centered interval (0, 1) instead of (-1/2, 1/2)")]),
    ("converge", _cmd_converge, "observed order on the exponential test problem",
     [_STENCIL,
      _opt("--target", choices=("face", "derivative"), default="face"),
      _opt("--levels", type=int, default=7, help="grid levels (default 7)"),
      _opt("--window", type=int, default=4, help="fit-window size (default 4)")]),
    ("check-noninterp", _cmd_check_noninterp, "nodal mismatch of the reconstruction on exp",
     [_STENCIL,
      _opt("--dx", type=float, default=0.01, help="grid width (default 1/100)"),
      _opt("--halvings", type=int, default=2, help="extra halvings for the slope fit")]),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon-kernel",
        description="exact reconstruction stencils, error constants, and weights",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
        p.set_defaults(handler=handler)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body, header, rows = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        payload = {"schema": SCHEMA, "command": args.command}
        if getattr(args, "stencil", None) is not None:
            payload["stencil"] = list(args.stencil)
        print(json.dumps({**payload, **body}, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
