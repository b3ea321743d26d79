"""Library session of one run: executes seeded requests in a closed loop.

Reads {"rounds", "seconds", "trace", "corrupt"} as JSON on stdin
and prints one JSON result on stdout.  One request runs at a time.  Its
latency covers only the library calls; the exact check that follows runs
outside that window and is timed as check time.  Whole rounds run while the
next one is expected to end within the time budget, or until they run out.  With tracing on, a span is kept
in memory around every public call, with the request it belongs to.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from time import perf_counter

import checks
from reconkernel import (
    Stencil,
    basis,
    beta_form,
    error_expansion,
    face_coeffs,
    inv_vandermonde,
    positivity_scan,
    sigma_pole_analysis,
    sigma_values_at_half,
    sigma_weights,
    tau,
)

HALF = Fraction(1, 2)
#: rational points, off every cell face, where weight families are recombined
PROBES = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 4))

#: (layer metric prefix, module, memoized public function)
CACHES = (
    ("deconv.tau", "reconkernel.deconv", "tau"),
    ("vandermonde.inv_vandermonde", "reconkernel.vandermonde", "inv_vandermonde"),
    ("recon.basis", "reconkernel.recon", "basis"),
    ("recon.face_coeffs", "reconkernel.recon", "face_coeffs"),
    ("weno.lambda_h", "reconkernel.weno", "lambda_h"),
    ("weno.sigma_values_at_half", "reconkernel.weno", "sigma_values_at_half"),
)


class Session:
    """Runs calls, untraced or with one span per call."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.request = 0
        self.width = 0

    def call(self, name: str, fn, *args):
        if not self.trace:
            return fn(*args)
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append((self.request, name, self.width, t0, perf_counter()))
        return out


def run_table(sess: Session, req):
    s = Stencil(req[1], req[2])
    m = s.m
    return {
        "tau": sess.call("deconv.tau", lambda: [tau(n) for n in range(2 * m + 1)]),
        "vinv": sess.call("vandermonde.inv_vandermonde", inv_vandermonde, s),
        "basis": sess.call("recon.basis", basis, s),
        "face": sess.call("recon.face_coeffs", face_coeffs, s),
        "exp_h": sess.call("weno.error_expansion", error_expansion, s, "h"),
        "exp_lh": sess.call("weno.error_expansion", error_expansion, s, "lambda-h"),
        "beta": sess.call("weno.beta_form", beta_form, s),
    }


def check_table(memo, req, out):
    s = Stencil(req[1], req[2])
    offsets = list(s.offsets())
    return (
        checks.check_tau(memo, out["tau"])
        or checks.check_inverse_vandermonde(offsets, out["vinv"])
        or checks.check_basis(memo, offsets, out["basis"])
        or checks.check_face_coeffs(memo, offsets, out["face"], s.m)
        or checks.check_error_expansions(memo, offsets, out["basis"], out["exp_h"], out["exp_lh"])
        or checks.check_beta(memo, offsets, out["beta"], [Fraction(c) for c in req[3]])
    )


def run_census(sess: Session, req):
    s, k = Stencil(req[1], req[2]), req[3]
    family = sess.call("weno.sigma_weights", sigma_weights, s, k)
    poles = sess.call("weno.sigma_pole_analysis", sigma_pole_analysis, family)
    at_half = sess.call("weno.values_at", family.values_at, HALF)
    return {"family": family, "poles": poles, "at_half": at_half}


def check_census(memo, req, out):
    offsets = list(Stencil(req[1], req[2]).offsets())
    return checks.check_weight_family(
        offsets, req[3], out["family"], out["at_half"], PROBES
    ) or checks.check_poles(out["family"], out["poles"])


def run_face(sess: Session, req):
    s, k = Stencil(req[1], req[2]), req[3]
    return {
        "face": sess.call("recon.face_coeffs", face_coeffs, s),
        "sigma": sess.call("weno.sigma_values_at_half", sigma_values_at_half, s, k),
    }


def check_face(memo, req, out):
    s = Stencil(req[1], req[2])
    offsets = list(s.offsets())
    if list(out["face"]) != checks.face_weights(offsets):
        return "face coefficients disagree with the Lagrange route"
    return checks.check_sigma_half(offsets, req[3], out["sigma"])


def run_positivity(sess: Session, req):
    return {"rows": sess.call("weno.positivity_scan", positivity_scan, req[1])}


def check_positivity(memo, req, out):
    return checks.check_positivity(req[1], out["rows"], req[2])


KINDS = {
    "table": (run_table, check_table),
    "census": (run_census, check_census),
    "face": (run_face, check_face),
    "positivity": (run_positivity, check_positivity),
}


def corrupt(out: dict) -> dict:
    """Replace the first exact value of a result by a wrong one."""
    out = dict(out)
    key = next(iter(out))
    value = out[key]
    if key == "rows":
        out[key] = value[1:]
    elif key == "family":
        out["at_half"] = (out["at_half"][0] + 1,) + tuple(out["at_half"][1:])
    else:
        out[key] = [value[0] + 1] + list(value[1:])
    return out


def width_of(req) -> int:
    return req[1] + req[2] if req[0] != "positivity" else 2 * req[1]


def walk(obj, acc: list[int]) -> None:
    """Count the rationals of a produced object and track their bit size."""
    if isinstance(obj, Fraction):
        acc[0] += 1
        acc[1] = max(acc[1], obj.numerator.bit_length(), obj.denominator.bit_length())
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            walk(item, acc)
    elif isinstance(obj, dict):
        for item in obj.values():
            walk(item, acc)
    elif is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            walk(getattr(obj, f.name), acc)


def cache_ratios() -> dict:
    out = {}
    for prefix, module, name in CACHES:
        fn = getattr(importlib.import_module(module), name, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            out[prefix] = None
        else:
            ci = info()
            out[prefix] = ci.hits / max(1, ci.hits + ci.misses)
    return out


def main() -> int:
    cfg = json.load(sys.stdin)
    sess = Session(bool(cfg["trace"]))
    memo = checks.Memo()
    latencies: list[float] = []
    failures: list[str] = []
    check_s = 0.0
    exact = [0, 0]
    intervals = rows = 0
    t_start = perf_counter()
    for done, rnd in enumerate(cfg["rounds"]):
        # stop before a round that would likely end past the time budget
        now = perf_counter()
        if done and now + (now - t_start) / done > t_start + cfg["seconds"]:
            break
        for req in rnd:
            run, check = KINDS[req[0]]
            sess.request = len(latencies)
            sess.width = width_of(req)
            t0 = perf_counter()
            try:
                out = sess.call("request", run, sess, req)
                error = None
            except Exception as exc:  # a raising request counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            if out is not None:
                if cfg["corrupt"] and sess.request % cfg["corrupt"] == 0:
                    out = corrupt(out)
                c0 = perf_counter()
                try:
                    error = check(memo, req, out)
                except Exception as exc:  # a malformed result fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
                check_s += perf_counter() - c0
                if sess.trace:
                    walk(out, exact)
                    if "poles" in out:
                        intervals += sum(len(r.isolating_intervals) for r in out["poles"])
                    if "rows" in out:
                        rows += len(out["rows"])
            if error:
                failures.append(f"{req[:4]}: {error}")
    result = {
        "latencies": latencies,
        "failures": failures,
        "check_s": check_s,
    }
    if sess.trace:
        result.update(
            spans=sess.spans,
            caches=cache_ratios(),
            coeff_count=exact[0],
            max_coeff_bits=exact[1],
            intervals=intervals,
            rows=rows,
        )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
