"""Benchmark of the recon-kernel package, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is not installed: every child
process gets `src` on PYTHONPATH, and the CLI runs as
`python -m reconkernel.cli`.  One client issues one request at a time (a
closed loop).  cli-cold spawns one CLI process per request; the library
workloads run in one worker process per session (perfbench/worker.py).

With --trace 0 the run executes the seeded requests once, in one session,
and measures the end-to-end metrics over all of them.  With --trace 1 it
runs them twice, for half the time each: untraced, then traced, and
reports per-layer metrics from the traced half and the tracing overhead
from the difference.  Set-up time is probed in fresh interpreters before
and after the session.  A human-readable table goes first; the last line
of stdout is one JSON object.  --corrupt N falsifies every Nth result
before it is checked, to show that wrong results are counted as failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from cli_child import TRACE_MARK  # noqa: E402

#: fresh interpreters probed for set-up time before the session, and again after it
SETUP_RUNS = 6
#: a child that outlives this is killed and the run fails
CHILD_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import reconkernel, reconkernel.cli; "
    "print(time.perf_counter() - t)"
)

#: layers timed by spans in the library workloads
LAYERS = (
    "deconv.tau",
    "vandermonde.inv_vandermonde",
    "recon.basis",
    "recon.face_coeffs",
    "weno.error_expansion",
    "weno.beta_form",
    "weno.sigma_weights",
    "weno.sigma_pole_analysis",
    "weno.sigma_values_at_half",
    "weno.positivity_scan",
)
#: widths broken out per layer: the stencil-tables and face-scan anchors
WIDTH_METRICS = {
    "deconv.tau": (4, 8, 12),
    "vandermonde.inv_vandermonde": (4, 8, 12),
    "recon.basis": (4, 8, 12),
    "recon.face_coeffs": (4, 8, 12, 16, 20),
    "weno.error_expansion": (4, 8, 12),
    "weno.beta_form": (4, 8, 12),
    "weno.sigma_values_at_half": (8, 12, 16, 20),
}
GROWTH = (
    "deconv.tau",
    "vandermonde.inv_vandermonde",
    "recon.basis",
    "recon.face_coeffs",
    "weno.error_expansion",
    "weno.beta_form",
    "weno.sigma_weights",
    "weno.sigma_pole_analysis",
    "weno.sigma_values_at_half",
)
CACHED = (
    "deconv.tau",
    "vandermonde.inv_vandermonde",
    "recon.basis",
    "recon.face_coeffs",
    "weno.lambda_h",
    "weno.sigma_values_at_half",
)


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, stdin: "str | None" = None) -> tuple[float, int, bytes, bytes]:
    """Run one child to completion; wall time, exit code, stdout, stderr."""
    t0 = perf_counter()
    with subprocess.Popen(
        argv,
        env=env,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(stdin.encode() if stdin is not None else None, CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child {argv[1:3]} exceeded {CHILD_TIMEOUT_S} s")
    return perf_counter() - t0, proc.returncode, out, err


def measure_setup(env: dict, warm: bool) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing the package and its CLI,
    and the import times measured inside them.  With warm, one untimed
    import first writes the bytecode caches a user would have."""
    walls, inner = [], []
    for i in range(SETUP_RUNS + warm):
        wall, code, out, err = spawn([sys.executable, "-c", IMPORT_PROBE], env)
        if code != 0:
            raise BenchError("cannot import reconkernel from src: " + err.decode(errors="replace").strip())
        if i or not warm:
            walls.append(wall)
            inner.append(float(out))
    return walls, inner


def digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(b"%d\n" % code + stdout).hexdigest()


def cli_session(rounds, seconds: float, traced: bool, corrupt: int, env: dict) -> dict:
    golden = json.loads(workloads.GOLDEN.read_text())
    head = [sys.executable, str(HERE / "cli_child.py")] if traced else [sys.executable, "-m", "reconkernel.cli"]
    latencies, failures, check_s = [], [], 0.0
    records, stdout_bytes = [], 0
    t_start = perf_counter()
    for done, rnd in enumerate(rounds):
        now = perf_counter()
        if done and now + (now - t_start) / done > t_start + seconds:
            break
        for _, key in rnd:
            wall, code, out, err = spawn(head + key.split(), env)
            latencies.append(wall)
            c0 = perf_counter()
            if corrupt and (len(latencies) - 1) % corrupt == 0:
                out = b"#" + out
            if digest(code, out) != golden[key]:
                failures.append(f"{key}: output differs from the frozen digest (exit {code})")
            check_s += perf_counter() - c0
            if traced:
                stdout_bytes += len(out)
                line = err.decode(errors="replace").rstrip().rsplit("\n", 1)[-1]
                if line.startswith(TRACE_MARK):
                    records.append(json.loads(line[len(TRACE_MARK):]))
    return {
        "latencies": latencies,
        "failures": failures,
        "check_s": check_s,
        "records": records,
        "stdout_bytes": stdout_bytes,
    }


def lib_session(rounds, seconds: float, traced: bool, corrupt: int, env: dict) -> dict:
    cfg = {"rounds": rounds, "seconds": seconds, "trace": int(traced), "corrupt": corrupt}
    _, code, out, err = spawn([sys.executable, str(HERE / "worker.py")], env, json.dumps(cfg))
    if code != 0:
        raise BenchError("worker failed: " + err.decode(errors="replace").strip()[-2000:])
    return json.loads(out)


def session(workload, rounds, seconds, traced, corrupt, env) -> dict:
    if workload == "cli-cold":
        return cli_session(rounds, seconds, traced, corrupt, env)
    return lib_session(rounds, seconds, traced, corrupt, env)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; the maximum when fewer than eleven samples exist."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(res: dict, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    lat = res["latencies"]
    tail_s, pct = tail(lat)
    metrics = {
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "samples": len(lat),
        "tail_percentile": round(pct, 2),
    }
    return metrics, info


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(cost per call) against log(width)."""
    xs = [math.log(w) for w, _ in points]
    ys = [math.log(c) for _, c in points]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    den = sum((x - xm) ** 2 for x in xs)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / den if den else 0.0


def span_layers(spans) -> tuple[dict, dict]:
    """Busy time, calls, per-width busy time and growth exponent per layer,
    and the mean cost per call of each (layer, width) in ms."""
    busy: dict[tuple[str, int], float] = {}
    calls: dict[tuple[str, int], int] = {}
    for _, name, width, t0, t1 in spans:
        busy[name, width] = busy.get((name, width), 0.0) + t1 - t0
        calls[name, width] = calls.get((name, width), 0) + 1
    per_call = {key: 1000 * busy[key] / calls[key] for key in busy}
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (sum(v for (n, _), v in busy.items() if n == layer), "s")
        out[f"{layer}.calls"] = (sum(v for (n, _), v in calls.items() if n == layer), "count")
    for layer, widths in WIDTH_METRICS.items():
        for w in widths:
            out[f"{layer}.M{w}.busy_s"] = (busy.get((layer, w), 0.0), "s")
    for layer in GROWTH:
        points = sorted((w, c) for (n, w), c in per_call.items() if n == layer and c > 0)
        out[f"{layer}.growth_exp"] = (slope(points) if len(points) >= 2 else 0.0, "1")
    return out, per_call


def lib_layers(res: dict) -> dict:
    out = {f"{layer}.cache_hit_ratio": (res["caches"][layer], "1") for layer in CACHED}
    out["weno.sigma_pole_analysis.intervals"] = (res["intervals"], "count")
    out["weno.positivity_scan.rows"] = (res["rows"], "count")
    out["exact.max_coeff_bits"] = (res["max_coeff_bits"], "bit")
    out["exact.coeff_count"] = (res["coeff_count"], "count")
    return out


def cli_layers(res: dict) -> dict:
    recs = res["records"]
    hits = [r["tau_hits"] for r in recs if r["tau_hits"] is not None]
    misses = [r["tau_misses"] for r in recs if r["tau_misses"] is not None]
    ratio = sum(hits) / max(1, sum(hits) + sum(misses)) if hits else None
    return {
        "cli.main_s": (sum(r["main_s"] for r in recs), "s"),
        "cli.stdout_bytes": (res["stdout_bytes"], "B"),
        "deconv.tau.busy_s": (sum(r["tau_busy_s"] for r in recs), "s"),
        "deconv.tau.calls": (sum(r["tau_calls"] for r in recs), "count"),
        "deconv.tau.cache_hit_ratio": (ratio, "1"),
    }


def per_layer(workload: str, plain: dict, traced: dict, import_s: float, env: dict) -> tuple[dict, dict]:
    """Every per-layer metric, a layer the workload does not reach reading 0,
    and the per-call cost table of the traced spans."""
    layers, per_call = span_layers(traced.get("spans", []))
    layers.update({f"{layer}.cache_hit_ratio": (0.0, "1") for layer in CACHED})
    layers.update({name: (0, unit) for name, unit in (
        ("weno.sigma_pole_analysis.intervals", "count"), ("weno.positivity_scan.rows", "count"),
        ("exact.max_coeff_bits", "bit"), ("exact.coeff_count", "count"),
        ("cli.main_s", "s"), ("cli.stdout_bytes", "B"))})
    layers.update(cli_layers(traced) if workload == "cli-cold" else lib_layers(traced))
    walls = [spawn([sys.executable, "-c", "pass"], env)[0] for _ in range(SETUP_RUNS)]
    layers["cli.interpreter_s"] = (statistics.median(walls), "s")
    layers["cli.import_s"] = (import_s, "s")
    n = min(len(plain["latencies"]), len(traced["latencies"]))
    base = sum(plain["latencies"][:n])
    layers["bench.tracing_overhead_frac"] = (sum(traced["latencies"][:n]) / base - 1 if base else 0.0, "1")
    layers["bench.check_s"] = (traced["check_s"], "s")
    layers["bench.traced_requests"] = (len(traced["latencies"]), "count")
    return layers, per_call


def write_spans(workload: str, seed: int, traced: dict) -> Path:
    """Keep the traced run's spans (or CLI child records) beside the checkout."""
    out = Path.cwd() / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    fields = ("request", "name", "width", "start", "end")
    spans = [dict(zip(fields, span)) for span in traced.get("spans", [])]
    out.write_text(json.dumps({"spans": spans, "cli_records": traced.get("records", [])}))
    return out


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, default=0, metavar="N", help="falsify every Nth result")
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "reconkernel").is_dir():
        print("error: run from the repository root; src/reconkernel is missing", file=sys.stderr)
        return 2
    env = child_env()
    try:
        walls, inner = measure_setup(env, warm=True)
        rounds = workloads.build(args.workload, args.seed)
        if args.trace:
            plain = session(args.workload, rounds, args.seconds / 2, False, args.corrupt, env)
            traced = session(args.workload, rounds, args.seconds / 2, True, args.corrupt, env)
            results = [plain, traced]
        else:
            results = [session(args.workload, rounds, args.seconds, False, args.corrupt, env)]
        more_walls, more_inner = measure_setup(env, warm=False)
        setup_s = statistics.median(walls + more_walls)
        import_s = statistics.median(inner + more_inner)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        metrics, info = end_to_end(results[0], setup_s, peak_rss_mb)
        info["check_s"] = round(sum(res["check_s"] for res in results), 4)
        if args.trace:
            metrics, per_call = per_layer(args.workload, plain, traced, import_s, env)
            info["spans"] = write_spans(args.workload, args.seed, traced).name
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for res in results for f in res["failures"]]
    attempted = sum(len(res["latencies"]) for res in results)
    info["fail_frac"] = len(failures) / attempted
    if args.corrupt:
        info["corrupted"] = sum(-(-len(res["latencies"]) // args.corrupt) for res in results)
    for f in failures[:10]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    if args.trace:
        for layer in sorted({n for n, _ in per_call}):
            row = " ".join(f"M{w}={c:.3g}" for (n, w), c in sorted(per_call.items()) if n == layer)
            print(f"# ms per call {layer}: {row}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value if value is not None else 'null'} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
