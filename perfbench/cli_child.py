"""Traced stand-in for `python -m reconkernel.cli`, used by traced runs only.

Times the import of the CLI and its `main(argv)`, and the calls the CLI makes
to `tau`, then exits with main's code.  Stdout is exactly the CLI's; the
timings go to stderr as one line starting with TRACE_MARK.
"""

import json
import sys
from time import perf_counter

TRACE_MARK = "perfbench-trace "


def main() -> int:
    t0 = perf_counter()
    import reconkernel.cli as cli

    t1 = perf_counter()
    tau_spans = []
    tau = getattr(cli, "tau", None)
    if tau is not None:

        def traced_tau(n):
            a = perf_counter()
            try:
                return tau(n)
            finally:
                tau_spans.append(perf_counter() - a)

        cli.tau = traced_tau

    t2 = perf_counter()
    code = cli.main(sys.argv[1:])
    t3 = perf_counter()
    sys.stdout.flush()
    deconv = sys.modules.get("reconkernel.deconv")
    info = getattr(getattr(deconv, "tau", None), "cache_info", None)
    ci = info() if info is not None else None
    record = {
        "import_s": t1 - t0,
        "main_s": t3 - t2,
        "tau_busy_s": sum(tau_spans),
        "tau_calls": len(tau_spans),
        "tau_hits": ci.hits if ci else None,
        "tau_misses": ci.misses if ci else None,
    }
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
