"""One benchmark batch in a fresh interpreter.

Reads ``{"ops": [argv, ...], "trace": bool, "sample": bool, "spans": path
or null}`` as JSON on stdin, imports `dagum` (timed), runs each command
line through ``dagum.cli.main`` one after another with stdout and stderr
captured, and writes one JSON result to stdout: per operation the exit
code, output and latency, plus the import time, the peak resident memory
and, when traced, the per-layer counts and span times.  With ``sample``
each timing also carries the median host-speed probe taken around and
during it (``hostspeed.py``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import hostspeed  # this script's directory is first on sys.path


def run(cli, argv: list, out: io.StringIO, err: io.StringIO) -> int:
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # reported as a failed operation, never dropped
        err.write(traceback.format_exc())
        return -1


def main() -> int:
    job = json.load(sys.stdin)
    sampler = hostspeed.Sampler() if job.get("sample") else None

    def timed(fn):
        if sampler is not None:
            return sampler.time(fn)
        t = perf_counter()
        value = fn()
        return value, perf_counter() - t, None

    cli, import_s, import_probe_s = timed(lambda: importlib.import_module("dagum.cli"))

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    for argv in job["ops"]:
        out, err = io.StringIO(), io.StringIO()
        rc, dt, probe_s = timed(lambda: run(cli, argv, out, err))
        results.append({"rc": rc, "latency_s": dt, "probe_s": probe_s,
                        "out": out.getvalue(), "err": err.getvalue()})

    report = {
        "import_s": import_s,
        "import_probe_s": import_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counts"] = dict(tracer.counts)
        report["c_bounds_steps"] = tracer.children_of("classify.c_bounds", "classify.eta_witness")
        report["search_trials"] = tracer.children_of("fields.nonpsd_search", "fields.psd_check")
        report["phi_table_builds"] = len(tracer.build_spans)
        report["phi_table_build_s"] = tracer.build_s()
        if job.get("spans"):
            tracer.dump(job["spans"])
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
