"""Benchmark for the `dagum` toolkit: one workload per invocation.

    python3 bench/run.py --workload {figure1,certify,fields} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each batch of operations runs in a fresh interpreter, so the
per-beta caches start cold and import is paid as a CLI user pays it.
Every operation is one ``dagum.cli.main(argv)`` call with stdout captured,
issued by one closed-loop client (the next operation starts when the last
one returns), with the BLAS and OpenMP pools pinned to one thread.

``--trace 0`` runs the workload's operations in a fixed number of batches
(set by ``--seconds``) and prints the end-to-end metrics: the median import
time over several fresh interpreters (``setup_s``), then, from each
operation's fastest repeat, the total (``wall_s``) and the median
operation latency, and the median peak memory.  The tail latency (the
highest percentile with at least ten operations beyond it) is printed but
only in the details: every end-to-end metric is reported on every workload,
and only certify has enough operations for a tail (figure1 has one per
batch, fields ten, where it would be the maximum).  Every timing is first
scaled to a reference host speed measured by a probe loop around and
during it (``hostspeed.py``), because a shared host runs Python up to 1.7
times slower in spells of seconds; the unscaled readings are in the
details line.  ``--trace 1`` runs one untraced and two traced batches and
prints the per-layer metrics: counts and self times taken by wrapping
`dagum` functions from outside (see ``spans.py`` and ``layers.py``), the
import breakdown from ``-X importtime`` and the tracing overhead.  Traced outputs must equal the
untraced ones byte for byte, and the exact counts must repeat between the
two traced batches.

Every output is checked (``checks.py``); a failed operation or check counts
in ``failed``.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# One BLAS/OpenMP thread here and, through the inherited environment, in
# every interpreter started below; set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


class Runner:
    def __init__(self):
        self.t0 = perf_counter()
        self.env = child_env()

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.t0)

    def python(self, args: list, stdin: str = "") -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True, text=True,
            cwd=ROOT, env=self.env, timeout=max(self.remaining(), 1.0),
        )

    def batch(self, ops: list, trace: bool, sample: bool = False, spans_path=None):
        """Run ops in a fresh interpreter; None if the interpreter failed."""
        job = {"ops": [op["argv"] for op in ops], "trace": trace, "sample": sample,
               "spans": str(spans_path) if spans_path else None}
        try:
            proc = self.python([str(HERE / "worker.py")], json.dumps(job))
        except subprocess.TimeoutExpired:
            print("batch timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"batch interpreter failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(proc.stdout)

    def import_breakdown(self) -> dict:
        proc = self.python(["-X", "importtime", "-c", "import dagum.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"importing dagum failed:\n{proc.stderr[-2000:]}")
        return layers.parse_importtime(proc.stderr)


def judge(ops: list, reports: list) -> tuple:
    """Check outputs; returns (attempted, failed, reasons).

    The first batch's outputs are checked and their certificates confirmed
    independently; every later batch must reproduce them byte for byte.
    """
    first = reports[0]
    verdicts = [None] * len(ops)
    if first is not None:
        verdicts = [checks.check(op, res) or checks.confirm(op, res["out"])
                    for op, res in zip(ops, first["ops"])]
    attempted = failed = 0
    reasons = []
    for b, rep in enumerate(reports):
        for i, op in enumerate(ops):
            attempted += 1
            if rep is None or first is None:
                why = "batch interpreter failed"
            elif rep["ops"][i]["out"] != first["ops"][i]["out"]:
                why = "output differs from the first batch"
            else:
                why = verdicts[i]
            if why:
                failed += 1
                reasons.append(f"batch {b} op {i} {' '.join(op['argv'])}: {why}")
    return attempted, failed, reasons


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond
    it: the 11th largest.  Below 11 samples it is the maximum."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def _summary(xs: list) -> list:
    return [min(xs), statistics.median(xs), max(xs)]


def end_to_end(runner: Runner, ops: list, n_batches: int) -> tuple:
    """Times each operation in n_batches fresh interpreters.

    Other tenants of a shared host only ever add time, so an operation's
    latency is its fastest repeat; the metrics are the sum and the median
    of those per-operation times, and their tail goes in the details.
    Every timing is first scaled to the reference host speed
    (``hostspeed.py``); the unscaled readings are kept in the details.
    ``setup_s`` is the median scaled import time over every interpreter
    started, topped up with interpreters that only import to at least
    SETUP_REPEATS.
    """
    reports, imports = [], []
    for k in range(max(n_batches, SETUP_REPEATS)):
        if k < n_batches:
            reports.append(runner.batch(ops, trace=False, sample=True))
        else:
            imports.append(runner.batch([], trace=False, sample=True))
    done = [r for r in reports if r is not None]
    attempted, failed, reasons = judge(ops, reports)
    info = {"batches": n_batches}
    if not done or None in imports:
        return {}, attempted, failed, reasons, info
    setup = [hostspeed.scaled(r["import_s"], r["import_probe_s"]) for r in done + imports]

    def fastest(scale: bool) -> list:
        return [min(hostspeed.scaled(r["ops"][i]["latency_s"], r["ops"][i]["probe_s"])
                    if scale else r["ops"][i]["latency_s"] for r in done)
                for i in range(len(ops))]

    best, unscaled = fastest(True), fastest(False)
    tail_s, pct, beyond = tail(best)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    info.update(
        op_tail_s=tail_s,
        setup_samples_s=setup,
        unscaled={"wall_s": sum(unscaled), "op_p50_s": statistics.median(unscaled),
                  "op_tail_s": tail(unscaled)[0]},
        raw_batch_wall_s=[sum(op["latency_s"] for op in r["ops"]) for r in done],
        probe_s_min_median_max=_summary([op["probe_s"] for r in done for op in r["ops"]]),
        op_samples=len(best), repeats_per_op=len(done), tail_percentile=pct,
        tail_samples_beyond=beyond, failed_ratio=failed / attempted)
    return metrics, attempted, failed, reasons, info


def per_layer(runner: Runner, ops: list, workload: str) -> tuple:
    SPANS_DIR.mkdir(exist_ok=True)
    plain = runner.batch(ops, trace=False)
    traced = [runner.batch(ops, trace=True,
                           spans_path=SPANS_DIR / f"spans-{workload}-{k}.json")
              for k in range(2)]
    reports = [plain, *traced]
    attempted, failed, reasons = judge(ops, reports)
    if any(r is None for r in reports):
        return {}, attempted, failed, reasons, {}
    exact = [layers.exact_counts(r) for r in traced]
    if exact[0] != exact[1]:
        reasons.append(f"exact counts differ between same-input traced runs: {exact}")
    wall = [sum(op["latency_s"] for op in r["ops"]) for r in reports]
    overhead = 100.0 * (statistics.mean(wall[1:]) / wall[0] - 1.0)
    metrics = layers.values(traced, runner.import_breakdown(), overhead)
    info = {"untraced_wall_s": wall[0], "traced_wall_s": wall[1:],
            "exact_counts": exact[0], "failed_ratio": failed / attempted}
    return metrics, attempted, failed, reasons, info


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dagum" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no dagum sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))  # for the certificate confirmations only

    ops = workloads.build(args.workload, args.seed)
    runner = Runner()
    if args.trace:
        wanted = spec["per_layer"]
        metrics, attempted, failed, reasons, info = per_layer(runner, ops, args.workload)
    else:
        wanted = spec["end_to_end"]
        n = workloads.batches_for(args.workload, args.seconds)
        metrics, attempted, failed, reasons, info = end_to_end(runner, ops, n)

    for why in reasons[:20]:
        print(f"FAILED {why}")
    correct = not reasons and all(m["name"] in metrics for m in wanted)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/batch={len(ops)} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g}")
    for m in wanted:
        value = metrics.get(m["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        moves = f"  should move: {layers.MOVES[m['name']]}" if args.trace else ""
        print(f"  {m['name']:<40} {shown:>14} {m['unit']:<10}{moves}")
    if "op_tail_s" in info:
        print(f"  {'op_tail_s (details only)':<40} {info['op_tail_s']:>14.6g} s         "
              f"p{info['tail_percentile']:.4g} of {info['op_samples']} operations, "
              f"{info['tail_samples_beyond']} beyond")
    print(json.dumps({"environment": environment(), "details": info}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
