"""The command lines whose stdout CI compares across BLAS thread counts, CPU
sets, numpy's CPU dispatch and the parent commit: the bench workloads' ops
and the cases below.

    PYTHONPATH=src python tests/stdout_ops.py > stdout.txt

runs each line through ``dagum.cli.main`` in one process and writes, per line,
"argv -> exit code", its stdout and its stderr, ending in a NUL.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def bench_ops(workload: str, seeds) -> list:
    return [op["argv"] for seed in seeds for op in workloads.build(workload, seed)]


OPS = [*bench_ops("certify", (1, 2, 3)), *bench_ops("figure1", (1,)), *bench_ops("fields", (1, 2, 3))]
# the eta certificates and c_bounds brackets of seven more certify seeds
OPS += [op["argv"] for seed in range(4, 11) for op in workloads.build("certify", seed)
        if op["kind"] in ("eta_cert", "undetermined")]
# 1001 betas: many groups of psi_max's rules, the last one short
OPS += [["figure1", "--grid", "1:2:1001"]]
# eta sign scans on the spectral rule within 2.5e-4 of b = 2 and b = 1
OPS += [["classify", "aux-cm", "--alpha", a, "--beta", b]
        for a, b in (("0.9995", "1.9998"), ("0.99980001", "1.9998"), ("0.3", "1.0001"))]
# phi sign scans (a = 0), which no certify op reaches
OPS += [["classify", "aux-cm", "--alpha", "0", "--beta", b] for b in ("1.5", "1.9998")]
# the Cholesky screen of search: a CM search whose every factorization completes,
# one whose every factorization fails on a psd trial (smooth, 1-D), and two
# Gram matrices with non-finite entries (exit 3, the line on stderr)
OPS += [["search", "dagum", "--beta", "0.5", "--gamma", "0.5", "--n", "200", "--trials", "200", "--seed", "3"],
        ["search", "cauchy", "--theta", "2", "--eta", "1", "--n", "100", "--trials", "10", "--dmax", "1",
         "--convention", "plain_distance"],
        ["psd", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "20", "--sets", "1", "--dims", "1"],
        ["search", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "20", "--trials", "3"]]
# psd's lanes: 21 sets at n = 60 in chunks of 9, and the default 80 sets at
# n = 200 in chunks of 3, whose last chunk holds 2
OPS += [["psd", "cauchy", "--theta", "1.5", "--eta", "0.7", "--dims", "1,2,3", "--n", "60", "--sets", "7",
         "--seed", "5"],
        ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--sets", "20"]]
# the largest n at which psd's bits were measured not to depend on the BLAS
# thread count (n <= 144 and multiples of 8 up to 200; at 201 they differ)
OPS += [["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--sets", "2", "--dims", "2", "--n", "200"]]
# a model value past the float range in simulate's circulant embedding (exit 3)
OPS += [["simulate", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "8", "--spacing", "10"]]
# decouple, once with a degenerate fit (exit 3), and a one-point eval
OPS += [["decouple", "--family", "dagum5", "--gamma", "1", "--epsilon", "0.5"],
        ["decouple", "--family", "aux", "--alpha", "0.5", "--beta", "1.5"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "1"]]
# an eta scan that keeps no node of the rule, just above b = 1, which
# raised before the scan's basis took explicit shapes
OPS += [["classify", "aux-cm", "--alpha", "0.3", "--beta", "1.000000001"]]
# eval products that overflow (exit 3), which printed 0.0 before
OPS += [["eval", "g", "--alpha", "0", "--lambda", "0.5", "--x", "1e200"],
        ["eval", "aux", "--alpha", "1", "--beta", "1.5", "--grid", "1e150:1e200:3"]]
# Dagum at b = 2 exactly, decided by Remark 4(iv), once at a gamma where
# 1 - 2g and 1 + g both round to 1.0
OPS += [["classify", "dagum", "--beta", "2", "--gamma", g] for g in ("0.2", "1e-17")]
# the cauchy and g semivariograms, which only decouple reaches
OPS += [["decouple", "--family", "cauchy", "--theta", "1.5", "--eta", "0.5"],
        ["decouple", "--family", "g", "--alpha", "0", "--lambda", "0.7"]]
# contour values: eta near b = 1, where each close call of the witness search
# goes to the contour (4095 calls), and an eta_sign certificate near b = 2
# refined on the contour
OPS += [["classify", "aux-cm", "--alpha", "1e-12", "--beta", "1.0000001"],
        ["classify", "aux-cm", "--alpha", "0.5", "--beta", "1.99999999"]]
# lines that are not canonical, so argparse parses them: abbreviated flags,
# --flag=value, a repeated flag (the last one holds), a flag before the
# positional and a value that starts with '-'
NOT_CANONICAL = [["classify", "dagum", "--bet", "1.5", "--gam", "0.3"],
                 ["classify", "aux-cm", "--alpha=0.3", "--beta=1.5"],
                 ["classify", "g", "--alpha", "9", "--alpha", "0.6", "--lambda", "0.5"],
                 ["classify", "--alpha", "0.3", "aux-cm", "--beta", "1.5"],
                 ["eval", "cauchy", "--theta", "1", "--eta", "1", "--x", "-0.0"]]
OPS += NOT_CANONICAL


def main() -> int:
    from dagum import cli

    for argv in OPS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        sys.stdout.write(f"{argv} -> {rc}\n{out.getvalue()}{err.getvalue()}\0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
