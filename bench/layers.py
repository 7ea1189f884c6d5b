"""Per-layer metrics from the traced batches, and what each should move.

``MOVES`` is the map from each per-layer metric to the end-to-end metric
and workload it should move, written down before any optimisation is
measured.  A metric whose layer does no work on a workload reads 0 there;
that is the no-change prediction for optimisations of that layer.

Counts are exact and repeat bit for bit between same-input runs (the runner
checks the ones in ``EXACT``).  Times are seconds summed over the batch;
``self_s`` is a span's duration minus its child spans.  Two counts are
computed rather than observed: ``kernels.psi_values.exp_evals`` is points
times quadrature nodes, and ``fields.gram_matrix.bytes`` is 8 n^2 per
matrix.
"""

from __future__ import annotations

import re
import statistics

MOVES = {
    "numerics.integrate.calls": "wall_s, op_tail_s on certify; not figure1",
    "numerics.integrate.integrand_evals": "wall_s, op_tail_s on certify; not figure1",
    "numerics.integrate.evals_per_call": "wall_s, op_tail_s on certify; not figure1",
    "numerics.integrate.self_s": "wall_s, op_tail_s on certify; not figure1",
    "numerics.integrate.convergence_errors": "wall_s, op_tail_s on certify; not figure1",
    "numerics.maximize_1d.calls": "wall_s on figure1; op_p50_s on certify",
    "numerics.maximize_1d.objective_evals": "wall_s on figure1; op_p50_s on certify",
    "numerics.maximize_1d.self_s": "wall_s on figure1; op_p50_s on certify",
    "numerics.find_root.objective_evals": "wall_s on figure1",
    "kernels.psi_evaluator.builds": "wall_s on figure1",
    "kernels.psi_evaluator.build_s": "wall_s on figure1",
    "kernels.psi_values.points": "wall_s on figure1",
    "kernels.psi_values.exp_evals": "wall_s on figure1",
    "kernels.psi_values.s": "wall_s on figure1",
    "kernels.phi_table.calls": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.phi_table.builds": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.phi_table.hit_ratio": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.phi_table.build_s": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.eta_grid.calls": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.eta_grid.points": "wall_s, op_tail_s, peak_rss_mb on certify",
    "kernels.eta_grid.s": "wall_s, op_tail_s, peak_rss_mb on certify",
    "classify.psi_max.calls": "wall_s on figure1",
    "classify.psi_max.s": "wall_s on figure1",
    "classify.beta_star.s": "wall_s on figure1",
    "classify.eta_witness.calls": "wall_s, op_tail_s on certify",
    "classify.eta_witness.hit_ratio": "wall_s, op_tail_s on certify",
    "classify.c_bounds.steps": "wall_s, op_tail_s on certify",
    "classify.c_bounds.s": "wall_s, op_tail_s on certify",
    "classify.cm_scan.s": "wall_s on certify",
    "taylor.taylor_eval.calls": "op_p50_s on certify",
    "taylor.taylor_eval.s": "op_p50_s on certify",
    "models.correlation.calls": "wall_s on fields (eval)",
    "models.point_evals": "wall_s on fields (eval)",
    "fields.gram_matrix.calls": "wall_s on fields",
    "fields.gram_matrix.entries": "wall_s on fields",
    "fields.gram_matrix.bytes": "wall_s on fields (computed, 8 n^2 per matrix)",
    "fields.gram_matrix.s": "wall_s on fields",
    "fields.psd_check.self_s": "wall_s on fields (the eigen-solve)",
    "fields.simulate_profile.self_s": "wall_s on fields (the Cholesky)",
    "fields.nonpsd_search.trials": "wall_s on fields",
    "fields.nonpsd_search.found_ratio": "wall_s on fields",
    "cli.calls": "op_p50_s on certify",
    "cli.self_s": "op_p50_s on certify (argparse, formatting, emit)",
    "import.dagum_s": "setup_s on every workload",
    "import.numpy_s": "setup_s on every workload",
    "import.scipy_s": "setup_s on every workload",
    "import.scipy_interpolate_s": "setup_s on every workload",
    "trace.overhead_pct": "none: cost of the traced run over the untraced one",
}

# Counts that must repeat bit for bit between two same-input traced runs.
EXACT = (
    "numerics.integrate.integrand_evals",
    "numerics.maximize_1d.objective_evals",
    "numerics.find_root.objective_evals",
    "kernels.psi_values.exp_evals",
    "fields.gram_matrix.entries",
)


def exact_counts(report: dict) -> dict:
    calls = {name: row["calls"] for name, row in report["spans"].items()}
    return {**{k: report["counts"].get(k, 0) for k in EXACT}, "span_calls": calls}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def values(reports: list, imports: dict, overhead_pct: float) -> dict:
    """Per-layer metrics: counts from the first traced batch (they repeat),
    times averaged over the traced batches."""
    first = reports[0]
    count = first["counts"]

    def calls(name):
        return first["spans"].get(name, {}).get("calls", 0)

    def secs(name, field="total_s"):
        return statistics.mean(r["spans"].get(name, {}).get(field, 0.0) for r in reports)

    def c(key):
        return count.get(key, 0)

    phi_calls = calls("kernels.phi_table")
    return {
        "numerics.integrate.calls": calls("numerics.integrate"),
        "numerics.integrate.integrand_evals": c("numerics.integrate.integrand_evals"),
        "numerics.integrate.evals_per_call": _ratio(
            c("numerics.integrate.integrand_evals"), calls("numerics.integrate")),
        "numerics.integrate.self_s": secs("numerics.integrate", "self_s"),
        "numerics.integrate.convergence_errors": c("numerics.integrate.errors"),
        "numerics.maximize_1d.calls": calls("numerics.maximize_1d"),
        "numerics.maximize_1d.objective_evals": c("numerics.maximize_1d.objective_evals"),
        "numerics.maximize_1d.self_s": secs("numerics.maximize_1d", "self_s"),
        "numerics.find_root.objective_evals": c("numerics.find_root.objective_evals"),
        "kernels.psi_evaluator.builds": calls("kernels.psi_evaluator.build"),
        "kernels.psi_evaluator.build_s": secs("kernels.psi_evaluator.build"),
        "kernels.psi_values.points": c("kernels.psi_values.points"),
        "kernels.psi_values.exp_evals": c("kernels.psi_values.exp_evals"),
        "kernels.psi_values.s": secs("kernels.psi_values"),
        "kernels.phi_table.calls": phi_calls,
        "kernels.phi_table.builds": first["phi_table_builds"],
        "kernels.phi_table.hit_ratio": _ratio(phi_calls - first["phi_table_builds"], phi_calls),
        "kernels.phi_table.build_s": statistics.mean(r["phi_table_build_s"] for r in reports),
        "kernels.eta_grid.calls": calls("kernels.eta_grid"),
        "kernels.eta_grid.points": c("kernels.eta_grid.points"),
        "kernels.eta_grid.s": secs("kernels.eta_grid"),
        "classify.psi_max.calls": calls("classify.psi_max"),
        "classify.psi_max.s": secs("classify.psi_max"),
        "classify.beta_star.s": secs("classify.beta_star"),
        "classify.eta_witness.calls": calls("classify.eta_witness"),
        "classify.eta_witness.hit_ratio": _ratio(
            c("classify.eta_witness.certificates"), calls("classify.eta_witness")),
        "classify.c_bounds.steps": first["c_bounds_steps"],
        "classify.c_bounds.s": secs("classify.c_bounds"),
        "classify.cm_scan.s": secs("classify.cm_scan"),
        "taylor.taylor_eval.calls": calls("taylor.taylor_eval"),
        "taylor.taylor_eval.s": secs("taylor.taylor_eval"),
        "models.correlation.calls": calls("models.correlation"),
        "models.point_evals": c("models.point_evals"),
        "fields.gram_matrix.calls": calls("fields.gram_matrix"),
        "fields.gram_matrix.entries": c("fields.gram_matrix.entries"),
        "fields.gram_matrix.bytes": c("fields.gram_matrix.bytes"),
        "fields.gram_matrix.s": secs("fields.gram_matrix"),
        "fields.psd_check.self_s": secs("fields.psd_check", "self_s"),
        "fields.simulate_profile.self_s": secs("fields.simulate_profile", "self_s"),
        "fields.nonpsd_search.trials": first["search_trials"],
        "fields.nonpsd_search.found_ratio": _ratio(
            c("fields.nonpsd_search.found"), calls("fields.nonpsd_search")),
        "cli.calls": calls("cli.main"),
        "cli.self_s": secs("cli.main", "self_s"),
        **imports,
        "trace.overhead_pct": overhead_pct,
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Split `python -X importtime -c "import dagum.cli"` into the total
    and the self time spent in numpy and scipy modules."""
    total = numpy = scipy = interp = 0
    for m in _IMPORT_LINE.finditer(stderr):
        own, cum, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        top = name.split(".")[0]
        if top == "dagum" and indent == 1:
            total += cum
        elif top == "numpy":
            numpy += own
        elif top == "scipy":
            scipy += own
        if name == "scipy.interpolate" and not interp:
            interp = cum
    return {
        "import.dagum_s": total * 1e-6,
        "import.numpy_s": numpy * 1e-6,
        "import.scipy_s": scipy * 1e-6,
        "import.scipy_interpolate_s": interp * 1e-6,
    }
