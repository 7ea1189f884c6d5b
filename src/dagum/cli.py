"""Command-line surface: evaluate, classify, tabulate, check, simulate.

Exit codes: 0 success, 2 parameter error, 3 numeric non-convergence, a
degenerate exponent fit or an ``eval`` value, ``psd``/``search`` Gram entry or
``simulate`` model value whose float arithmetic overflows (or divides by an
underflowed power), 4 a ``simulate`` model whose circulant embedding stays
indefinite.  Each command returns its text and ``main`` writes it once: to
stdout or, with --output, atomically (temp file + rename).  CSV uses a header
row, '.' decimals, repr-formatted floats (round-trip exact), newline-terminated.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from . import classify as C
from . import fields as F
from . import models as M
from .errors import (
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    NotPermissibleError,
    NumericOverflowError,
    UnsupportedExpressionError,
)

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NUMERIC = 3
EXIT_PERMISSIBILITY = 4

# One flag per wire name, in order of first appearance in MODELS.
_PARAMS = tuple(dict.fromkeys(name for row in M.MODELS.values() for name in row.names))


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for name in _PARAMS:
        p.add_argument(f"--{name}", type=float, default=None)


def _params(ns: argparse.Namespace) -> Dict[str, float]:
    """The model parameters given on the command line, by wire name."""
    return {k: getattr(ns, k) for k in _PARAMS if getattr(ns, k) is not None}


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DomainError(f"grid must be start:stop:count, got {spec!r}") from None
    if not (n >= 1 and lo <= hi and math.isfinite(hi - lo)):
        raise DomainError("grid needs count >= 1 and finite stop >= start")
    return np.linspace(lo, hi, n)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dagum-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


PSD_CSV_HEADER = ("model,params,point_set_id,convention,n_points,dimension,"
                  "min_eigenvalue,max_eigenvalue,verdict")
PROFILE_CSV_HEADER = "index,position,value"


def _csv(header: str, rows: Iterable[str]) -> str:
    """A header row, then one row per line, newline-terminated."""
    return "\n".join([header, *rows]) + "\n"


def _fmt_params(params: Mapping[str, float]) -> str:
    return ";".join(f"{k}={params[k]!r}" for k in sorted(params))


def psd_reports_to_csv(reports: Sequence[F.PsdReport]) -> str:
    rows = (
        f"{r.model_id},{_fmt_params(r.params)},{r.point_set_id},{r.convention},"
        f"{r.n_points},{r.dimension},{r.min_eigenvalue!r},{r.max_eigenvalue!r},{r.verdict}"
        for r in reports
    )
    return _csv(PSD_CSV_HEADER, rows)


def profile_to_csv(profile: F.Profile) -> str:
    rows = (f"{i},{i * profile.spacing!r},{float(v)!r}" for i, v in enumerate(profile.values))
    return _csv(PROFILE_CSV_HEADER, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagum",
        description="Complete-monotonicity toolkit for the Dagum correlation family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a model at a point or on a grid")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")

    p = sub.add_parser("classify", help="three-valued permissibility verdict")
    p.add_argument("family", choices=tuple(C.CLASSIFIERS))
    _add_param_flags(p)
    p.add_argument("--tol", type=float, default=None, help="dagum and aux-lcm only")

    p = sub.add_parser("figure1", help="threshold curves Psi, 1 + 1/beta, l, and beta*")
    p.add_argument("--grid", default="1:2:101", help="start:stop:count over beta")

    p = sub.add_parser("psd", help="eigenvalue checks on random point sets")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--dims", default="1,2,3,5")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--sets", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", choices=F.CONVENTIONS, default="squared_distance")

    p = sub.add_parser("search", help="random search for an indefinite configuration")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--dmax", type=int, default=5)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", choices=F.CONVENTIONS, default="squared_distance")

    p = sub.add_parser("simulate", help="deterministic Gaussian profile draw")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decouple", help="analytic local/tail exponent estimates")
    p.add_argument("--family", required=True, choices=sorted(M.MODELS))
    _add_param_flags(p)

    for p in sub.choices.values():  # last in each parser, as --help lists it
        p.add_argument("--output", "-o", default=None)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and then shared.

    ``parse_args`` leaves a parser unchanged and parses into a fresh
    namespace, so repeated and concurrent calls may share one.
    """
    return build_parser()


def _cmd_eval(ns: argparse.Namespace) -> str:
    p, evaluator = M.make_model(ns.model, _params(ns))
    if (ns.x is None) == (ns.grid is None):
        raise DomainError("provide exactly one of --x or --grid")
    if ns.x is not None and not math.isfinite(ns.x):
        raise DomainError("--x must be finite")
    xs = [ns.x] if ns.x is not None else _parse_grid(ns.grid).tolist()
    try:
        # The domain check at the smallest x (grids are nondecreasing), then one
        # call on Python floats in an object array: the scalar path's bits.  A
        # float product that overflows sets the flag that numpy raises on here.
        evaluator(p, xs[0])
        with np.errstate(over="raise"):
            values = evaluator(p, np.array(xs, dtype=object))
    except (OverflowError, FloatingPointError, ZeroDivisionError):
        raise NumericOverflowError(f"{ns.model} leaves the float range") from None
    return _csv("x,value", (f"{x!r},{v!r}" for x, v in zip(xs, values)))


def _cmd_classify(ns: argparse.Namespace) -> str:
    classifier, model_id, takes_tol = C.CLASSIFIERS[ns.family]
    if ns.tol is not None:
        if not (math.isfinite(ns.tol) and ns.tol > 0.0):
            raise DomainError("--tol must be finite and > 0")
        if not takes_tol:
            raise DomainError(f"classify {ns.family} takes no --tol")
    args = M.take_params(ns.family, _params(ns), M.MODELS[model_id].names)
    verdict = classifier(*args) if ns.tol is None else classifier(*args, ns.tol)
    return verdict.to_json()


def _cmd_figure1(ns: argparse.Namespace) -> str:
    betas = _parse_grid(ns.grid)
    if betas[0] < 1.0 or betas[-1] > 2.0:
        raise DomainError("figure1 grid must lie within [1, 2]")
    table = C.ThresholdTable.build(len(betas), betas[0], betas[-1])
    cols = (table.beta_grid.tolist(), table.psi_values.tolist(), table.l_values.tolist())
    rows = [f"{b!r},{psi_b!r},{1.0 + 1.0 / b!r},{l_b!r}" for b, psi_b, l_b in zip(*cols)]
    rows.append(f"# beta_star,{table.beta_star!r}")
    return _csv("beta,psi_max,one_plus_inv_beta,l_beta", rows)


def _cmd_psd(ns: argparse.Namespace) -> str:
    params = _params(ns)
    try:
        dims = [int(d) for d in ns.dims.split(",") if d]
    except ValueError:
        raise DomainError(f"--dims must be comma-separated integers, got {ns.dims!r}") from None
    if not dims or min(dims) < 1 or ns.n < 2 or ns.sets < 1:
        raise DomainError("need dims >= 1, n >= 2, sets >= 1")
    reports = []
    for d in dims:
        for k in range(ns.sets):
            ps = F.random_point_set(d, ns.n, ns.seed, trial=k)
            reports.append(F.psd_check(ns.model, params, ps, ns.convention))
    return psd_reports_to_csv(reports)


def _cmd_search(ns: argparse.Namespace) -> str:
    params = _params(ns)
    found = F.nonpsd_search(ns.model, params, ns.dmax, ns.n, ns.trials, ns.seed, ns.convention)
    if found is not None:
        return psd_reports_to_csv([found[1]])
    none = (f"# none,no indefinite configuration in {ns.trials} trials"
            f" (d<={ns.dmax}, n={ns.n}, seed={ns.seed}); absence proves nothing")
    return _csv(PSD_CSV_HEADER, [none])


def _cmd_simulate(ns: argparse.Namespace) -> str:
    return profile_to_csv(F.simulate_profile(ns.model, _params(ns), ns.n, ns.spacing, ns.seed))


def _cmd_decouple(ns: argparse.Namespace) -> str:
    params = _params(ns)
    local = F.estimate_local_exponent(ns.family, params)
    tail = F.estimate_hurst_exponent(ns.family, params)
    row = f"{ns.family},{_fmt_params(params)},{local!r},{tail!r}"
    return _csv("family,params,local_exponent,tail_exponent", [row])


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "figure1": _cmd_figure1,
    "psd": _cmd_psd,
    "search": _cmd_search,
    "simulate": _cmd_simulate,
    "decouple": _cmd_decouple,
}


def main(argv: Optional[List[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        _emit(_COMMANDS[ns.command](ns), ns.output)
        return EXIT_OK
    except (DomainError, UnsupportedExpressionError) as exc:
        print(f"dagum: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except NotPermissibleError as exc:
        print(f"dagum: {exc}", file=sys.stderr)
        return EXIT_PERMISSIBILITY
    except ConvergenceError as exc:
        print(f"dagum: numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DegenerateFitError as exc:
        print(f"dagum: degenerate exponent fit: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NumericOverflowError as exc:
        print(f"dagum: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
