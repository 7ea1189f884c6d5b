"""Command-line surface: evaluate, classify, tabulate, check, simulate.

Exit codes: 0 success, 2 parameter error, 3 numeric non-convergence,
4 permissibility failure.  Output goes to stdout or, with --output, is
written atomically (temp file + rename).  CSV uses a header row, '.'
decimals, repr-formatted floats (round-trip exact), newline-terminated.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import classify as C
from . import fields as F
from . import models as M
from .errors import (
    ConvergenceError,
    DomainError,
    NotPermissibleError,
    UnsupportedExpressionError,
)

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NUMERIC = 3
EXIT_PERMISSIBILITY = 4

_PARAM_FLAGS = ("alpha", "beta", "gamma", "epsilon", "theta", "eta", "lam")
_FLAG_TO_WIRE = {"lam": "lambda"}


@dataclass
class RunConfig:
    """One parsed invocation: exactly one command plus its knobs."""

    command: str
    model: Optional[str] = None
    params: Dict[str, float] = field(default_factory=dict)
    x: Optional[float] = None
    grid: Optional[str] = None
    dims: List[int] = field(default_factory=list)
    n: int = 0
    sets: int = 0
    trials: int = 0
    d_max: int = 0
    spacing: float = 1.0
    seed: int = 0
    tol: float = 1e-6
    convention: str = "squared_distance"
    output: Optional[str] = None

    def __post_init__(self):
        if self.tol <= 0.0:
            raise DomainError("tolerances must be positive")


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    params: Dict[str, float] = {}
    for flag in _PARAM_FLAGS:
        val = getattr(ns, flag, None)
        if val is not None:
            params[_FLAG_TO_WIRE.get(flag, flag)] = float(val)
    dims: List[int] = []
    if getattr(ns, "dims", None):
        try:
            dims = [int(d) for d in ns.dims.split(",") if d]
        except ValueError:
            raise DomainError(
                f"--dims must be comma-separated integers, got {ns.dims!r}"
            ) from None
    return RunConfig(
        command=ns.command,
        model=getattr(ns, "model", None) or getattr(ns, "family", None),
        params=params,
        x=getattr(ns, "x", None),
        grid=getattr(ns, "grid", None),
        dims=dims,
        n=getattr(ns, "n", 0),
        sets=getattr(ns, "sets", 0),
        trials=getattr(ns, "trials", 0),
        d_max=getattr(ns, "dmax", 0),
        spacing=getattr(ns, "spacing", 1.0),
        seed=getattr(ns, "seed", 0),
        tol=getattr(ns, "tol", 1e-6),
        convention=getattr(ns, "convention", "squared_distance"),
        output=getattr(ns, "output", None),
    )


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    for flag in _PARAM_FLAGS:
        wire = _FLAG_TO_WIRE.get(flag, flag)
        p.add_argument(f"--{wire}", dest=flag, type=float, default=None)


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
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("classify", help="three-valued permissibility verdict")
    p.add_argument("family", choices=("dagum", "aux-cm", "aux-lcm", "g"))
    _add_param_flags(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("figure1", help="threshold curves Psi, 1 + 1/beta, l, and beta*")
    p.add_argument("--grid", default="1:2:101", help="start:stop:count over beta")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("psd", help="eigenvalue checks on random point sets")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--dims", default="1,2,3,5")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--sets", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", choices=F.CONVENTIONS, default="squared_distance")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("search", help="random search for an indefinite configuration")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--dmax", type=int, default=5)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", choices=F.CONVENTIONS, default="squared_distance")
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("simulate", help="deterministic Gaussian profile draw")
    p.add_argument("model", choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("decouple", help="analytic local/tail exponent estimates")
    p.add_argument("--family", required=True, choices=sorted(M.MODELS))
    _add_param_flags(p)
    p.add_argument("--output", "-o", default=None)

    return parser


def _cmd_eval(cfg: RunConfig) -> int:
    rho = M.correlation(cfg.model, cfg.params)
    if (cfg.x is None) == (cfg.grid is None):
        raise DomainError("provide exactly one of --x or --grid")
    if cfg.x is not None and not math.isfinite(cfg.x):
        raise DomainError("--x must be finite")
    xs = [float(cfg.x)] if cfg.x is not None else [float(v) for v in _parse_grid(cfg.grid)]
    lines = ["x,value"]
    for x in xs:
        lines.append(f"{x!r},{rho(x)!r}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


def _cmd_classify(cfg: RunConfig) -> int:
    params = cfg.params

    def need(*names: str) -> List[float]:
        missing = [k for k in names if k not in params]
        if missing:
            raise DomainError(f"{cfg.model} requires {missing}")
        extra = [k for k in params if k not in names]
        if extra:
            raise DomainError(f"{cfg.model} got unknown parameters {extra}")
        return [params[k] for k in names]

    if cfg.model == "dagum":
        beta, gamma = need("beta", "gamma")
        verdict = C.classify_dagum(beta, gamma, cfg.tol)
    elif cfg.model == "aux-cm":
        alpha, beta = need("alpha", "beta")
        verdict = C.classify_aux_cm(alpha, beta)
    elif cfg.model == "aux-lcm":
        alpha, beta = need("alpha", "beta")
        verdict = C.classify_aux_lcm(alpha, beta, cfg.tol)
    else:
        alpha, lam = need("alpha", "lambda")
        verdict = C.classify_g(alpha, lam)
    _emit(verdict.to_json(), cfg.output)
    return EXIT_OK


def _cmd_figure1(cfg: RunConfig) -> int:
    betas = _parse_grid(cfg.grid)
    if len(betas) < 11:
        raise DomainError("figure1 grid needs at least 11 points")
    if betas[0] < 1.0 or betas[-1] > 2.0:
        raise DomainError("figure1 grid must lie within [1, 2]")
    lines = ["beta,psi_max,one_plus_inv_beta,l_beta"]
    try:
        for b in betas:
            b = float(b)
            psi_b = C.psi_max(b)
            lines.append(f"{b!r},{psi_b!r},{1.0 + 1.0 / b!r},{b * (psi_b - 1.0)!r}")
        star = C.beta_star(cfg.tol)
    except ConvergenceError as exc:
        lines.append(f"# error,non-convergence: {exc}")
        _emit("\n".join(lines) + "\n", cfg.output)
        print(f"dagum: numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    lines.append(f"# beta_star,{star!r}")
    _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


def _cmd_psd(cfg: RunConfig) -> int:
    M.make_model(cfg.model, cfg.params)  # validate before the expensive part
    if not cfg.dims or min(cfg.dims) < 1 or cfg.n < 2 or cfg.sets < 1:
        raise DomainError("need dims >= 1, n >= 2, sets >= 1")
    reports = []
    for d in cfg.dims:
        for k in range(cfg.sets):
            ps = F.random_point_set(d, cfg.n, cfg.seed, trial=k)
            reports.append(F.psd_check(cfg.model, cfg.params, ps, cfg.convention))
    _emit(F.psd_reports_to_csv(reports), cfg.output)
    return EXIT_OK


def _cmd_search(cfg: RunConfig) -> int:
    M.make_model(cfg.model, cfg.params)
    found = F.nonpsd_search(
        cfg.model, cfg.params, cfg.d_max, cfg.n, cfg.trials, cfg.seed, cfg.convention
    )
    if found is None:
        text = (
            F.PSD_CSV_HEADER
            + "\n"
            + f"# none,no indefinite configuration in {cfg.trials} trials"
            + f" (d<={cfg.d_max}, n={cfg.n}, seed={cfg.seed}); absence proves nothing\n"
        )
    else:
        _, report = found
        text = F.psd_reports_to_csv([report])
    _emit(text, cfg.output)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig) -> int:
    profile = F.simulate_profile(cfg.model, cfg.params, cfg.n, cfg.spacing, cfg.seed)
    _emit(F.profile_to_csv(profile), cfg.output)
    return EXIT_OK


def _cmd_decouple(cfg: RunConfig) -> int:
    M.make_model(cfg.model, cfg.params)
    local = F.estimate_local_exponent(cfg.model, cfg.params)
    tail = F.estimate_hurst_exponent(cfg.model, cfg.params)
    lines = [
        "family,params,local_exponent,tail_exponent",
        f"{cfg.model},{F._fmt_params(cfg.params)},{local!r},{tail!r}",
    ]
    _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


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
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _config_from_namespace(ns)
        return _COMMANDS[cfg.command](cfg)
    except (DomainError, UnsupportedExpressionError) as exc:
        print(f"dagum: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except NotPermissibleError as exc:
        print(f"dagum: {exc}", file=sys.stderr)
        return EXIT_PERMISSIBILITY
    except ConvergenceError as exc:
        print(f"dagum: numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
