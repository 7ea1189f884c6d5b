"""Command-line surface: evaluate, classify, tabulate, check, simulate.

Exit codes: 0 success, 2 parameter error, 3 numeric non-convergence, a
degenerate exponent fit or an ``eval`` value, ``psd``/``search`` Gram entry or
``simulate`` model value whose float arithmetic overflows (or divides by an
underflowed power), 4 a ``simulate`` model whose circulant embedding stays
indefinite.  Each command returns its text and ``main`` writes it once: to
stdout or, with --output, atomically (temp file + rename); an --output path
that cannot be written (a missing directory, a directory) exits 2 and leaves
no temp file.  CSV uses a header row, '.' decimals, repr-formatted floats
(round-trip exact), newline-terminated.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from . import classify as C
from . import models as M
from .errors import (
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    NotPermissibleError,
    NumericOverflowError,
    UnsupportedExpressionError,
)

if TYPE_CHECKING:  # annotations only: the field commands load fields, build_parser argparse
    import argparse

    from . import fields as F

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NUMERIC = 3
EXIT_PERMISSIBILITY = 4

# One flag per wire name, in order of first appearance in MODELS.
_PARAMS = tuple(dict.fromkeys(name for row in M.MODELS.values() for name in row.names))


def _params(ns: SimpleNamespace) -> Dict[str, float]:
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
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dagum-tmp-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except OSError as exc:
        raise DomainError(f"cannot write --output {output}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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


def _cmd_eval(ns: SimpleNamespace) -> str:
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


def _cmd_classify(ns: SimpleNamespace) -> str:
    classifier, model_id, takes_tol = C.CLASSIFIERS[ns.family]
    if ns.tol is not None:
        if not (math.isfinite(ns.tol) and ns.tol > 0.0):
            raise DomainError("--tol must be finite and > 0")
        if not takes_tol:
            raise DomainError(f"classify {ns.family} takes no --tol")
    args = M.take_params(ns.family, _params(ns), M.MODELS[model_id].names)
    verdict = classifier(*args) if ns.tol is None else classifier(*args, ns.tol)
    return verdict.to_json()


def _cmd_figure1(ns: SimpleNamespace) -> str:
    betas = _parse_grid(ns.grid)
    if betas[0] < 1.0 or betas[-1] > 2.0:
        raise DomainError("figure1 grid must lie within [1, 2]")
    table = C.ThresholdTable.build(len(betas), betas[0], betas[-1])
    cols = (table.beta_grid.tolist(), table.psi_values.tolist(), table.l_values.tolist())
    rows = [f"{b!r},{psi_b!r},{1.0 + 1.0 / b!r},{l_b!r}" for b, psi_b, l_b in zip(*cols)]
    rows.append(f"# beta_star,{table.beta_star!r}")
    return _csv("beta,psi_max,one_plus_inv_beta,l_beta", rows)


def _cmd_psd(ns: SimpleNamespace) -> str:
    from . import fields as F

    params = _params(ns)
    try:
        dims = [int(d) for d in ns.dims.split(",") if d]
    except ValueError:
        raise DomainError(f"--dims must be comma-separated integers, got {ns.dims!r}") from None
    reports = F.psd_checks(ns.model, params, dims, ns.n, ns.sets, ns.seed, ns.convention)
    return psd_reports_to_csv(reports)


def _cmd_search(ns: SimpleNamespace) -> str:
    from . import fields as F

    params = _params(ns)
    found = F.nonpsd_search(ns.model, params, ns.dmax, ns.n, ns.trials, ns.seed, ns.convention)
    if found is not None:
        return psd_reports_to_csv([found[1]])
    none = (f"# none,no indefinite configuration in {ns.trials} trials"
            f" (d<={ns.dmax}, n={ns.n}, seed={ns.seed}); absence proves nothing")
    return _csv(PSD_CSV_HEADER, [none])


def _cmd_simulate(ns: SimpleNamespace) -> str:
    from . import fields as F

    return profile_to_csv(F.simulate_profile(ns.model, _params(ns), ns.n, ns.spacing, ns.seed))


def _cmd_decouple(ns: SimpleNamespace) -> str:
    from . import fields as F

    params = _params(ns)
    local = F.estimate_local_exponent(ns.family, params)
    tail = F.estimate_hurst_exponent(ns.family, params)
    row = f"{ns.family},{_fmt_params(params)},{local!r},{tail!r}"
    return _csv("family,params,local_exponent,tail_exponent", [row])


class Flag(NamedTuple):
    """One ``--name`` option of a command, as ``add_argument`` takes it."""

    name: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    choices: Optional[Sequence[str]] = None
    help: Optional[str] = None
    required: bool = False
    short: Optional[str] = None


class Command(NamedTuple):
    """One subcommand: its handler, its help, its positional (None for none)
    with that positional's choices, and its flags in ``--help`` order."""

    run: Callable[[SimpleNamespace], str]
    help: str
    positional: Optional[str]
    choices: Sequence[str]
    flags: Tuple[Flag, ...]


_MODEL_IDS = sorted(M.MODELS)
_PARAM_FLAGS = tuple(Flag(name, float) for name in _PARAMS)
_SEED = Flag("seed", int, 0)
_CONVENTION = Flag("convention", default="squared_distance", choices=M.CONVENTIONS)
_OUTPUT = Flag("output", short="-o")  # last in each command, as --help lists it

# The one declaration of the commands and their flags, in ``--help`` order.
_COMMANDS: Dict[str, Command] = {
    "eval": Command(_cmd_eval, "evaluate a model at a point or on a grid", "model", _MODEL_IDS, (
        *_PARAM_FLAGS, Flag("x", float), Flag("grid", help="start:stop:count"), _OUTPUT)),
    "classify": Command(_cmd_classify, "three-valued permissibility verdict", "family",
                        tuple(C.CLASSIFIERS), (
        *_PARAM_FLAGS, Flag("tol", float, help="dagum and aux-lcm only"), _OUTPUT)),
    "figure1": Command(_cmd_figure1, "threshold curves Psi, 1 + 1/beta, l, and beta*", None, (), (
        Flag("grid", default="1:2:101", help="start:stop:count over beta"), _OUTPUT)),
    "psd": Command(_cmd_psd, "eigenvalue checks on random point sets", "model", _MODEL_IDS, (
        *_PARAM_FLAGS, Flag("dims", default="1,2,3,5"), Flag("n", int, 200),
        Flag("sets", int, 20), _SEED, _CONVENTION, _OUTPUT)),
    "search": Command(_cmd_search, "random search for an indefinite configuration", "model",
                      _MODEL_IDS, (
        *_PARAM_FLAGS, Flag("dmax", int, 5), Flag("n", int, 60), Flag("trials", int, 40),
        _SEED, _CONVENTION, _OUTPUT)),
    "simulate": Command(_cmd_simulate, "deterministic Gaussian profile draw", "model", _MODEL_IDS, (
        *_PARAM_FLAGS, Flag("n", int, 512), Flag("spacing", float, 1.0), _SEED, _OUTPUT)),
    "decouple": Command(_cmd_decouple, "analytic local/tail exponent estimates", None, (), (
        Flag("family", required=True, choices=_MODEL_IDS), *_PARAM_FLAGS, _OUTPUT)),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse parser of ``_COMMANDS``; the one place that loads argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="dagum",
        description="Complete-monotonicity toolkit for the Dagum correlation family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.positional is not None:
            p.add_argument(cmd.positional, choices=cmd.choices)
        for f in cmd.flags:
            p.add_argument(f"--{f.name}", *([f.short] if f.short else []), type=f.type,
                           default=f.default, choices=f.choices, help=f.help, required=f.required)
    return parser


def _read_canonical(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The attributes of the namespace ``build_parser().parse_args(argv)``
    returns, in its order, for a canonical command line; None for any other.

    Canonical is a command, its positional, then ``--flag value`` pairs of
    exact ``_COMMANDS`` names, each flag at most once and no value starting
    with '-', each value of its flag's type and choices, and every required
    flag given.  Help, errors, abbreviations, ``--flag=value``, repeats and
    every other line are argparse's.
    """
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    values: Dict[str, Any] = {"command": argv[0]}
    if cmd.positional is not None:
        if len(argv) < 2 or argv[1] not in cmd.choices:
            return None
        values[cmd.positional] = argv[1]
    pairs = argv[len(values):]
    if len(pairs) % 2:
        return None
    values.update((f.name, f.default) for f in cmd.flags)
    unset = {f"--{f.name}": f for f in cmd.flags}
    for option, text in zip(pairs[::2], pairs[1::2]):
        f = unset.pop(option, None)
        if f is None or text.startswith("-"):
            return None
        try:
            value = text if f.type is None else f.type(text)
        except ValueError:
            return None
        if f.choices is not None and value not in f.choices:
            return None
        values[f.name] = value
    if any(f.required for f in unset.values()):
        return None
    return SimpleNamespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    ns = _read_canonical(sys.argv[1:] if argv is None else argv)
    if ns is None:
        ns = build_parser().parse_args(argv, SimpleNamespace())
    try:
        _emit(_COMMANDS[ns.command].run(ns), ns.output)
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
