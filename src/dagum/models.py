"""Catalog of correlation-model and auxiliary-family evaluators.

Every evaluator is written against the generic arithmetic helpers in
:mod:`dagum.taylor`, so the same closed form serves both ordinary floating
point evaluation and truncated-series evaluation (exact high-order
derivatives for the monotonicity scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from . import taylor as ta
from .errors import DomainError, UnsupportedExpressionError


def _require_finite(params: Mapping[str, float]) -> None:
    """Reject NaN and infinite parameters, naming each one."""
    bad = [name for name, value in params.items() if not math.isfinite(value)]
    if bad:
        raise DomainError(f"{' and '.join(bad)} must be finite")


@dataclass(frozen=True)
class DagumParams:
    beta: float
    gamma: float

    def __post_init__(self):
        _require_finite(vars(self))
        if not (self.beta > 0.0 and self.gamma > 0.0):
            raise DomainError("dagum requires beta > 0 and gamma > 0")


@dataclass(frozen=True)
class DagumSec5Params:
    """Alternative parametrization: shape ``gamma5`` in (0, 2], smoothness
    ``epsilon`` in (0, gamma5).  Equivalent to DagumParams(gamma5, epsilon/gamma5)."""

    gamma5: float
    epsilon: float

    def __post_init__(self):
        _require_finite(vars(self))
        if not (0.0 < self.gamma5 <= 2.0):
            raise DomainError("dagum5 requires gamma in (0, 2]")
        if not (0.0 < self.epsilon < self.gamma5):
            raise DomainError("dagum5 requires 0 < epsilon < gamma")

    def as_dagum(self) -> DagumParams:
        return DagumParams(self.gamma5, self.epsilon / self.gamma5)


@dataclass(frozen=True)
class CauchyParams:
    theta: float
    eta: float

    def __post_init__(self):
        _require_finite(vars(self))
        if not (0.0 < self.theta <= 2.0):
            raise DomainError("cauchy requires theta in (0, 2]")
        if not self.eta > 0.0:
            raise DomainError("cauchy requires eta > 0")


@dataclass(frozen=True)
class AuxParams:
    alpha: float
    beta: float

    def __post_init__(self):
        _require_finite(vars(self))
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DomainError("aux requires alpha >= 0 and beta >= 0")


@dataclass(frozen=True)
class GParams:
    alpha: float
    lam: float

    def __post_init__(self):
        _require_finite(vars(self))
        if self.alpha < 0.0 or self.lam < 0.0:
            raise DomainError("g requires alpha >= 0 and lambda >= 0")


# -- evaluators --------------------------------------------------------------


def dagum_eval(p: DagumParams, x):
    """1 - (x^beta / (1 + x^beta))^gamma for x >= 0."""
    if not isinstance(x, ta.TaylorSeries):
        if x < 0.0:
            raise DomainError("x must be >= 0")
        if x == 0.0:
            return 1.0
    u = ta.powr(x, p.beta)
    return 1.0 - ta.powr(u / (1.0 + u), p.gamma)


def dagum_sec5_eval(p: DagumSec5Params, t):
    return dagum_eval(p.as_dagum(), t)


def cauchy_eval(p: CauchyParams, t):
    if not isinstance(t, ta.TaylorSeries):
        if t < 0.0:
            raise DomainError("t must be >= 0")
        if t == 0.0:
            return 1.0
    return ta.powr(1.0 + ta.powr(t, p.theta), -p.eta / p.theta)


def aux_eval(p: AuxParams, x):
    """1 / (x^alpha (1 + x^beta)); diverges as x -> 0+ when alpha > 0."""
    if not isinstance(x, ta.TaylorSeries):
        if x < 0.0 or (x == 0.0 and p.alpha > 0.0):
            raise DomainError("aux diverges at x = 0 for alpha > 0; need x > 0")
        if x == 0.0:
            return 1.0
    return 1.0 / (ta.powr(x, p.alpha) * (1.0 + ta.powr(x, p.beta)))


def g_eval(p: GParams, x):
    """1 / (x^alpha (1 + x^2)^lambda); diverges as x -> 0+ when alpha > 0."""
    if not isinstance(x, ta.TaylorSeries):
        if x < 0.0 or (x == 0.0 and p.alpha > 0.0):
            raise DomainError("g diverges at x = 0 for alpha > 0; need x > 0")
        if x == 0.0:
            return 1.0
    return 1.0 / (ta.powr(x, p.alpha) * ta.powr(1.0 + x * x, p.lam))


def reduced_dagum_eval(p: DagumParams, x):
    """x^(beta*gamma - 1) / (1 + x^beta)^(gamma + 1).

    Complete monotonicity of this function is equivalent to complete
    monotonicity of the Dagum correlation with the same parameters: it is
    -rho'(x) up to the constant factor beta*gamma.
    """
    if not isinstance(x, ta.TaylorSeries) and x <= 0.0:
        raise DomainError("reduced dagum needs x > 0")
    num = ta.powr(x, p.beta * p.gamma - 1.0)
    return num / ta.powr(1.0 + ta.powr(x, p.beta), p.gamma + 1.0)


def reduced_dagum_power_form(p: DagumParams, x):
    """Algebraically identical power form: aux(alpha*, beta)^(1 + gamma)
    with alpha* = (1 - beta*gamma) / (1 + gamma)."""
    if not isinstance(x, ta.TaylorSeries) and x <= 0.0:
        raise DomainError("reduced dagum needs x > 0")
    a_star = (1.0 - p.beta * p.gamma) / (1.0 + p.gamma)
    inner = 1.0 / (ta.powr(x, a_star) * (1.0 + ta.powr(x, p.beta)))
    return ta.powr(inner, 1.0 + p.gamma)


# -- model registry (CLI / fields wire names) --------------------------------

# id -> (params builder from kwargs, correlation evaluator, parameter names)
ModelEntry = Tuple[Callable[..., object], Callable[[object, float], float], Tuple[str, ...]]

MODELS: Dict[str, ModelEntry] = {
    "dagum": (DagumParams, dagum_eval, ("beta", "gamma")),
    "dagum5": (
        lambda gamma, epsilon: DagumSec5Params(gamma, epsilon),
        dagum_sec5_eval,
        ("gamma", "epsilon"),
    ),
    "cauchy": (CauchyParams, cauchy_eval, ("theta", "eta")),
    "aux": (AuxParams, aux_eval, ("alpha", "beta")),
    "g": (
        lambda alpha, lam=None, **kw: GParams(alpha, kw.get("lambda", lam)),
        g_eval,
        ("alpha", "lambda"),
    ),
}


def make_model(model_id: str, params: Mapping[str, float]):
    """Resolve a wire-format model id and keyword parameters."""
    try:
        builder, evaluator, names = MODELS[model_id]
    except KeyError:
        raise UnsupportedExpressionError(f"unknown model id {model_id!r}") from None
    missing = [n for n in names if n not in params]
    if missing:
        raise DomainError(f"model {model_id!r} missing parameters {missing}")
    extra = [n for n in params if n not in names]
    if extra:
        raise DomainError(f"model {model_id!r} got unknown parameters {extra}")
    p = builder(**{k: float(v) for k, v in params.items()})
    return p, evaluator


def correlation(model_id: str, params: Mapping[str, float]) -> Callable[[float], float]:
    """Scalar correlation function t -> rho(t) for a wire-format model."""
    p, evaluator = make_model(model_id, params)
    return lambda t: evaluator(p, t)


def semivariogram(model_id: str, params: Mapping[str, float], t: float) -> float:
    """1 - rho(t), computed cancellation-free near t = 0 (unit variance)."""
    if t < 0.0:
        raise DomainError("t must be >= 0")
    p, _ = make_model(model_id, params)
    if t == 0.0:
        return 0.0
    if isinstance(p, DagumSec5Params):
        p = p.as_dagum()
    if isinstance(p, DagumParams):
        u = t ** p.beta
        return (u / (1.0 + u)) ** p.gamma
    if isinstance(p, CauchyParams):
        return -math.expm1(-(p.eta / p.theta) * math.log1p(t ** p.theta))
    rho = correlation(model_id, params)
    return 1.0 - rho(t)


# -- expression catalog for derivative scans ---------------------------------


def catalog_function(expr: str, params: Mapping[str, float]) -> Callable:
    """Closed-form expression by id, as a generic (float or series) callable.

    Known ids: ``sin``, ``inv_x``, ``aux``, ``g``, ``dagum``, ``dagum5``,
    ``cauchy``, ``reduced_dagum``.
    """
    if expr == "sin":
        return lambda x: ta.sin(x)
    if expr == "inv_x":
        return lambda x: 1.0 / x
    if expr == "reduced_dagum":
        p = DagumParams(**{k: float(v) for k, v in params.items()})
        return lambda x: reduced_dagum_eval(p, x)
    if expr in MODELS:
        p, evaluator = make_model(expr, params)
        return lambda x: evaluator(p, x)
    raise UnsupportedExpressionError(f"unknown expression id {expr!r}")


def series_of(expr: str, params: Mapping[str, float], x0: float, order: int) -> ta.TaylorSeries:
    """Taylor series of a catalog expression at ``x0 > 0`` (``sin`` anywhere)."""
    fn = catalog_function(expr, params)
    if expr != "sin" and x0 <= 0.0:
        raise DomainError("catalog expressions require x0 > 0")
    return ta.taylor_eval(fn, x0, order)
