"""Catalog of correlation-model and auxiliary-family evaluators.

Every evaluator is written against the generic arithmetic helpers in
:mod:`dagum.taylor`, so the same closed form serves floating point
evaluation, whole arrays (the Gram matrices) and truncated-series
evaluation (exact high-order derivatives for the monotonicity scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

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

# Each evaluator takes a float, an ndarray or a TaylorSeries x.  Only floats
# are checked against the domain here, written ``not x >= 0.0`` so that NaN
# fails too; arrays go through the checks of ``ta.powr`` (the Gram matrices
# pass positive distances, ``eval`` object arrays of floats), series unchecked.
_UNCHECKED = (ta.TaylorSeries, np.ndarray)


def dagum_eval(p: DagumParams, x):
    """1 - (x^beta / (1 + x^beta))^gamma for x >= 0."""
    if not isinstance(x, _UNCHECKED) and not x >= 0.0:
        raise DomainError("x must be >= 0")
    u = ta.powr(x, p.beta)
    return 1.0 - ta.powr(u / (1.0 + u), p.gamma)


def cauchy_eval(p: CauchyParams, t):
    if not isinstance(t, _UNCHECKED) and not t >= 0.0:
        raise DomainError("t must be >= 0")
    return ta.powr(1.0 + ta.powr(t, p.theta), -p.eta / p.theta)


def aux_eval(p: AuxParams, x):
    """1 / (x^alpha (1 + x^beta)); diverges as x -> 0+ when alpha > 0."""
    if not isinstance(x, _UNCHECKED) and (not x >= 0.0 or (x == 0.0 and p.alpha > 0.0)):
        raise DomainError("aux diverges at x = 0 for alpha > 0; need x > 0")
    return 1.0 / (ta.powr(x, p.alpha) * (1.0 + ta.powr(x, p.beta)))


def g_eval(p: GParams, x):
    """1 / (x^alpha (1 + x^2)^lambda); diverges as x -> 0+ when alpha > 0."""
    if not isinstance(x, _UNCHECKED) and (not x >= 0.0 or (x == 0.0 and p.alpha > 0.0)):
        raise DomainError("g diverges at x = 0 for alpha > 0; need x > 0")
    return 1.0 / (ta.powr(x, p.alpha) * ta.powr(1.0 + x * x, p.lam))


def reduced_dagum_eval(p: DagumParams, x):
    """x^(beta*gamma - 1) / (1 + x^beta)^(gamma + 1).

    Complete monotonicity of this function is equivalent to complete
    monotonicity of the Dagum correlation with the same parameters: it is
    -rho'(x) up to the constant factor beta*gamma.
    """
    if not isinstance(x, ta.TaylorSeries) and not x > 0.0:
        raise DomainError("reduced dagum needs x > 0")
    num = ta.powr(x, p.beta * p.gamma - 1.0)
    return num / ta.powr(1.0 + ta.powr(x, p.beta), p.gamma + 1.0)


# Cancellation-free semivariograms 1 - rho(t) for t > 0 (aux and g only at
# alpha = 0, where rho(0) = 1).


def _dagum_semivariogram(p: DagumParams, t: float) -> float:
    u = t ** p.beta
    return (u / (1.0 + u)) ** p.gamma


def _cauchy_semivariogram(p: CauchyParams, t: float) -> float:
    return -math.expm1(-(p.eta / p.theta) * math.log1p(t ** p.theta))


def _aux_semivariogram(p: AuxParams, t: float) -> float:
    if p.alpha > 0.0:
        return 1.0 - aux_eval(p, t)
    u = t ** p.beta
    return u / (1.0 + u)


def _g_semivariogram(p: GParams, t: float) -> float:
    if p.alpha > 0.0:
        return 1.0 - g_eval(p, t)
    return -math.expm1(-p.lam * math.log1p(t * t))


# -- model registry (CLI / fields wire names) --------------------------------


class ModelEntry(NamedTuple):
    build: Callable[..., object]  # parameters from values in ``names`` order
    evaluator: Callable  # rho(p, x) for a float, ndarray or TaylorSeries x
    names: Tuple[str, ...]
    semivariogram: Callable[[object, float], float]  # 1 - rho for t > 0


MODELS: Dict[str, ModelEntry] = {
    "dagum": ModelEntry(DagumParams, dagum_eval, ("beta", "gamma"), _dagum_semivariogram),
    "dagum5": ModelEntry(  # built as its DagumParams, so evaluations skip as_dagum()
        lambda g, e: DagumSec5Params(g, e).as_dagum(),
        dagum_eval,
        ("gamma", "epsilon"),
        _dagum_semivariogram,
    ),
    "cauchy": ModelEntry(CauchyParams, cauchy_eval, ("theta", "eta"), _cauchy_semivariogram),
    "aux": ModelEntry(AuxParams, aux_eval, ("alpha", "beta"), _aux_semivariogram),
    "g": ModelEntry(GParams, g_eval, ("alpha", "lambda"), _g_semivariogram),
}


def take_params(label: str, params: Mapping[str, float], names: Sequence[str]) -> List[float]:
    """The values of ``names`` in order; a missing or unknown name is a DomainError."""
    missing = [n for n in names if n not in params]
    if missing:
        raise DomainError(f"{label} missing parameters {missing}")
    extra = [n for n in params if n not in names]
    if extra:
        raise DomainError(f"{label} got unknown parameters {extra}")
    return [float(params[n]) for n in names]


def make_model(model_id: str, params: Mapping[str, float]):
    """Resolve a wire-format model id and keyword parameters."""
    try:
        entry = MODELS[model_id]
    except KeyError:
        raise UnsupportedExpressionError(f"unknown model id {model_id!r}") from None
    p = entry.build(*take_params(f"model {model_id!r}", params, entry.names))
    return p, entry.evaluator


def correlation(model_id: str, params: Mapping[str, float]) -> Callable[[float], float]:
    """Scalar correlation function t -> rho(t) for a wire-format model."""
    p, evaluator = make_model(model_id, params)
    return lambda t: evaluator(p, t)


def semivariogram(model_id: str, params: Mapping[str, float], t: float) -> float:
    """1 - rho(t), computed cancellation-free near t = 0 (unit variance)."""
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    p, _ = make_model(model_id, params)
    return 0.0 if t == 0.0 else MODELS[model_id].semivariogram(p, t)


# -- expression catalog for derivative scans ---------------------------------


def catalog_function(expr: str, params: Mapping[str, float]) -> Callable:
    """Closed-form expression by id, as a generic (float or series) callable.

    Known ids: ``inv_x``, ``aux``, ``g``, ``dagum``, ``dagum5``,
    ``cauchy``, ``reduced_dagum``.
    """
    if expr == "inv_x":
        take_params("expression 'inv_x'", params, ())
        return lambda x: 1.0 / x
    if expr == "reduced_dagum":
        p = DagumParams(*take_params("expression 'reduced_dagum'", params, ("beta", "gamma")))
        return lambda x: reduced_dagum_eval(p, x)
    if expr in MODELS:
        p, evaluator = make_model(expr, params)
        return lambda x: evaluator(p, x)
    raise UnsupportedExpressionError(f"unknown expression id {expr!r}")

