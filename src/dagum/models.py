"""Catalog of correlation-model and auxiliary-family evaluators.

Every evaluator is written against the generic arithmetic helpers in
:mod:`dagum.taylor`, so the same closed form serves floating point
evaluation, whole arrays (the Gram matrices) and truncated-series
evaluation (exact high-order derivatives for the monotonicity scans).
Each model is one row of ``MODELS``; an evaluator takes the parameter
tuple that the row's domain check returns.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from . import taylor as ta
from .errors import DomainError, UnsupportedExpressionError

# -- domain checks: finite values in wire-name order -> the evaluator's tuple --


def _dagum_domain(beta, gamma):
    if not (beta > 0.0 and gamma > 0.0):
        raise DomainError("dagum requires beta > 0 and gamma > 0")
    return beta, gamma


def _dagum5_domain(gamma, epsilon):
    """Shape gamma in (0, 2], smoothness epsilon in (0, gamma): Dagum (gamma, epsilon/gamma)."""
    if not 0.0 < gamma <= 2.0:
        raise DomainError("dagum5 requires gamma in (0, 2]")
    if not 0.0 < epsilon < gamma:
        raise DomainError("dagum5 requires 0 < epsilon < gamma")
    return gamma, epsilon / gamma


def _cauchy_domain(theta, eta):
    if not 0.0 < theta <= 2.0:
        raise DomainError("cauchy requires theta in (0, 2]")
    if not eta > 0.0:
        raise DomainError("cauchy requires eta > 0")
    return theta, eta


def _aux_domain(alpha, beta):
    if alpha < 0.0 or beta < 0.0:
        raise DomainError("aux requires alpha >= 0 and beta >= 0")
    return alpha, beta


def _g_domain(alpha, lam):
    if alpha < 0.0 or lam < 0.0:
        raise DomainError("g requires alpha >= 0 and lambda >= 0")
    return alpha, lam


# -- evaluators --------------------------------------------------------------

# Each evaluator takes a float, an ndarray or a TaylorSeries x.  Only floats
# are checked against the domain here, written ``not x >= 0.0`` so that NaN
# fails too; arrays go through the checks of ``ta.powr`` (the Gram matrices
# pass positive distances, ``eval`` object arrays of floats), series unchecked.
# ``reduced_dagum_eval`` checks x > 0 on arrays too, as its power
# x^(beta gamma - 1) lets x = 0 through.
_UNCHECKED = (ta.TaylorSeries, np.ndarray)


def dagum_eval(p, x):
    """1 - (x^beta / (1 + x^beta))^gamma for x >= 0; p = (beta, gamma)."""
    if not isinstance(x, _UNCHECKED) and not x >= 0.0:
        raise DomainError("x must be >= 0")
    beta, gamma = p
    u = ta.powr(x, beta)
    return 1.0 - ta.powr(u / (1.0 + u), gamma)


def cauchy_eval(p, t):
    """(1 + t^theta)^(-eta/theta) for t >= 0; p = (theta, eta)."""
    if not isinstance(t, _UNCHECKED) and not t >= 0.0:
        raise DomainError("t must be >= 0")
    theta, eta = p
    return ta.powr(1.0 + ta.powr(t, theta), -eta / theta)


def aux_eval(p, x):
    """1 / (x^alpha (1 + x^beta)); diverges as x -> 0+ when alpha > 0; p = (alpha, beta)."""
    alpha, beta = p
    if not isinstance(x, _UNCHECKED) and (not x >= 0.0 or (x == 0.0 and alpha > 0.0)):
        raise DomainError("aux diverges at x = 0 for alpha > 0; need x > 0")
    return 1.0 / (ta.powr(x, alpha) * (1.0 + ta.powr(x, beta)))


def g_eval(p, x):
    """1 / (x^alpha (1 + x^2)^lambda); diverges as x -> 0+ when alpha > 0; p = (alpha, lambda)."""
    alpha, lam = p
    if not isinstance(x, _UNCHECKED) and (not x >= 0.0 or (x == 0.0 and alpha > 0.0)):
        raise DomainError("g diverges at x = 0 for alpha > 0; need x > 0")
    return 1.0 / (ta.powr(x, alpha) * ta.powr(1.0 + x * x, lam))


def reduced_dagum_eval(p, x):
    """x^(beta*gamma - 1) / (1 + x^beta)^(gamma + 1); p = (beta, gamma).

    Complete monotonicity of this function is equivalent to complete
    monotonicity of the Dagum correlation with the same parameters: it is
    -rho'(x) up to the constant factor beta*gamma.
    """
    with np.errstate(invalid="ignore"):  # ``>`` warns on an object array's NaN entry
        if not isinstance(x, ta.TaylorSeries) and not np.all(x > 0.0):  # a float or every entry
            raise DomainError("reduced dagum needs x > 0")
    beta, gamma = p
    return ta.powr(x, beta * gamma - 1.0) / ta.powr(1.0 + ta.powr(x, beta), gamma + 1.0)


# Cancellation-free semivariograms 1 - rho(t) for t > 0 (aux and g only at
# alpha = 0, where rho(0) = 1).


def _dagum_semivariogram(p, t: float) -> float:
    u = t ** p[0]
    return (u / (1.0 + u)) ** p[1]


def _cauchy_semivariogram(p, t: float) -> float:
    theta, eta = p
    return -math.expm1(-(eta / theta) * math.log1p(t ** theta))


def _aux_semivariogram(p, t: float) -> float:
    if p[0] > 0.0:
        return 1.0 - aux_eval(p, t)
    u = t ** p[1]
    return u / (1.0 + u)


def _g_semivariogram(p, t: float) -> float:
    if p[0] > 0.0:
        return 1.0 - g_eval(p, t)
    return -math.expm1(-p[1] * math.log1p(t * t))


# -- model registry (CLI / fields wire names) --------------------------------

# The distance conventions of ``dagum.fields``: rho of squared or of plain distances.
CONVENTIONS = ("squared_distance", "plain_distance")


class Model(NamedTuple):
    names: Tuple[str, ...]  # wire names, in the order of the domain check's arguments
    domain: Callable[..., tuple]  # finite values -> the evaluator's parameter tuple
    evaluator: Callable  # rho(p, x) for a float, ndarray or TaylorSeries x
    semivariogram: Callable[[tuple, float], float]  # 1 - rho for t > 0


MODELS: Dict[str, Model] = {
    "aux": Model(("alpha", "beta"), _aux_domain, aux_eval, _aux_semivariogram),
    "dagum": Model(("beta", "gamma"), _dagum_domain, dagum_eval, _dagum_semivariogram),
    "dagum5": Model(("gamma", "epsilon"), _dagum5_domain, dagum_eval, _dagum_semivariogram),
    "cauchy": Model(("theta", "eta"), _cauchy_domain, cauchy_eval, _cauchy_semivariogram),
    "g": Model(("alpha", "lambda"), _g_domain, g_eval, _g_semivariogram),
}


def check(model_id: str, *values: float) -> tuple:
    """The evaluator's parameter tuple for ``values`` in wire-name order; a
    DomainError names each non-finite value by its wire name, else the
    row's domain check decides."""
    row = MODELS[model_id]
    bad = [name for name, value in zip(row.names, values) if not math.isfinite(value)]
    if bad:
        raise DomainError(f"{' and '.join(bad)} must be finite")
    return row.domain(*values)


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
    """Resolve a wire-format model id and keyword parameters to ``(p, evaluator)``."""
    if model_id not in MODELS:
        raise UnsupportedExpressionError(f"unknown model id {model_id!r}")
    row = MODELS[model_id]
    return check(model_id, *take_params(f"model {model_id!r}", params, row.names)), row.evaluator


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

    Known ids: the ``MODELS`` ids, and ``reduced_dagum``, which takes the
    parameters of the ``dagum`` row; ``make_model`` resolves both.
    """
    p, evaluator = make_model("dagum" if expr == "reduced_dagum" else expr, params)
    evaluator = reduced_dagum_eval if expr == "reduced_dagum" else evaluator
    return lambda x: evaluator(p, x)
