import math

import numpy as np
import pytest

from dagum import models as M
from dagum import taylor as ta
from dagum.errors import DomainError, UnsupportedExpressionError

ALL_MODELS = {
    "dagum": {"beta": 0.7, "gamma": 1.3},
    "dagum5": {"gamma": 1.5, "epsilon": 0.6},
    "cauchy": {"theta": 1.2, "eta": 0.8},
    "aux": {"alpha": 0.3, "beta": 1.5},
    "g": {"alpha": 0.4, "lambda": 0.6},
}


def reduced_dagum_power_form(p, x):
    """Algebraically identical power form: aux(alpha*, beta)^(1 + gamma)
    with alpha* = (1 - beta*gamma) / (1 + gamma)."""
    beta, gamma = p
    a_star = (1.0 - beta * gamma) / (1.0 + gamma)
    inner = 1.0 / (ta.powr(x, a_star) * (1.0 + ta.powr(x, beta)))
    return ta.powr(inner, 1.0 + gamma)


def test_dagum_point_values():
    assert M.dagum_eval((1.0, 1.0), 1.0) == pytest.approx(0.5)
    assert M.dagum_eval((1.7, 0.3), 0.0) == 1.0
    assert M.dagum_eval((2.0, 0.5), 1.0) == pytest.approx(
        1.0 - math.sqrt(0.5), rel=1e-12
    )


def test_dagum_sec5_matches_reparametrized_dagum():
    rho5 = M.correlation("dagum5", {"gamma": 1.0, "epsilon": 0.5})
    assert rho5(1.0) == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-12)
    grid = np.geomspace(1e-3, 1e3, 1000)
    pd = (1.3, 0.4 / 1.3)  # (beta, gamma)
    rho5 = M.correlation("dagum5", {"gamma": 1.3, "epsilon": 0.4})
    for t in grid:
        assert rho5(float(t)) == pytest.approx(M.dagum_eval(pd, float(t)), rel=1e-12)
    assert M.correlation("dagum5", {"gamma": 2.0, "epsilon": 1.0})(1e8) < 1e-7


def test_cauchy_point_values():
    assert M.cauchy_eval((1.0, 1.0), 1.0) == pytest.approx(0.5)
    assert M.cauchy_eval((2.0, 2.0), 1.0) == pytest.approx(0.5)
    assert M.cauchy_eval((0.7, 3.0), 0.0) == 1.0


def test_aux_point_values():
    assert M.aux_eval((0.0, 2.0), 1.0) == pytest.approx(0.5)
    assert M.aux_eval((0.0, 2.0), 0.0) == 1.0
    # alpha = beta = 0 is the constant 1/2, at x = 0 as well
    assert M.aux_eval((0.0, 0.0), 0.0) == 0.5
    assert M.aux_eval((1.0, 1.0), 1.0) == pytest.approx(0.5)
    assert M.aux_eval((0.5, 2.0), 4.0) == pytest.approx(1.0 / 34.0, rel=1e-12)


def test_reduced_dagum_values_and_form_identity():
    assert M.reduced_dagum_eval((1.0, 1.0), 1.0) == pytest.approx(0.25)
    assert M.reduced_dagum_eval((2.0, 0.5), 1.0) == pytest.approx(
        2.0 ** (-1.5), rel=1e-12
    )
    p = (1.5, 0.4)
    for x in np.geomspace(1e-3, 1e3, 200):
        a = M.reduced_dagum_eval(p, float(x))
        b = reduced_dagum_power_form(p, float(x))
        assert a == pytest.approx(b, rel=1e-12)


def test_reduced_dagum_is_scaled_negative_derivative():
    # -rho'(x) = beta*gamma * x^(beta*gamma - 1) / (1 + x^beta)^(gamma + 1)
    p = (1.5, 0.5)
    for x0 in (0.2, 1.0, 3.7):
        series = ta.taylor_eval(lambda x: M.dagum_eval(p, x), x0, 1)
        lhs = -series.coeffs[1]
        rhs = p[0] * p[1] * M.reduced_dagum_eval(p, x0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_g_with_unit_lambda_equals_aux_beta2():
    for alpha in (0.0, 0.5, 1.0, 2.5):
        for x in (0.1, 1.0, 7.3):
            assert M.g_eval((alpha, 1.0), x) == M.aux_eval((alpha, 2.0), x)


@pytest.mark.parametrize(
    "model,params",
    [
        ("dagum", {"beta": 0.5, "gamma": 1.0}),
        ("dagum5", {"gamma": 1.0, "epsilon": 0.5}),
        ("cauchy", {"theta": 1.0, "eta": 1.0}),
    ],
)
def test_correlations_decrease_from_one(model, params):
    rho = M.correlation(model, params)
    grid = np.geomspace(1e-4, 1e4, 300)
    values = [rho(float(t)) for t in grid]
    assert rho(0.0) == 1.0
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a >= b - 1e-15 for a, b in zip(values[:-1], values[1:]))


def test_semivariogram_values():
    assert M.semivariogram("cauchy", {"theta": 1.0, "eta": 1.0}, 1.0) == pytest.approx(0.5)
    assert M.semivariogram("dagum", {"beta": 2.0, "gamma": 1.0}, 0.0) == 0.0
    # near zero the dagum5 semivariogram behaves like t^epsilon
    sv = lambda t: M.semivariogram("dagum5", {"gamma": 1.0, "epsilon": 0.5}, t)  # noqa: E731
    slope = (math.log(sv(1e-6)) - math.log(sv(1e-8))) / (math.log(1e-6) - math.log(1e-8))
    assert slope == pytest.approx(0.5, abs=1e-4)


@pytest.mark.parametrize("model_id", sorted(ALL_MODELS))
def test_semivariogram_is_one_minus_rho(model_id):
    params = ALL_MODELS[model_id]
    rho = M.correlation(model_id, params)
    assert M.semivariogram(model_id, params, 1.0) == pytest.approx(1.0 - rho(1.0), abs=1e-12)


@pytest.mark.parametrize("model_id", sorted(ALL_MODELS))
def test_evaluators_take_arrays(model_id):
    p, evaluator = M.make_model(model_id, ALL_MODELS[model_id])
    xs = np.geomspace(1e-3, 1e3, 41)
    # numpy's array power may differ from float power in the last bit
    scalar = [evaluator(p, float(x)) for x in xs]
    assert np.allclose(evaluator(p, xs), scalar, rtol=1e-12, atol=1e-15)
    with pytest.raises(DomainError):
        evaluator(p, np.array([1.0, -1.0]))


def test_divergence_at_zero_is_signaled():
    with pytest.raises(DomainError):
        M.aux_eval((0.5, 2.0), 0.0)
    with pytest.raises(DomainError):
        M.g_eval((1.0, 0.5), 0.0)
    with pytest.raises(DomainError):
        M.dagum_eval((1.0, 1.0), -0.5)


@pytest.mark.parametrize(
    "model_id,params",
    [pytest.param(m, p, id=m) for m, p in sorted(ALL_MODELS.items())]
    + [
        pytest.param("aux", {"alpha": 0.0, "beta": 1.5}, id="aux-alpha0"),
        pytest.param("g", {"alpha": 0.0, "lambda": 0.6}, id="g-alpha0"),
    ],
)
def test_nan_argument_is_a_domain_error(model_id, params):
    rho = M.correlation(model_id, params)
    with pytest.raises(DomainError):
        rho(math.nan)
    with pytest.raises(DomainError):
        M.semivariogram(model_id, params, math.nan)


def test_reduced_dagum_rejects_nan():
    with pytest.raises(DomainError):
        M.reduced_dagum_eval((1.5, 0.5), math.nan)


def test_reduced_dagum_on_arrays():
    # as every catalog evaluator: an object array of floats gives the
    # per-point floats bit for bit, a float array within rounding (numpy's
    # SIMD power may differ from the libm one in the last bit)
    f = M.catalog_function("reduced_dagum", {"beta": 1.5, "gamma": 0.3})
    xs = [1e-8, 0.3, 1.0, 2.5, 7.0, 1e6]
    per_point = [f(x) for x in xs]
    assert f(np.array(xs, dtype=object)).tolist() == per_point
    assert np.allclose(f(np.array(xs)), per_point, rtol=1e-14, atol=0.0)
    # the domain x > 0 holds for array entries too
    for arr in (np.array([1.0, 0.0]), np.array([-1.0, 2.0], dtype=object), np.array([0.5, math.nan]),
                np.array([1.0, math.nan], dtype=object)):
        with pytest.raises(DomainError, match="x > 0"):
            f(arr)


def test_param_validation():
    for model_id, values, message in (
        ("dagum", (-1.0, 1.0), "dagum requires beta > 0 and gamma > 0"),
        ("dagum5", (2.5, 1.0), "dagum5 requires gamma in (0, 2]"),
        ("dagum5", (1.0, 1.0), "dagum5 requires 0 < epsilon < gamma"),
        ("cauchy", (0.0, 1.0), "cauchy requires theta in (0, 2]"),
        ("cauchy", (1.0, 0.0), "cauchy requires eta > 0"),
        ("aux", (-0.1, 1.0), "aux requires alpha >= 0 and beta >= 0"),
        ("g", (1.0, -0.5), "g requires alpha >= 0 and lambda >= 0"),
    ):
        with pytest.raises(DomainError) as info:
            M.check(model_id, *values)
        assert str(info.value) == message


def test_check_returns_the_evaluator_tuple():
    assert M.check("dagum", 1.5, 0.5) == (1.5, 0.5)
    assert M.check("dagum5", 1.5, 0.6) == (1.5, 0.6 / 1.5)  # the Dagum (beta, gamma)
    assert M.check("g", 1.0, 0.5) == (1.0, 0.5)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_params_reject_non_finite(bad):
    # each non-finite value is named by its wire name, before the domain check
    for model_id, params in ALL_MODELS.items():
        names = M.MODELS[model_id].names
        good = [params[n] for n in names]
        M.check(model_id, *good)
        for i, name in enumerate(names):
            values = list(good)
            values[i] = bad
            with pytest.raises(DomainError) as info:
                M.check(model_id, *values)
            assert str(info.value) == f"{name} must be finite"
        with pytest.raises(DomainError) as info:
            M.check(model_id, bad, bad)
        assert str(info.value) == f"{names[0]} and {names[1]} must be finite"


def test_make_model_wire_format():
    p, ev = M.make_model("g", {"alpha": 1.0, "lambda": 0.5})
    assert ev(p, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(UnsupportedExpressionError):
        M.make_model("matern", {"nu": 0.5})
    with pytest.raises(DomainError):
        M.make_model("dagum", {"beta": 1.0})
    with pytest.raises(DomainError):
        M.make_model("dagum", {"beta": 1.0, "gamma": 1.0, "theta": 1.0})


def test_catalog_unknown_expression():
    with pytest.raises(UnsupportedExpressionError):
        M.catalog_function("airy", {})
    # a missing and an unknown parameter, for a MODELS id and for reduced_dagum
    for expr in ("dagum", "reduced_dagum"):
        for params in ({"beta": 1.0}, {"beta": 1.0, "gamma": 1.0, "theta": 1.0}):
            with pytest.raises(DomainError):
                M.catalog_function(expr, params)
