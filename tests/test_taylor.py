import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagum import taylor as ta
from dagum.errors import DomainError
from dagum.models import catalog_function


def series_of(expr, params, x0, order):
    """Taylor series of a catalog expression at ``x0``."""
    return ta.taylor_eval(catalog_function(expr, params), x0, order)


def test_aux_second_coefficient_matches_closed_form():
    # f = 1/(1+x^2): f''(x) = (6x^2 - 2)/(1+x^2)^3, negative below 1/sqrt(3)
    x0 = 0.1
    s = series_of("aux", {"alpha": 0.0, "beta": 2.0}, x0, 2)
    f_dd = (6.0 * x0**2 - 2.0) / (1.0 + x0**2) ** 3
    assert f_dd < 0.0
    assert s.coeffs[2] == pytest.approx(f_dd / 2.0, rel=1e-12)


def test_reciprocal_series_at_one():
    s = ta.taylor_eval(lambda x: 1.0 / x, 1.0, 3)
    assert s.coeffs == (1.0, -1.0, 1.0, -1.0)


@pytest.mark.parametrize(
    "expr_a,params_a,expr_b,params_b",
    [
        ("dagum", {"beta": 0.5, "gamma": 1.0}, "cauchy", {"theta": 1.0, "eta": 1.0}),
        ("aux", {"alpha": 1.0, "beta": 1.0}, "g", {"alpha": 0.5, "lambda": 0.5}),
        ("aux", {"alpha": 1.0, "beta": 0.0}, "cauchy", {"theta": 2.0, "eta": 2.0}),  # 1/(2x)
    ],
)
def test_product_rule_is_cauchy_product(expr_a, params_a, expr_b, params_b):
    fa = catalog_function(expr_a, params_a)
    fb = catalog_function(expr_b, params_b)
    x0, order = 0.7, 8
    sa = ta.taylor_eval(fa, x0, order)
    sb = ta.taylor_eval(fb, x0, order)
    direct = ta.taylor_eval(lambda x: fa(x) * fb(x), x0, order)
    manual = [
        sum(sa.coeffs[i] * sb.coeffs[k - i] for i in range(k + 1)) for k in range(order + 1)
    ]
    scale = max(abs(c) for c in manual)
    assert np.allclose(direct.coeffs, manual, rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose((sa * sb).coeffs, manual, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "expr,params",
    [
        ("dagum", {"beta": 1.5, "gamma": 0.4}),
        ("cauchy", {"theta": 0.7, "eta": 1.3}),
        ("aux", {"alpha": 0.5, "beta": 1.5}),
        ("g", {"alpha": 1.0, "lambda": 0.5}),
        ("reduced_dagum", {"beta": 1.5, "gamma": 0.5}),
    ],
)
def test_first_coefficient_matches_finite_difference(expr, params):
    fn = catalog_function(expr, params)
    x0 = 1.3
    s = ta.taylor_eval(fn, x0, 4)
    h = 1e-6
    fd = (fn(x0 + h) - fn(x0 - h)) / (2.0 * h)
    assert s.coeffs[1] == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("x0,r", [(0.8, 1.5), (2.3, -0.7), (0.05, 0.3)])
def test_powr_and_log_match_closed_form_series(x0, r):
    order = 9
    x = ta.TaylorSeries.variable(x0, order)
    # (x0 + h)^r = sum_k C(r, k) x0^(r-k) h^k, C(r, k) = r (r-1) ... (r-k+1) / k!
    binom = [math.prod(r - i for i in range(k)) / math.factorial(k) for k in range(order + 1)]
    powers = [binom[k] * x0 ** (r - k) for k in range(order + 1)]
    assert np.allclose(ta.powr(x, r).coeffs, powers, rtol=1e-13, atol=0.0)
    # log(x0 + h) = log x0 - sum_{k >= 1} (-h/x0)^k / k
    logs = [math.log(x0)] + [-((-1.0 / x0) ** k) / k for k in range(1, order + 1)]
    assert np.allclose(ta.log(x).coeffs, logs, rtol=1e-13, atol=0.0)
    # a float, a float array and an object array: u ** r bit for bit
    for u in (x0, np.array([x0, 1.0, 1e-300]), np.array([x0, 1.0, 1e-300], dtype=object)):
        got, want = ta.powr(u, r), u ** r
        assert type(got) is type(want)
        assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_domain_errors():
    with pytest.raises(DomainError):
        ta.log(ta.TaylorSeries([-1.0, 1.0], 0.0))
    with pytest.raises(DomainError):
        ta.powr(ta.TaylorSeries([-1.0, 1.0], 0.0), 0.5)
    # a negative base, and 0 with r < 0, as a float, a float array and an object array
    for bad, r in ((-1.0, 0.5), (-1e-300, 2.0), (0.0, -0.5), (-0.0, -1.0)):
        for u in (bad, np.array([1.0, bad]), np.array([1.0, bad], dtype=object)):
            with pytest.raises(DomainError, match="^real power requires a nonnegative base$"):
                ta.powr(u, r)
    with pytest.raises(DomainError):
        series_of("aux", {"alpha": 1.0, "beta": 2.0}, -1.0, 3)
    with pytest.raises(ZeroDivisionError):
        ta.TaylorSeries([1.0, 0.0]) / ta.TaylorSeries([0.0, 1.0])


def test_mixed_order_and_point_rejected():
    a = ta.TaylorSeries.variable(1.0, 3)
    b = ta.TaylorSeries.variable(1.0, 4)
    with pytest.raises(ValueError):
        _ = a + b
    c = ta.TaylorSeries.variable(2.0, 3)
    with pytest.raises(ValueError):
        _ = a * c


# Every catalog expression with its parameters from two shapes p, q in (0.05, 2].
CATALOG = {
    "aux": lambda p, q: {"alpha": q, "beta": p},
    "g": lambda p, q: {"alpha": q, "lambda": p},
    "dagum": lambda p, q: {"beta": p, "gamma": q},
    "dagum5": lambda p, q: {"gamma": p, "epsilon": p * q / 2.5},
    "cauchy": lambda p, q: {"theta": p, "eta": q},
    "reduced_dagum": lambda p, q: {"beta": p, "gamma": q},
}
SHAPES = st.floats(0.05, 2.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    expr=st.sampled_from(sorted(CATALOG)),
    p=SHAPES,
    q=SHAPES,
    xs=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=6),
)
def test_grid_jets_equal_pointwise_jets_bit_for_bit(expr, p, q, xs):
    fn = catalog_function(expr, CATALOG[expr](p, q))
    for order, lift in ((8, lambda s: s), (9, ta.log)):  # ta.log: the lcm_scan path
        grid = lift(ta.taylor_eval(fn, np.array(xs), order))
        points = [lift(ta.taylor_eval(fn, x, order)) for x in xs]
        assert all(c.shape == (len(xs),) for c in grid.coeffs)
        assert np.array(grid.coeffs).tobytes() == np.array([s.coeffs for s in points]).T.tobytes()


def test_grid_jets_keep_zero_skip_and_domain_checks():
    # x has exact zeros at x0 = 0 and -0.0: the product skips them per element,
    # so an inf in the other factor gives no 0 * inf = nan, as at the single point
    xs = np.array([0.0, -0.0, 0.5])
    fn = lambda x: x * (-1.0 / (x - 0.5))  # noqa: E731
    with pytest.raises(ZeroDivisionError):
        ta.taylor_eval(fn, xs, 3)
    fn = lambda x: x * ((x + 1.0) * 1e308 * 10.0)  # noqa: E731
    grid = ta.taylor_eval(fn, xs, 6)
    assert grid.coeffs[0].tolist() == [0.0, 0.0, math.inf]
    for i, x in enumerate(xs):
        assert np.array([c[i] for c in grid.coeffs]).tobytes() == np.array(ta.taylor_eval(fn, x, 6).coeffs).tobytes()
    for bad in ([1.0, -1.0], [1.0, 0.0]):
        with pytest.raises(DomainError):
            series_of("aux", {"alpha": 1.0, "beta": 2.0}, bad, 3)
        with pytest.raises(DomainError):
            ta.log(ta.taylor_eval(lambda x: x, np.array(bad), 3))
    const = ta.taylor_eval(lambda x: 2.0, np.array([0.5, 1.5]), 2)
    assert np.array(const.coeffs).tolist() == [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0]]
