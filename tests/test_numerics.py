import math

import numpy as np
import pytest

from dagum.errors import ConvergenceError, NoSignChangeError
from dagum.kernels import PsiEvaluator
from dagum.numerics import find_root, integrate, maximize_1d

PI = math.pi


def test_exponential_tail():
    v, e = integrate(lambda t: math.exp(-t), 0.0, math.inf)
    assert v == pytest.approx(1.0, abs=1e-9)


def test_sine_half_period():
    v, _ = integrate(math.sin, 0.0, PI)
    assert v == pytest.approx(2.0, abs=1e-9)


def test_truncated_algebraic_tail():
    # algebraic decay: the infinite-range transformation (QAGI)
    v, _ = integrate(lambda s: (1.0 + s) ** (-2.1), 0.0, math.inf)
    assert v == pytest.approx(1.0 / 1.1, abs=1e-8)


def test_linearity():
    f = lambda t: math.exp(-t)  # noqa: E731
    g = lambda t: math.exp(-2.0 * t)  # noqa: E731
    a, b = 3.0, -2.0
    vf, ef = integrate(f, 0.0, math.inf)
    vg, eg = integrate(g, 0.0, math.inf)
    vc, ec = integrate(lambda t: a * f(t) + b * g(t), 0.0, math.inf)
    assert abs(vc - (a * vf + b * vg)) <= abs(a) * ef + abs(b) * eg + ec + 1e-12


def test_nonconvergence_reports_partial():
    # sin(1/s) oscillates without bound toward s = 0: the subdivision budget runs out
    with pytest.raises(ConvergenceError) as exc:
        integrate(lambda s: math.sin(1.0 / s), 0.0, 1.0)
    assert exc.value.value is not None
    assert exc.value.err_estimate > 0.0
    # QUADPACK's own diagnosis travels with the error
    assert "maximum number of subdivisions (4000)" in str(exc.value)


def test_knots_are_break_points_on_a_finite_range_only():
    # |s - 1| e^{-s} plus a box of mass ~1 on [3, 3 + 1e-6], found only through its knots
    f = lambda s: abs(s - 1.0) * math.exp(-s)  # noqa: E731
    hi = 3.0 + 1e-6
    box = lambda s: f(s) + (1e6 if 3.0 < s < hi else 0.0)  # noqa: E731
    v, _ = integrate(box, 0.0, 40.0, knots=[-1.0, 1.0, 3.0, hi])
    assert v == pytest.approx(2.0 / math.e - 40.0 * math.exp(-40.0) + 1e6 * (hi - 3.0), abs=1e-10)
    # QUADPACK takes no break points on an infinite range; knots outside (lo, hi) are dropped
    with pytest.raises(ValueError, match="Infinity inputs cannot be used with break points"):
        integrate(f, 0.0, math.inf, knots=[1.0])
    v, _ = integrate(f, 0.0, math.inf, knots=[-1.0, 0.0])
    assert v == pytest.approx(2.0 / math.e, abs=1e-12)


def test_maximize_one_minus_cos():
    t, v = maximize_1d(lambda t: 1.0 - np.cos(t), 0.0, 2.0 * PI, 1e-10)
    assert t == pytest.approx(PI, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_maximize_parabola():
    t, v = maximize_1d(lambda t: -((t - 1.0) ** 2), 0.0, 2.0, 1e-10)
    assert t == pytest.approx(1.0, abs=1e-6)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_maximize_psi_against_dense_grid_oracle(psi_objective):
    beta = 1.5
    ev = PsiEvaluator(beta)
    hi = 3.0 * PI / math.sin(PI / beta)
    t_star, f_star = maximize_1d(psi_objective(ev), 0.0, hi, 1e-9)
    # dense-grid oracle at step 1e-4
    ts = np.arange(0.0, hi, 1e-4)
    vals = ev.psi_values(ts)
    k = int(np.argmax(vals))
    assert f_star >= float(vals[k]) - 1e-9
    assert abs(t_star - float(ts[k])) < 1e-3
    # the maximizer sits within the first oscillation, near pi/sin(pi/beta)
    assert abs(t_star - PI / math.sin(PI / beta)) < PI / math.sin(PI / beta)


def test_maximize_constant_shift_invariance():
    f = lambda t: np.sin(t) * np.exp(-0.1 * t)  # noqa: E731
    t1, v1 = maximize_1d(f, 0.0, 10.0, 1e-9)
    t2, v2 = maximize_1d(lambda t: f(t) + 5.0, 0.0, 10.0, 1e-9)
    assert t1 == pytest.approx(t2, abs=1e-6)
    assert v2 - v1 == pytest.approx(5.0, abs=1e-10)


def test_find_root_sqrt2():
    r = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_find_root_identity():
    assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_find_root_below_float_spacing_stays_in_bracket():
    # the iteration runs to float spacing: it stops once a new point no
    # longer falls strictly inside the bracket
    r = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
    assert 1.0 <= r <= 2.0
    assert r == pytest.approx(math.sqrt(2.0), abs=4e-16)


def test_find_root_evaluation_count():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    find_root(f, 1.0, 2.0)
    assert len(calls) == 11  # both ends and nine Illinois points, to float spacing


def test_find_root_requires_sign_change():
    with pytest.raises(NoSignChangeError):
        find_root(lambda x: 1.0 + x * x, -1.0, 1.0)


def test_config_validation():
    # an empty or reversed range, NaN ends included, before any call of f
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="lo < hi"):
            find_root(lambda x: x, lo, hi)
        with pytest.raises(ValueError, match="lo < hi"):
            maximize_1d(lambda x: x, lo, hi)
