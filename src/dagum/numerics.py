"""Adaptive quadrature, 1-D maximization and bracketed root-finding.

Quadrature is QUADPACK (Piessens et al., 1983) via ``scipy.integrate.quad``,
imported on the first call so that importing this module does not load scipy.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Tuple

import numpy as np

from .errors import ConvergenceError, NoSignChangeError

# QUADPACK's absolute and relative tolerance and subdivision budget, per call.
QUAD_TOL, QUAD_LIMIT = 1e-9, 4000


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    knots: Iterable[float] = (),
) -> Tuple[float, float]:
    """``(value, err_estimate)`` of the integral of ``f`` over [lo, hi]; ``hi`` may be inf.

    ``knots`` inside the range are break points for kinks or sharp features; on
    [lo, inf) QUADPACK takes none, and ``quad`` raises its own ValueError.  A
    QUADPACK failure raises ConvergenceError with the partial value.
    """
    from scipy.integrate import quad

    if not lo < hi:
        raise ValueError("need lo < hi")
    opts = dict(epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=QUAD_LIMIT, full_output=1)
    inner = sorted({float(k) for k in knots if lo < k < hi})
    value, err, *info = quad(f, lo, hi, points=inner or None, **opts)
    if len(info) > 1:  # info[1]: QUADPACK's message, the first line its diagnosis
        failed = info[1].split("\n")[0]
        msg = f"quadrature did not converge: {failed} (estimate {value!r}, error {err!r})"
        raise ConvergenceError(msg, value=value, err_estimate=err)
    return value, err


def maximize_1d(f: Callable, lo: float, hi: float, tol: float = 1e-7) -> Tuple[float, float]:
    """Maximum of ``f`` over [lo, hi], refined in the best cell of a grid.

    A coarse scan of 2048 cells (the objective may oscillate, so pure local search can
    miss the global peak) locates the best grid cell; golden-section then
    refines it.  Where two peaks are nearly equal the grid may pick the lower
    one, and the result is then its local maximum, not the global one: for
    psi_b at b = 2 - 2.02e-7 it refines the hump near 3 pi, 1.008e-6 below
    the hump near pi.  ``f`` must accept an ndarray as well as a float: the scan
    is one call on the whole grid, the refinement calls it on floats.
    Returns ``(t_star, f_star)``; ValueError unless lo < hi.
    """
    if not lo < hi:
        raise ValueError("bracket requires lo < hi")
    n = 2048
    step = (hi - lo) / n
    xs = lo + np.arange(n + 1) * step
    xs[-1] = hi
    vals = np.asarray(f(xs), dtype=float)
    best_i = int(np.argmax(vals))
    best_v = float(vals[best_i])
    a = float(xs[max(best_i - 1, 0)])
    b = float(xs[min(best_i + 1, n)])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t_star = 0.5 * (a + b)
    f_star = float(f(t_star))
    if best_v > f_star:
        t_star, f_star = float(xs[best_i]), best_v
    return t_star, f_star


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi] by Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 1971); needs a sign change, and lo < hi (else ValueError).  Runs
    to float spacing: returns the newest point once the next one would not
    fall strictly inside the bracket (a zero of ``f`` puts it on an end).
    """
    if not lo < hi:
        raise ValueError("bracket requires lo < hi")
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if fa * fb > 0.0:
        raise NoSignChangeError(f"f({a}) = {fa} and f({b}) = {fb} share a sign")
    x, kept = (a if abs(fa) < abs(fb) else b), 0
    while True:
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            return x
        x, fc = c, f(c)
        # the end kept twice running has its value halved
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            fb, kept = (0.5 * fb if kept == 1 else fb), 1
        else:
            b, fb = c, fc
            fa, kept = (0.5 * fa if kept == -1 else fa), -1
