"""Adaptive quadrature, 1-D maximization, bracketed root-finding and the
lanes that run a list of independent jobs on several CPUs.

Quadrature is QUADPACK (Piessens et al., 1983) via ``scipy.integrate.quad``,
imported on the first call so that importing this module does not load scipy.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from typing import Callable, Tuple

import numpy as np

from .errors import ConvergenceError, NoSignChangeError

# CPUs the process may run on: the most lanes a caller asks ``run_lanes`` for.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# QUADPACK's absolute and relative tolerance and subdivision budget, per call.
QUAD_TOL, QUAD_LIMIT = 1e-9, 4000


def integrate(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """``(value, err_estimate)`` of the integral of ``f`` over [lo, hi]; ``hi`` may be inf.

    A QUADPACK failure raises ConvergenceError with the partial value.
    """
    from scipy.integrate import quad

    if not lo < hi:
        raise ValueError("need lo < hi")
    value, err, *info = quad(f, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=QUAD_LIMIT,
                             full_output=1)
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


def run_lanes(job: Callable[[int], None], count: int, lanes: int) -> None:
    """``job(k)`` for every k in range(count), on ``lanes`` lanes.

    The caller runs every lanes-th k from 0, and one thread per further lane
    every lanes-th k from its own first, in a copy of the caller's context (so
    ``np.errstate`` holds there too).  One lane starts no thread.  A lane stops
    at its first error; once every lane has ended, the first error in k order
    is raised.  Lanes overlap only in numpy calls that release the GIL, and
    each job must write only its own results.
    """
    errors = {}

    def lane(first: int) -> None:
        for k in range(first, count, lanes):
            try:
                job(k)
            except BaseException as exc:  # raised by the caller, after the join
                errors[k] = exc
                return

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(lane, first))
               for first in range(1, lanes)]
    for thread in threads:
        thread.start()
    lane(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
