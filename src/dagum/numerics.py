"""Adaptive quadrature, 1-D maximization and bracketed root-finding.

The quadrature core is a globally adaptive Gauss-Kronrod (7, 15) scheme.
Semi-infinite integrals either substitute ``s = a - log(u)/decay`` when the
integrand has a known exponential decay rate, or extend the domain in
doubling chunks until the tail contribution falls below ``abs_tol / 10``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NoSignChangeError

# Gauss-Kronrod (7, 15) nodes on [-1, 1] and weights; the 7-point Gauss rule
# reuses every other Kronrod node.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for :func:`integrate`."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")


DEFAULT_QUAD = QuadConfig()


def _gk15(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """One Gauss-Kronrod panel: (kronrod value, error estimate)."""
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = 0.0
    fg = 0.0
    for i, x in enumerate(_XGK):
        if x == 0.0:
            v = f(mid)
            fk += _WGK[i] * v
            fg += _WG[3] * v
        else:
            v1 = f(mid - h * x)
            v2 = f(mid + h * x)
            fk += _WGK[i] * (v1 + v2)
            if i % 2 == 1:
                fg += _WG[i // 2] * (v1 + v2)
    return fk * h, abs(fk - fg) * h


def _adaptive(
    f: Callable[[float], float],
    knots: Iterable[float],
    cfg: QuadConfig,
) -> Tuple[float, float]:
    """Globally adaptive refinement over an initial partition."""
    pts = sorted(set(float(k) for k in knots))
    if len(pts) < 2:
        raise ValueError("need at least two knots")
    heap = []
    total = 0.0
    err = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if a == b:
            continue
        v, e = _gk15(f, a, b)
        total += v
        err += e
        heapq.heappush(heap, (-e, a, b, v))
    splits = 0
    while err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions or not heap:
            raise ConvergenceError(
                f"quadrature did not converge after {splits} subdivisions "
                f"(estimate {total!r}, error {err!r})",
                value=total,
                err_estimate=err,
            )
        neg_e, a, b, v = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # Interval at rounding resolution: accept its value, retire its
            # error from the pool (cannot be improved further).
            err += neg_e
            continue
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total += v1 + v2 - v
        err += e1 + e2 + neg_e
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))
        splits += 1
    return total, err


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: Optional[QuadConfig] = None,
    *,
    decay: Optional[float] = None,
    knots: Iterable[float] = (),
) -> Tuple[float, float]:
    """Integrate ``f`` over [lo, hi]; ``hi`` may be ``math.inf``.

    Returns ``(value, err_estimate)``.  ``decay`` is the exponential decay
    rate of the integrand, enabling the log substitution on semi-infinite
    domains; without it the tail is truncated adaptively.  ``knots`` seed the
    initial partition (useful for known sharp features).
    """
    cfg = cfg or DEFAULT_QUAD
    if math.isinf(hi):
        return _integrate_semi_infinite(f, lo, cfg, decay, knots)
    if not lo < hi:
        raise ValueError("need lo < hi")
    pts = [lo, hi] + [k for k in knots if lo < k < hi]
    if len(pts) == 2:
        pts.append(0.5 * (lo + hi))
    return _adaptive(f, pts, cfg)


def _integrate_semi_infinite(f, lo, cfg, decay, knots):
    if decay is not None and decay > 0.0:
        lam = decay

        def g(u: float) -> float:
            s = lo - math.log(u) / lam
            return f(s) / (lam * u)

        return _adaptive(g, (0.0, 0.25, 0.5, 0.75, 1.0), cfg)

    # Doubling-chunk truncation: stop once two consecutive chunks contribute
    # less than a tenth of the absolute tolerance.
    inner = [k for k in knots if k > lo]
    first_hi = max(lo + 1.0, *(inner + [lo + 1.0]))
    pts = [lo] + sorted(k for k in inner if k < first_hi) + [first_hi]
    total, err = _adaptive(f, pts, cfg)
    a = first_hi
    width = first_hi - lo
    quiet = 0
    chunks = 0
    while quiet < 2:
        b = a + width
        v, e = _adaptive(f, (a, b), cfg)
        total += v
        err += e
        if abs(v) < cfg.abs_tol / 10.0:
            quiet += 1
        else:
            quiet = 0
        a = b
        width *= 2.0
        chunks += 1
        if chunks > 512:
            raise ConvergenceError(
                "semi-infinite tail did not settle within 512 doubling chunks",
                value=total,
                err_estimate=err,
            )
    return total, err


def maximize_1d(
    f: Callable,
    bracket: Bracket,
    tol: float = 1e-7,
    *,
    grid_points: int = 2048,
) -> Tuple[float, float]:
    """Global maximum of ``f`` over the bracket.

    A coarse scan (the objective may oscillate, so pure local search can
    miss the global peak) locates the best grid cell; golden-section then
    refines it.  ``f`` must accept an ndarray as well as a float: the scan
    is one call on the whole grid, the refinement calls it on floats.
    Returns ``(t_star, f_star)``.
    """
    lo, hi = bracket.lo, bracket.hi
    n = max(grid_points, 4)
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


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-9,
) -> float:
    """Bisection root of ``f`` on the bracket; needs a sign change."""
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise NoSignChangeError(f"f({a}) = {fa} and f({b}) = {fb} share a sign")
    while True:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) <= tol or b - a <= tol:
            return mid
        if fa * fm < 0.0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
