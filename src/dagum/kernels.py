"""Laplace-inversion kernels for the auxiliary family 1/(x^a (1+x^b)).

The central object is phi_b, the density whose Laplace transform is
1/(1+x^b) for 1 <= b <= 2.  Everything else is built from it:

    psi_b(t)   = integral of phi_b over [0, t]   (transform 1/(x(1+x^b)))
    rho_b      = the oscillatory closed-form part of psi_b
    tau_b      = psi_b - rho_b, completely monotonic
    eta_{a,b}  = fractional integral of phi_b (transform 1/(x^a (1+x^b)));
                 its sign decides complete monotonicity of 1/(x^a (1+x^b))
    kappa_a(t) = t^(a-1)/Gamma(a), the power-law Laplace density

``_closed_forms`` (which checks beta in [1, 2]) serves phi and psi at b = 1
and 2 exactly.  Inside (1, 2) each kernel has two independent routes, which
acceptance criterion 04 compares.

The contour (``_contour``) is the scalar route of tau, phi, psi and ``eta``:
it inverts the closed-form transforms 1/(1+s^b) for phi, s^(b-1)/(1+s^b) for
1 - psi (so psi, and tau = psi - rho) and s^-a/(1+s^b) for eta, by the
trapezoid rule on a parabola (at most about 3500 nodes), with no quadrature
and no spectral rule.

The spectral rule serves the grids from t = 1e-6 on (``_routed``), and so
every command: the residue term of the poles x = e^{+-i pi/b} of 1/(1+x^b),
written as ``_osc``, plus the branch-cut integral on one composite
Gauss-Legendre rule of 800 nodes (``_panel_rule``) on the
arctangent-substituted tau integral (``rule_rows``, for a group of betas at
once).  Its Laplace sums give psi, phi = rho' + tau', phi' (``psi_jets``)
and eta, with alpha-dependent weights on the same nodes, on whole grids.
The eta sign scans run on one grid t = k h (``eta_scan_grid``), where
exp(-k h d) factors into a per-block and a per-row part: ``eta_scan`` is
one matrix product per block, not one exp per (t, node), and the residue
e^{t z}, z = e^{i pi/b}, factors the same way.  ``spectral_rule`` caches
the rule of the last beta asked for, and a rule holds these alpha-free scan
arrays from its first scan on.  Every Laplace-sum exponent is floored at
-600, off numpy's slow exp range (-745, -707.7).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import integrate

PI = math.pi

ETA_GRID_T_FLOOR = 1e-6  # smallest t > 0 of the grid kernels on the rule; scans start above 4.6e-3


class _KernelValue(NamedTuple):
    value: float
    err_estimate: float
    route: str  # closed_form | contour


class KernelValue(_KernelValue):
    __slots__ = ()

    def __new__(cls, value: float, err_estimate: float, route: str) -> "KernelValue":
        if not err_estimate >= 0.0:  # also a NaN
            raise ValueError("err_estimate must be >= 0")
        return super().__new__(cls, value, err_estimate, route)


def _consts(beta: float) -> Tuple[float, float]:
    """(sigma, c) with sigma = -sin(beta*pi) > 0 and c = cos(beta*pi).

    sigma > 0 is exactly the discriminant condition under which
    1 + 2 c s^b + s^(2b) has no real zero, so the spectral rule's weights
    divide safely; it fails only at b = 1, 2, which the callers dispatch first.
    """
    sigma = -math.sin(beta * PI)
    if sigma <= 0.0:
        raise DomainError(f"the spectral rule needs beta strictly inside (1, 2), got {beta}")
    return sigma, math.cos(beta * PI)


def scan_range(beta: float, periods: float = 3.0) -> float:
    """Search horizon t-scale: the oscillation of psi_b is set by sin(pi/b).
    DomainError unless 1 < b <= 2 (at b = 1, sin(pi) rounds to 1.2e-16)."""
    if not 1.0 < beta <= 2.0:  # also a NaN
        raise DomainError(f"scan_range requires beta in (1, 2], got {beta}")
    return periods * PI / math.sin(PI / beta)


def _ladder(lo: float, hi: float, levels: Tuple[int, int]) -> list:
    """Points halving toward lo and hi, (down, up) = ``levels`` times each."""
    down, up = levels
    span = hi - lo
    out = [lo + span * 2.0 ** (-k) for k in range(1, down + 1)]
    out += [lo + span * (1.0 - 2.0 ** (-k)) for k in range(1, up + 1)]
    return out


# The order-10 Gauss-Legendre (nodes, weights) on [-1, 1], mirrored from the
# nonnegative halves, equal to numpy's ``leggauss`` bit for bit: held here,
# since loading numpy.polynomial costs a process about 4 ms and 0.9 MB.
_GAUSS_LEGENDRE = tuple(
    np.concatenate([sign * half[::-1], half])
    for sign, half in (
        (-1.0, np.array((0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                         0.8650633666889845, 0.9739065285171717))),
        (1.0, np.array((0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                        0.1494513491505804, 0.06667134430868814))),
    )
)

# The panel breaks on [0, 1]: ``_ladder`` halved 50 times toward 0 and 30
# times toward 1, with its ends; times a span, that span's ladder bit for bit.
_UNIT_BREAKS = np.array(sorted(set(_ladder(0.0, 1.0, (50, 30)) + [0.0, 1.0])))


def _panel_rule(hi) -> Tuple[np.ndarray, np.ndarray]:
    """The spectral rule's (nodes, weights): ``_GAUSS_LEGENDRE`` on each of the
    80 panels of ``_UNIT_BREAKS`` stretched over [0, hi]; for a column of
    ``hi``, one row of each per hi, as if for that hi alone."""
    breaks = hi * _UNIT_BREAKS
    xg, wg = _GAUSS_LEGENDRE
    h = 0.5 * np.diff(breaks)[..., None]
    nodes = 0.5 * (breaks[..., :-1] + breaks[..., 1:])[..., None] + h * xg
    return nodes.reshape(breaks.shape[:-1] + (-1,)), (h * wg).reshape(breaks.shape[:-1] + (-1,))


def _osc(beta, ts, shift, turn=None):
    """Residue term -(2/b) e^{t cos A} cos(t sin A + shift), A = pi/b, of the
    poles x = e^{+-i pi/b} of 1/(1+x^b); ``ts`` is a float or an array.  For
    an array of one beta per t, ``turn`` holds their (cos A, sin A), each taken
    by ``math`` as for a float beta."""
    cos_a, sin_a = (math.cos(PI / beta), math.sin(PI / beta)) if turn is None else turn
    return -(2.0 / beta) * np.exp(ts * cos_a) * np.cos(ts * sin_a + shift)


def _grid(ts) -> np.ndarray:
    """``ts`` as a float array of at least one dimension; DomainError unless
    every t is finite and >= 0."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not ((ts >= 0.0) & (ts < math.inf)).all():  # also a NaN
        raise DomainError("t must be finite and >= 0")
    return ts


def _closed_forms(beta: float) -> Optional[Tuple[Callable, Callable]]:
    """(phi_b, psi_b) as array functions at b = 1 and b = 2, else None.

    exp(-t) and 1 - exp(-t) at b = 1, sin t and 1 - cos t at b = 2.  Each
    returns an array of at least one dimension.  Raises DomainError for beta
    outside [1, 2], the domain of every kernel built from phi_b.
    """
    if not 1.0 <= beta <= 2.0:
        raise DomainError(f"the kernels require beta in [1, 2], got {beta}")
    if beta == 1.0:
        return lambda ts: np.exp(-_grid(ts)), lambda ts: 1.0 - np.exp(-_grid(ts))
    if beta == 2.0:
        return lambda ts: np.sin(_grid(ts)), lambda ts: 1.0 - np.cos(_grid(ts))
    return None


def kappa(alpha: float, t):
    """t^(alpha-1) / Gamma(alpha), elementwise for an array t; DomainError unless
    alpha > 0 and every t > 0 (NaN alpha gives NaN, as in ``eta_values``).
    Gamma(alpha) overflows for a subnormal alpha, where 1/Gamma(alpha) =
    alpha / Gamma(1 + alpha) rounds to alpha."""
    if alpha <= 0.0 or not np.all(np.greater(t, 0.0)):
        raise DomainError("kappa requires alpha > 0 and t > 0")
    if alpha < sys.float_info.min:
        return t ** (alpha - 1.0) * alpha
    return t ** (alpha - 1.0) / math.gamma(alpha)


def rho_kernel(beta: float, t: float) -> float:
    """1 - (2/b) exp(t cos(pi/b)) cos(t sin(pi/b)); closed form on [1, 2]."""
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    _grid(t)  # DomainError unless t is finite and >= 0
    return float(1.0 + _osc(beta, t, 0.0))


def _power(base: float, x: float, y: float) -> float:
    """base^(x + y) with the exponent unrounded: base^s base^e, (s, e) the
    TwoSum of x and y, s + e = x + y exactly (Knuth)."""
    s = x + y
    y_ = s - x
    e = (x - (s - y_)) + (y - y_)
    return np.power(base, s) * np.power(base, e)


def _contour(alpha: float, beta: float, t: float) -> Tuple[float, float]:
    """(value, err_estimate) of eta_{a,b}(t), the inverse Laplace transform of
    s^-a / (1 + s^b), for real a >= 1 - b, 1 <= b <= 2 and a finite t > 0:
    phi_b at a = 0, 1 - psi_b at a = 1 - b; ConvergenceError if it overflows.

    The trapezoid rule, in w = t s, on the parabola w(y) = v - c y^2 + i y
    around the branch cut (Weideman & Trefethen, Math. Comp. 76 (2007) 1341;
    Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350) that takes fewer nodes of
    two: the one right of the poles x + i y0 = t e^{+-i pi/b}, clear of them
    by m y0, m = min(1/2, 3/t): v = max(4.19, x + 2 m y0), c = min(1/(4v),
    (v - x - m y0)/y0^2) (about 12 t nodes at b = 2); and the free one, v =
    4.19, c = 1/(4v) (32 nodes, more near a pole).  Poles right of the parabola
    (at a large t) add their residues -(2/b) e^x cos(y0 + (1 - a) pi/b).  The
    step is h = 2 pi d / (55 + d), d the distance in y to the nearest root of
    w(y) = 0 or, if x >= -74 (a pole further left has residues below e^-74),
    of w(y) = x + i y0.  The value is h/pi times the sum over y = k h >= 0 of
    Re[e^w w^-a (1 + 2 i c y) / (r^b + (w/q)^b)], the first term halved, cut
    at Re w = -37, times r^(a+b-1) q^(a-1), r = min(t, 1) and q = max(t, 1),
    so that no power of w overflows at any t, each exponent taken unrounded
    as a + (b - 1) and a + (-1) (``_power``; b - 1 is exact for 1 <= b <= 2).  At most about 3500 nodes (3434
    at b = 1.1681, t = 82.27, the most found).  The error estimate is
    |I_h - I_2h| (I_2h on every other node), plus 64 eps times the terms'
    moduli, 2^-1074 (1 + the moduli) for a subnormal value, and 64 eps (1 + t
    + |1 - a|), at most 2, times the residues' amplitude.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"the contour needs a finite t > 0, got {t}")
    turn = PI / beta - 0.5 * PI  # exact, so that x = 0 at b = 2
    x, y0 = -t * math.sin(turn), t * math.cos(turn)
    m, yy = min(0.5, 3.0 / t), y0 * y0  # yy is 0 at b = 1 and a tiny t, inf at a huge t
    v = max(4.19, x + 2.0 * m * y0)
    c = min(0.25 / v, (v - x - m * y0) / yy) if 0.0 < yy < math.inf else 0.25 / v
    points = (0.0, complex(x, y0)) if x >= -74.0 else (0.0,)
    n = math.inf
    for v_, c_ in ((v, c), (4.19, 0.25 / 4.19)):
        roots = [cmath.sqrt(4.0 * c_ * (v_ - z) - 1.0) for z in points]  # y = (i +- root) / 2c
        d = min(abs(((1j + sign * root) / (2.0 * c_)).imag) for root in roots for sign in (1.0, -1.0))
        h_ = 2.0 * PI * d / (55.0 + d)
        if h_ > 0.0 and math.sqrt((37.0 + v_) / c_) / h_ < n:
            v, c, h, n = v_, c_, h_, math.sqrt((37.0 + v_) / c_) / h_
    y = h * np.arange(1 + int(n))
    r, q = min(t, 1.0), max(t, 1.0)
    w, dw = v - c * y * y + 1j * y, h / PI * (1.0 + 2j * c * y)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(w) * w ** -alpha / (r ** beta + (w / q) ** beta) * dw
        unit = float(_power(r, alpha, beta - 1.0) * _power(q, alpha, -1.0))
    terms[0] *= 0.5
    moduli = float(np.abs(terms).sum())
    if not moduli * unit < math.inf:  # also a NaN
        raise ConvergenceError(f"the contour sum is not finite at (a, b, t) = {(alpha, beta, t)}")
    fine = float(terms.real.sum())
    err = abs(fine - 2.0 * float(terms.real[::2].sum())) + 64.0 * sys.float_info.epsilon * moduli
    value, err = fine * unit, err * unit + (1.0 + moduli) * math.ulp(0.0)
    if x > v - c * yy:  # the poles lie right of the parabola
        amp = (2.0 / beta) * math.exp(x)
        value -= amp * math.cos(y0 + (1.0 - alpha) * (PI / beta))
        err += min(2.0, 64.0 * sys.float_info.epsilon * (1.0 + t + abs(1.0 - alpha))) * amp
    return value, err


def _on_contour(alpha: float, beta: float, t: float, at_zero: float) -> Tuple[float, float]:
    """``_contour`` for t > 0, and ``at_zero`` with err_estimate 0 at t = 0;
    DomainError unless t is finite and >= 0."""
    _grid(t)
    return (at_zero, 0.0) if t == 0.0 else _contour(alpha, beta, t)


def tau_kernel(beta: float, t: float) -> KernelValue:
    """Completely monotonic remainder tau_b(t) = psi_b(t) - rho_b(t) for
    1 < b < 2: -_osc(b, t, 0) - (1 - psi_b), with 1 - psi_b the contour's
    inversion of s^(b-1) / (1 + s^b); tau_b(0) = 2/b - 1 exactly.
    """
    if not 1.0 < beta < 2.0:
        raise DomainError("tau kernel requires beta in (1, 2)")
    v, e = _on_contour(1.0 - beta, beta, t, 1.0)
    return KernelValue(-float(_osc(beta, t, 0.0)) - v, e, "contour")


def phi(beta: float, t: float) -> KernelValue:
    """Laplace density of 1/(1+x^b) for b in [1, 2]: exp(-t) or sin t at
    b = 1 or 2; inside, the contour's inversion of 1/(1+s^b), with
    phi_b(0) = 0 exactly.
    """
    forms = _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    if forms:
        return KernelValue(float(forms[0](t)[0]), 0.0, "closed_form")
    return KernelValue(*_on_contour(0.0, beta, t, 0.0), "contour")


def psi(beta: float, t: float) -> KernelValue:
    """psi_b(t) = integral of phi_b over [0, t]: 1 - exp(-t) or 1 - cos t at
    b = 1 or 2; inside, 1 minus the contour's inversion of s^(b-1) / (1 + s^b),
    with psi_b(0) = 0 exactly.

    psi_b >= 0, and psi_b(t) -> 1 as t -> infinity for b < 2.
    """
    forms = _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    if forms:
        return KernelValue(float(forms[1](t)[0]), 0.0, "closed_form")
    v, e = _on_contour(1.0 - beta, beta, t, 1.0)
    return KernelValue(1.0 - v, e, "contour")


# Rows of t per block of a Laplace sum:
# 256 rows x 800 nodes is about 1.6 MB; rows gathered from several rules go
# 16 to a block (``psi_jets``), and the sign scan reuses one block of 128 rows
# (``PsiEvaluator.eta_scan``).
# Every exponent is floored at -600, off numpy's slow exp range (-745, -707.7);
# e^-600 |v_i| stays a normal double for every |v_i| > 1e-47.
_BLOCK_ROWS, _GATHER_ROWS, _SCAN_ROWS, _EXP_FLOOR = 256, 16, 128, -600.0
_EXP_UNDERFLOW = 746.0  # exp(-x) is exactly 0 in double precision for x > 745.14
_SCAN_POINTS = 4096  # of the sign-scan grid: 32 blocks of ``_SCAN_ROWS``


def eta_scan_grid(beta: float) -> np.ndarray:
    """The one grid of every eta sign scan: t_k = k h, k < 4096, on
    [0, scan_range(b, 6) = 6 pi / sin(pi/b)], so h = t_max / 4095 (at least
    4.6e-3, at b = 2; 146 at b = 1 + 1e-5).  ``eta_scan`` and
    ``classify.eta_negative_witness`` both read it."""
    return np.arange(_SCAN_POINTS) * (scan_range(beta, 6.0) / (_SCAN_POINTS - 1))


def _laplace_sums(ts: np.ndarray, d: np.ndarray, w: np.ndarray, order: int = 0,
                  which=None) -> np.ndarray:
    """Row k = 0, ..., order: sum_i w[j, i] (-d[j, i])^k exp(-t d[j, i]), the
    k-th t-derivative of row 0, for each t = ts[r] of the 1-D ``ts``, on rule
    j = which[r] of the G rules whose decays and weights are the rows of ``d``
    and ``w``, shape (G, n), or on rule 0 when ``which`` is None.

    A block of t is filled as an einsum outer product of t and the negated
    decays (rows of several rules: a broadcast product of the gathered ones), each
    entry one product, and one einsum reduces all rows k over it, on the
    w_i (-d_i)^k of the block's rules, each (k, t) its own reduction, so a
    value does not depend on which t or rules share its block.  A block skips
    the leading nodes (the decays fall with i) where exp(-t d) underflows to 0
    for all its t, in multiples of 64, so the rest keep their einsum lanes.
    Exponents below ``_EXP_FLOOR`` are raised to it (exp's fast path), which
    moves a sum by at most sum |w_i d_i^k| e^-600, as a skip does: terms that
    vanish in each sum's rounding.  Rows of several rules go 16 to a block.
    """
    out = np.empty((order + 1, ts.size))
    step = _BLOCK_ROWS if which is None else _GATHER_ROWS
    for start in range(0, ts.size, step):
        rows = ts[start : start + step]
        pick = 0 if which is None else which[start : start + step]
        ds = d[pick]  # one rule's decay row, or one row per t
        low = ds if ds.ndim == 1 else ds.min(axis=0)
        skip = int(np.count_nonzero(low * rows.min() > _EXP_UNDERFLOW)) // 64 * 64
        ds = -ds[..., skip:]
        v = np.empty((order + 1,) + ds.shape)
        v[0] = w[pick, skip:]
        for k in range(order):
            np.multiply(v[k], ds, out=v[k + 1])
        if ds.ndim == 1:
            block, spec = np.einsum("i,j->ij", rows, ds), "ij,kj->ki"
        else:
            block, spec = np.multiply(rows[:, None], ds), "ij,kij->ki"
        np.exp(np.maximum(block, _EXP_FLOOR, out=block), out=block)
        out[:, start : start + step] = np.einsum(spec, block, v)
    return out


def psi_jets(betas: np.ndarray, decays: np.ndarray, weights: np.ndarray, order: int,
             runs: bool = False) -> Callable:
    """Psi jets on the rules of ``betas``, rule j the rows j of ``decays`` and
    ``weights`` (``rule_rows``): a function (ts, which=None) whose row k = 0,
    ..., order holds psi_b, phi_b, phi_b', ... at each t of ``ts``, in its
    shape (at least 1-D), on rule 0, or on rule which[r] at t = ts[r] of a
    1-D ``ts``: _osc(b, t, k pi/b) + (-1)^k sum_i w_i d_i^k e^(-t d_i) / (b pi),
    plus 1 for k = 0, phi_b(0) = 0 exactly; a value does not depend on the
    other t.  Rows of several rules are gathered; with ``runs``, ``ts`` is a
    (G, n) block and its row j is on rule j, one rule's block alone.
    """
    turn = np.array([(math.cos(PI / b), math.sin(PI / b)) for b in betas.tolist()]).T
    k = np.arange(order + 1)[:, None]

    def jet(ts, which=None) -> np.ndarray:
        grid = _grid(ts)
        ts = grid.ravel()
        which = np.repeat(np.arange(betas.size), grid.shape[1]) if runs else which
        pick = 0 if which is None else which
        b = betas[pick]
        out = _osc(b, ts, k * (PI / b), turn[:, pick])
        out[0] += 1.0
        if runs:  # each row a one-rule block
            sums = np.hstack([_laplace_sums(row, decays[j : j + 1], weights[j : j + 1], order)
                              for j, row in enumerate(grid)])
        else:
            sums = _laplace_sums(ts, decays, weights, order, which)
        out += sums / (b * PI)
        out[1:2] = np.where(ts == 0.0, 0.0, out[1:2])
        return out.reshape(out.shape[:1] + grid.shape)

    return jet


def rule_rows(betas: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(decays, weights), each (G, 800), row j the spectral rule of betas[j] in
    (1, 2), bit for bit as if built alone: composite Gauss-Legendre on the
    arctangent-substituted tau integral, 80 panels of 10 nodes halved 50 times
    toward w = 0 (the large decays small t needs) and 30 times toward the
    small-y kink at w = (2-b) pi."""
    consts = [(*_consts(b), (2.0 - b) * PI, 1.0 / b) for b in betas.tolist()]
    sigma, c, span, power = np.array(consts).T[:, :, None]
    d, weights = _panel_rule(span)
    np.subtract(np.divide(sigma, np.tan(d, out=d), out=d), c, out=d)  # the nodes, in place
    return np.power(np.maximum(d, 0.0, out=d), power, out=d), weights


class PsiEvaluator:
    """psi_b, phi_b and eta_{a,b} on vectors of t from the spectral rule of one
    beta (``rule_rows``): Laplace sums over its nodes, taken in blocks of t so
    that a dense grid never holds the whole t-by-node matrix."""

    def __init__(self, beta: float):
        if not 1.0 < beta < 2.0:
            raise DomainError("PsiEvaluator requires beta in (1, 2)")
        self.beta = beta
        (self._decay,), (self._weights,) = rule_rows(np.array([beta]))
        self._basis: Optional[tuple] = None  # ``_scan_basis``, built by the first scan

    def psi_values(self, ts) -> np.ndarray:
        """psi_b = rho_b + tau_b, with tau_b the Laplace sum of the weights."""
        return self.psi_jet(ts, 0)[0]

    def phi_values(self, ts) -> np.ndarray:
        """phi_b = rho_b' + tau_b', with the exact limit phi_b(0) = 0."""
        return self.psi_jet(ts, 1)[1]

    def psi_jet(self, ts, order: int) -> np.ndarray:
        """Rows k = 0, ..., order: psi_b and its derivatives phi_b, phi_b', ...
        from one exp block: the one-rule case of ``psi_jets``."""
        return psi_jets(np.array([self.beta]), self._decay[None], self._weights[None], order)(ts)

    def _eta_weights(self, alpha: float) -> np.ndarray:
        """The v_i of ``eta_values``; DomainError unless 0 < a <= 1 (a NaN
        passes and gives NaN weights)."""
        if alpha <= 0.0 or alpha > 1.0:
            raise DomainError(f"eta on the rule requires 0 < alpha <= 1, got {alpha}")
        b, d = self.beta, self._decay
        return self._weights * d ** (1.0 - alpha) * (
            math.sin(PI * (b - alpha)) - d ** b * math.sin(PI * alpha)
        ) / (PI * _consts(b)[0] * b)

    def eta_values(self, alpha: float, ts) -> np.ndarray:
        """eta_{a,b}(t) = t^(a-1)/Gamma(a) - (2/b) e^{t cos A} cos(t sin A +
        (1-a) A) + sum_i v_i e^{-t d_i} (A = pi/b, nodes d_i, weights w_i,
        v_i = w_i d_i^(1-a) [sin(pi (b-a)) - d_i^b sin(pi a)] / (pi sigma b)),
        the branch-cut inversion of 1/(x^a (1+x^b)) - x^-a, and 0 at t = 0.
        It holds for a < b + 1, but does not resolve d^(1-a) at a > 1 (4e-6 off
        at b = 1.5, a = 2), nor the cancellation below t = 1e-6 (-27061 for
        eta = 6e-9 at b = 1.98, t = 1e-8): DomainError unless 0 < a <= 1 and
        each t is 0 or >= ``ETA_GRID_T_FLOOR``; a NaN a gives NaN.  It drifts
        toward b = 1 (0.2 off at 1 + 1e-12) and at t near 1e-6 toward b = 2
        (4e-10 at 2 - 1e-8, 3e-8 at 2 - 1e-12)."""
        v = self._eta_weights(alpha)
        ts = np.asarray(ts, dtype=float)
        if np.any((ts != 0.0) & ~(ts >= ETA_GRID_T_FLOOR)):  # also a negative or NaN t
            raise DomainError(f"eta on the rule requires t = 0 or t >= {ETA_GRID_T_FLOOR}")
        pos = ts > 0.0
        tp, b = ts[pos], self.beta
        out = np.zeros(ts.shape)
        sums = _laplace_sums(tp, self._decay[None], v[None])[0]
        out[pos] = kappa(alpha, tp) + _osc(b, tp, (1.0 - alpha) * (PI / b)) + sums
        return out

    def eta_scan(self, alpha: float) -> np.ndarray:
        """eta_{a,b} (0 < a <= 1) or phi_b (a = 0) on ``eta_scan_grid(b)``,
        with the value 0 at t = 0.

        On that grid exp(-(k R + j) h d_i) = exp(-k R h d_i) exp(-j h d_i): the
        scan is one product of B[j, i] = exp(-j h d_i), R = ``_SCAN_ROWS`` rows,
        and E[i, k] = v_i exp(-k R h d_i), 0 below ``_EXP_FLOOR``, k < 32, where
        B is floored, plus the residue ``_osc``, as Re(r e^{i shift}) of the held
        r = -(2/b) e^{t z}, z = e^{i pi/b}.  B, E but for v and r come from
        ``_scan_basis``, which this evaluator holds for its next scan (a
        ``c_bounds`` bisection).  Values differ from ``eta_values`` and
        ``phi_values`` by rounding (about 1e-14), which may differ between BLAS
        thread counts.  DomainError for a outside [0, 1]; a NaN a gives NaN.
        """
        if alpha < 0.0 or alpha > 1.0:
            raise DomainError(f"the scan requires 0 <= alpha <= 1, got {alpha}")
        b = self.beta
        if alpha == 0.0:
            v, shift = self._weights * self._decay / (-b * PI), PI / b
        else:
            v, shift = self._eta_weights(alpha), (1.0 - alpha) * (PI / b)
        ts, re, im, keep, block, cols = self._scan_basis()
        out = re * math.cos(shift)
        out -= im * math.sin(shift)
        out += (block @ (cols * v[keep, None])).T.ravel()
        if alpha != 0.0:
            out[1:] += kappa(alpha, ts[1:])
        out[0] = 0.0
        return out

    def _scan_basis(self) -> tuple:
        """``eta_scan``'s alpha-free arrays, built as fresh read-only arrays by
        the first scan and then held by this evaluator: t, the real and
        imaginary parts of the residue r = -(2/b) e^{t z}, z = e^{i pi/b}, the
        kept nodes, B and exp(-k R h d_i).  At t = (k R + j) h, r is
        e^{k R h z} times -(2/b) e^{j h z}: 32 + 128 exponentials and one
        product, not one exp and one cos per t.  A build that fails holds
        nothing; two threads that both build hold equal arrays."""
        if self._basis is None:
            n, rows, b = _SCAN_POINTS, _SCAN_ROWS, self.beta
            ts = eta_scan_grid(b)
            h = float(ts[1])
            # e^{x z} at x = k R h, k < 32, then at x = j h, j < R
            x = h * np.concatenate([np.arange(0, n, rows), np.arange(rows)])
            cos_a, sin_a = math.cos(PI / b), math.sin(PI / b)
            turn = np.exp(x * cos_a) * (np.cos(x * sin_a) + 1j * np.sin(x * sin_a))
            r = np.multiply.outer(turn[: n // rows], (-2.0 / b) * turn[n // rows :]).ravel()
            re, im = np.array([r.real, r.imag])
            keep = h * self._decay <= _EXP_UNDERFLOW  # the rest add nothing at any t > 0
            d = self._decay[keep]
            block = np.multiply.outer(-h * np.arange(rows), d)
            np.exp(np.maximum(block, _EXP_FLOOR, out=block), out=block)
            # column k is exp(-k R h d_i), exactly 0 below the floor
            cols = np.multiply.outer(d, -(h * np.arange(0, n, rows)))
            np.exp(cols, out=cols, where=cols >= _EXP_FLOOR)
            cols[cols < _EXP_FLOOR] = 0.0  # the entries exp left as they were
            for arr in (ts, re, im, keep, block, cols):
                arr.flags.writeable = False
            self._basis = (ts, re, im, keep, block, cols)
        return self._basis


# -- per-beta cache of spectral rules ----------------------------------------

# One beta, the last asked for: a command asks for one (``classify.psi_max``
# builds the rules of its beta grid itself, not from this cache).
_RULES = functools.lru_cache(maxsize=1)(PsiEvaluator)
_BETA_LOCK = threading.Lock()


def spectral_rule(beta: float) -> PsiEvaluator:
    """The cached PsiEvaluator for beta in (1, 2), with its eta-scan basis once
    it has scanned.  The lock makes the lookup and a build one step, so two
    threads never build two rules for one beta; a failed build is not kept."""
    with _BETA_LOCK:
        return _RULES(beta)


def _routed(ts, rule: Optional[Callable], scalar: Callable) -> np.ndarray:
    """The grid kernels' route rule, in ``_grid(ts)``'s shape: the array route
    ``rule`` (None if none serves) at t = 0 and each t >= ``ETA_GRID_T_FLOOR``,
    ``scalar`` (the contour) at every other t > 0, and 0 at t = 0 without one."""
    ts = _grid(ts)
    far = (rule is not None) & ((ts == 0.0) | (ts >= ETA_GRID_T_FLOOR))
    out = np.zeros(ts.shape)
    if far.any():
        out[far] = rule(ts[far])
    near = ~far & (ts > 0.0)
    out[near] = [scalar(t).value for t in ts[near].tolist()]
    return out


def phi_callable(beta: float) -> Callable:
    """Vectorized t -> phi_b(t) for t >= 0, in t's shape, at least 1-D: by
    ``_routed``, exp(-t) or sin t at b = 1 or 2, else the spectral rule's
    ``phi_values`` (the phi of ``psi_max``), and ``phi``."""
    forms = _closed_forms(beta)
    rule = forms[0] if forms else spectral_rule(beta).phi_values
    return lambda ts: _routed(ts, rule, lambda t: phi(beta, t))


def eta(alpha: float, beta: float, t: float) -> KernelValue:
    """Fractional integral (1/Gamma(a)) int_0^t (t-s)^(a-1) phi_b(s) ds, for
    every finite a > 0, b in [1, 2] and finite t > 0.

    The sign of eta decides complete monotonicity of 1/(x^a (1+x^b)); at
    a = 1 it reduces to psi_b(t).  ``_contour`` inverts its Laplace transform
    s^-a / (1+s^b): no quadrature and no spectral rule, so it checks the
    rule's ``eta_values`` and the sign scans independently.
    DomainError for an a that is not finite and > 0; ConvergenceError where
    the contour's sum or its factor t^(a-1) overflows (a in the hundreds, or
    a = 3 at t = 1e300).
    """
    if not 0.0 < alpha < math.inf:  # also a NaN
        raise DomainError(f"eta requires a finite alpha > 0, got {alpha}")
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    return KernelValue(*_contour(alpha, beta, t), "contour")


def eta_grid(alpha: float, beta: float, ts) -> np.ndarray:
    """Vectorized eta_{a,b} over a grid of t >= 0 (for threshold scans), on
    ``eta``'s domain, with eta(0) = 0, in t's shape, at least 1-D: by
    ``_routed``, the spectral rule's ``eta_values`` where 1.0001 <= b <= 1.9999
    and a <= 1, within 1.2e-10 of max(1, |eta|) of the contour there, and ``eta``.
    """
    if not 0.0 < alpha < math.inf:  # also a NaN
        raise DomainError(f"eta requires a finite alpha > 0, got {alpha}")
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    on_rule = 1.0001 <= beta <= 1.9999 and alpha <= 1.0
    rule = (lambda s: spectral_rule(beta).eta_values(alpha, s)) if on_rule else None
    return _routed(ts, rule, lambda t: eta(alpha, beta, t))


def laplace_check(kernel: str, beta: float, x: float, alpha: Optional[float] = None) -> float:
    """|numeric Laplace transform - closed-form target| as a validation probe.

    Targets: phi -> 1/(1+x^b); psi -> 1/(x(1+x^b));
    eta (needs alpha) -> 1/(x^a (1+x^b)).
    """
    if not x > 0.0:
        raise DomainError("laplace check requires x > 0")
    forms = _closed_forms(beta)

    if kernel == "phi":
        phi_vec = phi_callable(beta)
        f = lambda t: math.exp(-x * t) * float(phi_vec(t)[0])  # noqa: E731
        target = 1.0 / (1.0 + x ** beta)
    elif kernel == "psi":
        psi_vec = forms[1] if forms else spectral_rule(beta).psi_values
        f = lambda t: math.exp(-x * t) * float(psi_vec(t)[0])  # noqa: E731
        target = 1.0 / (x * (1.0 + x ** beta))
    elif kernel == "eta":
        if alpha is None or alpha <= 0.0:
            raise DomainError("eta kernel needs alpha > 0")
        f = lambda t: math.exp(-x * t) * eta(alpha, beta, t).value if t > 0 else 0.0  # noqa: E731
        target = 1.0 / (x ** alpha * (1.0 + x ** beta))
    else:
        raise ValueError("kernel must be one of 'phi', 'psi', 'eta'")

    value, _ = integrate(f, 0.0, math.inf)
    return abs(value - target)
