"""Laplace-inversion kernels for the auxiliary family 1/(x^a (1+x^b)).

The central object is phi_b, the density whose Laplace transform is
1/(1+x^b) for 1 < b < 2.  Everything else is built from it:

    psi_b(t)   = integral of phi_b over [0, t]   (transform 1/(x(1+x^b)))
    rho_b      = the oscillatory closed-form part of psi_b
    tau_b      = psi_b - rho_b, completely monotonic, two integral routes
    eta_{a,b}  = fractional integral of phi_b; its sign decides complete
                 monotonicity of 1/(x^a (1+x^b))
    kappa_a(t) = t^(a-1)/Gamma(a), the power-law Laplace density

Each of phi, psi and eta is the residue term of the poles x = e^{+-i pi/b}
of 1/(1+x^b), written once as ``_osc``, plus a branch-cut integral.  Grids
and sign scans use the spectral rule on 1 < b < 2; ``_closed_forms`` (which
checks beta in [1, 2]) serves only b = 1 and 2, where no rule exists, and
``ENDPOINT_BAND`` only the adaptive ``phi`` and ``psi``, whose routes fail there.

Evaluation notes.  The adaptive routes run on QUADPACK (``numerics``).
tau's primary route and phi's alternate route (t >= 0.5) integrate to
infinity by the infinite-range transformation; the arctangent-substituted
tau route and phi's alternate route below t = 0.5 (truncated at 45/t) are
finite, with break points refined geometrically toward the ends.  phi's
primary route folds its Mellin-type algebraic tail, which no truncation
reaches for b near 1, onto a finite interval: y = s^b, then y + cos(b pi) =
sin-magnitude * cot(w), and a power-law change of variable in log space
removes the remaining w^(-1/b) endpoint singularity.  The denominator
1 + 2 s^b cos(b pi) + s^(2b) has no real zero for b in (1, 2) but dips to
sin^2(b pi) near s^b = -cos(b pi), where break points are seeded.  eta
hands (t-s)^(a-1) to the algebraic-weight rule, on phi_b(s) - phi_b(t).

Grid work goes through ``PsiEvaluator`` instead: one fixed composite
Gauss-Legendre rule of 800 nodes on the arctangent-substituted tau integral,
whose Laplace sums give psi, phi = rho' + tau', phi' and eta on whole grids
(``psi_jets``: psi and derivatives from one exp block, each t on its own
rule, for the Newton steps of psi_max over a beta grid; ``psi_jet`` is its
one-rule case, for the psi_max scan from t > 0).  eta is the same branch-cut
inversion as tau, with alpha-dependent weights on the same nodes.  The
Gauss-Legendre tables are held as constants.  The eta sign scans themselves
run on one uniform grid t = k h (``eta_scan_grid``), where exp(-k h d)
factors into a per-block and a per-row part: ``eta_scan`` is one matrix
product of a block of exp(-j h d) and a column of shifts per block, not one
exp per (t, node).
Every Laplace-sum exponent is floored at -600, off numpy's slow exp range
(-745, -707.7).  The adaptive routes above stay as the independent check.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .numerics import integrate

PI = math.pi

# The adaptive ``phi`` and ``psi`` use the closed forms this close to b = 1, 2.
ENDPOINT_BAND = 2.5e-4

ETA_GRID_T_FLOOR = 1e-6  # smallest positive t of eta on the rule; scans start above 4.6e-3


@dataclass(frozen=True)
class KernelValue:
    value: float
    err_estimate: float
    route: str  # closed_form | quadrature_primary | quadrature_alternate

    def __post_init__(self):
        if self.err_estimate < 0.0:
            raise ValueError("err_estimate must be >= 0")


def _consts(beta: float) -> Tuple[float, float]:
    """(sigma, c) with sigma = -sin(beta*pi) > 0 and c = cos(beta*pi).

    sigma > 0 is exactly the discriminant condition under which
    1 + 2 c s^b + s^(2b) has no real zero, so the integrands below divide
    safely; it fails only at b = 1, 2, which the callers dispatch first.
    """
    sigma = -math.sin(beta * PI)
    if sigma <= 0.0:
        raise DomainError(f"integral routes need beta strictly inside (1, 2), got {beta}")
    return sigma, math.cos(beta * PI)


def scan_range(beta: float, periods: float = 3.0) -> float:
    """Search horizon t-scale: the oscillation of psi_b is set by sin(pi/b)."""
    return periods * PI / math.sin(PI / beta)


def _denom(s: float, beta: float, c: float) -> float:
    sb = s ** beta
    return 1.0 + 2.0 * c * sb + sb * sb


def _ladder(lo: float, hi: float, levels=45) -> list:
    """Knots halving toward lo and hi ``levels`` times each, or a (lo, hi) pair of times."""
    down, up = levels if isinstance(levels, tuple) else (levels, levels)
    span = hi - lo
    out = [lo + span * 2.0 ** (-k) for k in range(1, down + 1)]
    out += [lo + span * (1.0 - 2.0 ** (-k)) for k in range(1, up + 1)]
    return out


# The nonnegative halves of the Gauss-Legendre (nodes, weights) on [-1, 1] of
# orders 8 and 10, equal to numpy's ``leggauss`` bit for bit: held here, since
# loading numpy.polynomial costs a process about 4 ms and 0.9 MB.
_GAUSS_LEGENDRE = {
    8: (
        (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
        (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706),
    ),
    10: (
        (0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
         0.9739065285171717),
        (0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804,
         0.06667134430868814),
    ),
}


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = map(np.array, _GAUSS_LEGENDRE[order])
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


@functools.lru_cache(maxsize=None)
def _unit_breaks(levels) -> np.ndarray:
    """Sorted [0, 1] ``_ladder`` with its ends; times a span, that span's ladder bit for bit."""
    return np.array(sorted(set(_ladder(0.0, 1.0, levels) + [0.0, 1.0])))


def _panel_rule(lo: float, hi: float, levels, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre (nodes, weights) on the panels of ``_ladder``."""
    breaks = lo + (hi - lo) * _unit_breaks(levels)
    xg, wg = _leggauss(order)
    h = 0.5 * np.diff(breaks)[:, None]
    nodes = 0.5 * (breaks[:-1] + breaks[1:])[:, None] + h * xg
    return nodes.ravel(), (h * wg).ravel()


def _resonance_knots(beta: float, sigma: float, c: float, upper: float) -> list:
    # Denominator minimum at s^b = -c (only reachable when c < 0, b < 1.5).
    if c >= 0.0:
        return []
    s0 = (-c) ** (1.0 / beta)
    w = max(sigma / beta, 1e-6)
    return [k for k in (s0 - 10 * w, s0 - w, s0, s0 + w, s0 + 10 * w) if 0.0 < k < upper]


def _osc(beta, ts, shift, turn=None):
    """Residue term -(2/b) e^{t cos A} cos(t sin A + shift), A = pi/b, of the
    poles x = e^{+-i pi/b} of 1/(1+x^b); ``ts`` is a float or an array.  For
    an array of one beta per t, ``turn`` holds their (cos A, sin A), each taken
    by ``math`` as for a float beta."""
    cos_a, sin_a = (math.cos(PI / beta), math.sin(PI / beta)) if turn is None else turn
    return -(2.0 / beta) * np.exp(ts * cos_a) * np.cos(ts * sin_a + shift)


def _grid(ts) -> np.ndarray:
    """``ts`` as a float array of at least one dimension; DomainError for t < 0 or NaN."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not (ts >= 0.0).all():
        raise DomainError("t must be >= 0")
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
    if not 1.0 <= beta <= 2.0:
        raise DomainError("rho kernel requires beta in [1, 2]")
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    return float(1.0 + _osc(beta, t, 0.0))


def _tau_primary(beta: float, t: float) -> Tuple[float, float]:
    """Direct s-domain integral: (sigma/pi) * int e^{-ts} s^(b-1) / D(s) ds."""
    sigma, c = _consts(beta)

    def g(s: float) -> float:
        return math.exp(-t * s) * s ** (beta - 1.0) / _denom(s, beta, c)

    knots = _resonance_knots(beta, sigma, c, math.inf)
    v, e = integrate(g, 0.0, math.inf, knots=knots)
    return sigma / PI * v, sigma / PI * e


def _tau_alternate(beta: float, t: float) -> Tuple[float, float]:
    """Arctangent-substituted route on the finite interval (0, (2-b)*pi]."""
    sigma, c = _consts(beta)
    w_hi = (2.0 - beta) * PI
    inv_beta = 1.0 / beta

    def g(w: float) -> float:
        y = sigma / math.tan(w) - c
        y = y if y > 0.0 else 0.0  # rounding noise at the y = 0 endpoint
        return math.exp(-t * y ** inv_beta)

    v, e = integrate(g, 0.0, w_hi, knots=_ladder(0.0, w_hi))
    return v / (beta * PI), e / (beta * PI)


def tau_kernel(beta: float, t: float, route: str = "primary") -> KernelValue:
    """Completely monotonic remainder tau_b(t) = psi_b(t) - rho_b(t).

    ``route`` selects between the two integral representations; they agree
    within combined error estimates.  tau_b(0) = 2/b - 1.
    """
    if not 1.0 < beta < 2.0:
        raise DomainError("tau kernel requires beta in (1, 2)")
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    if route == "primary":
        v, e = _tau_primary(beta, t)
        return KernelValue(v, e, "quadrature_primary")
    if route == "alternate":
        v, e = _tau_alternate(beta, t)
        return KernelValue(v, e, "quadrature_alternate")
    raise ValueError("route must be 'primary' or 'alternate'")


def _J_integral(beta: float, t: float) -> Tuple[float, float]:
    """int_0^inf e^{-ts} s^b / D(s) ds, split at s^b = 4.

    The head is integrated directly; the algebraic tail is compactified
    (y = s^b, then cot) and its w^(-1/b) endpoint removed by a power-law
    substitution in log space.
    """
    sigma, c = _consts(beta)
    s_split = 4.0 ** (1.0 / beta)

    def g(s: float) -> float:
        return math.exp(-t * s) * s ** beta / _denom(s, beta, c)

    knots = _ladder(0.0, s_split, (30, 0)) + _resonance_knots(beta, sigma, c, s_split)
    v1, e1 = integrate(g, 0.0, s_split, knots=knots)

    w_hi = math.atan(sigma / (4.0 + c))
    q = beta / (beta - 1.0)
    v_hi = w_hi ** (1.0 / q)
    ln_sigma = math.log(sigma)
    inv_beta = 1.0 / beta

    def h(v: float) -> float:
        if v <= 0.0:
            return 0.0
        ln_v = math.log(v)
        ln_w = q * ln_v
        if ln_w > -18.0:
            w = math.exp(ln_w)
            ln_y = math.log(sigma / math.tan(w) - c)
        else:
            ln_y = ln_sigma - ln_w  # cot(w) ~ 1/w
        ln_big = ln_y * inv_beta
        amp = q * math.exp((q - 1.0) * ln_v + ln_big)
        if t == 0.0:
            return amp
        if ln_big > 700.0:
            return 0.0
        return amp * math.exp(-t * math.exp(ln_big))

    # Knots geometric toward v = 0 as in the head: for small t the integrand
    # has a narrow feature near v = 0 that a three-knot start can miss.
    v2, e2 = integrate(h, 0.0, v_hi, knots=_ladder(0.0, v_hi, (30, 0)))
    return v1 + v2 / (beta * sigma), e1 + e2 / (beta * sigma)


def _phi_primary(beta: float, t: float) -> Tuple[float, float]:
    sigma, _ = _consts(beta)
    v, e = _J_integral(beta, t)
    return -(sigma / PI) * v + float(_osc(beta, t, PI / beta)), (sigma / PI) * e


def _phi_alternate(beta: float, t: float) -> Tuple[float, float]:
    """Integration-by-parts route with the arctan weight; valid for t > 0.

    The weight atan((s^b + c) / sin(b pi)) is shifted by pi/2 to decay like
    s^(-b); the shift is exact because (1 - ts) e^{-ts} integrates to 0 over
    [0, inf).  atan2(sigma, s^b + c) is the shifted weight without the
    cancellation of -pi/2 + pi/2, whose noise over a 45/t-wide range stalls
    the quadrature at small t.
    """
    if t <= 0.0:
        raise DomainError("the integrated-by-parts route requires t > 0")
    sigma, c = _consts(beta)

    def g(s: float) -> float:
        return math.atan2(sigma, s ** beta + c) * (1.0 - t * s) * math.exp(-t * s)

    if t >= 0.5:
        v, e = integrate(g, 0.0, math.inf)
    else:
        # below t = 0.5 the infinite-range transformation fails (t = 1e-8)
        hi = 45.0 / t
        v, e = integrate(g, 0.0, hi, knots=_ladder(0.0, hi, 40))
    return -(v / (beta * PI)) + float(_osc(beta, t, PI / beta)), e / (beta * PI)


def phi(beta: float, t: float, route: str = "primary") -> KernelValue:
    """Laplace density of 1/(1+x^b) for b in [1, 2].

    Within ``ENDPOINT_BAND`` of b = 1 or 2, exp(-t) or sin(t), err_estimate
    its gap to ``phi_callable``; otherwise the requested integral route.
    """
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    if abs(beta - round(beta)) < ENDPOINT_BAND:
        v = float(_closed_forms(round(beta))[0](t)[0])
        return KernelValue(v, abs(v - float(phi_callable(beta)(t)[0])), "closed_form")
    if route == "primary":
        v, e = _phi_primary(beta, t)
        return KernelValue(v, e, "quadrature_primary")
    if route == "alternate":
        v, e = _phi_alternate(beta, t)
        return KernelValue(v, e, "quadrature_alternate")
    raise ValueError("route must be 'primary' or 'alternate'")


def psi(beta: float, t: float) -> KernelValue:
    """psi_b(t) = integral of phi_b over [0, t], via the rho + tau split.

    psi_b(0) = 0, psi_b >= 0, and psi_b(t) -> 1 as t -> infinity for b < 2.
    Within ``ENDPOINT_BAND`` of b = 1 or 2, the closed form as in ``phi``.
    """
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    if abs(beta - round(beta)) < ENDPOINT_BAND:
        v = float(_closed_forms(round(beta))[1](t)[0])
        return KernelValue(v, abs(v - spectral_rule(beta).psi(t)) if 1 < beta < 2 else 0.0, "closed_form")
    tau_v, tau_e = _tau_primary(beta, t)
    return KernelValue(rho_kernel(beta, t) + tau_v, tau_e, "quadrature_primary")


RULE_ORDER, RULE_LEVELS = 10, (50, 30)  # the spectral rule's shape, see ``PsiEvaluator``

# Rows of t per block of a Laplace sum: 256 rows x 800 nodes is about 1.6 MB;
# rows gathered from several rules go 16 to a block (``psi_jets``), and the
# sign scan reuses one block of 128 rows (``PsiEvaluator.eta_scan``).
# Every exponent is floored at -600, off numpy's slow exp range (-745, -707.7);
# e^-600 |v_i| stays a normal double for every |v_i| > 1e-47.
_BLOCK_ROWS, _GATHER_ROWS, _SCAN_ROWS, _EXP_FLOOR = 256, 16, 128, -600.0
_SCAN_POINTS = 4096  # of the sign-scan grid: 32 blocks of ``_SCAN_ROWS``


def eta_scan_grid(beta: float) -> np.ndarray:
    """The one grid of every eta sign scan: t_k = k h, k < 4096, on
    [0, scan_range(b, 6) = 6 pi / sin(pi/b)], so h = t_max / 4095 (at least
    4.6e-3, at b = 2).  ``eta_scan`` and ``classify.eta_negative_witness``
    both read it."""
    return np.arange(_SCAN_POINTS) * (scan_range(beta, 6.0) / (_SCAN_POINTS - 1))


def _laplace_sums(ts: np.ndarray, d: np.ndarray, v: np.ndarray, which=None) -> np.ndarray:
    """Row k: sum_i v[k, j, i] exp(-t d[j, i]) for each t = ts[r] of the 1-D
    ``ts``, on rule j = which[r] of the G rules whose decays are the rows of
    ``d``, shape (G, n), or on rule 0 when ``which`` is None; ``v`` is (K, G, n).

    Each row is reduced on its own (einsum, not BLAS gemv), so a value does
    not depend on which t, rules or vectors share its block.  The decays fall
    with i; a block skips the leading nodes where exp(-t d) underflows to 0
    for all its t, in multiples of 64, so the rest keep their einsum lanes.
    Exponents below ``_EXP_FLOOR`` are raised to it (exp's fast path), which
    moves a sum by at most sum |v_i| e^-600, about 1e-250: a skip that differs
    between blocks drops only such terms, which vanish in each sum's rounding.
    Rows of several rules are gathered ``_GATHER_ROWS`` at a time.
    """
    out = np.empty((len(v), ts.size))
    step = _BLOCK_ROWS if which is None else _GATHER_ROWS
    for start in range(0, ts.size, step):
        rows = ts[start : start + step]
        pick = slice(0, 1) if which is None else which[start : start + step]
        ds = d[pick]
        # exp(-x) is exactly 0 in double precision for x > 745.14
        skip = int(np.count_nonzero(ds.min(axis=0) * rows.min() > 746.0)) // 64 * 64
        block = np.multiply(-rows[:, None], ds[:, skip:])
        np.exp(np.maximum(block, _EXP_FLOOR, out=block), out=block)
        for row, vk in zip(out, v):
            row[start : start + step] = np.einsum("ij,ij->i", block, vk[pick, skip:])
    return out


def psi_jets(rules: Sequence["PsiEvaluator"], order: int) -> Callable:
    """Psi jets on several rules at once: a function (ts, which=None) whose
    row k = 0, ..., order holds psi_b and its derivatives phi_b, phi_b', ...
    at each t = ts[r] of the 1-D ``ts`` on the rule rules[which[r]], or on the
    only rule when ``which`` is None, all from one exp block per block of t.
    Row k is _osc(b, t, k pi/b) + (-1)^k sum_i w_i d_i^k e^(-t d_i) / (b pi),
    plus 1 for k = 0, with phi_b(0) = 0 exactly; a value does not depend on
    the other t.  The derivative weights are built here, once per call.
    """
    betas = np.array([rule.beta for rule in rules])
    turn = np.array([(math.cos(PI / rule.beta), math.sin(PI / rule.beta)) for rule in rules]).T
    d = np.array([rule._decay for rule in rules])
    v = np.empty((order + 1,) + d.shape)
    v[0] = [rule._weights for rule in rules]
    for j in range(order):
        np.multiply(v[j], -d, out=v[j + 1])  # (-1)^k w_i d_i^k
    k = np.arange(order + 1)[:, None]

    def jet(ts, which=None) -> np.ndarray:
        which = None if len(rules) == 1 else which  # one rule: nothing to gather
        ts, pick = _grid(ts), 0 if which is None else which
        b = betas[pick]
        out = _osc(b, ts, k * (PI / b), turn[:, pick])
        out[0] += 1.0
        out += _laplace_sums(ts, d, v, which) / (b * PI)
        out[1:2] = np.where(ts == 0.0, 0.0, out[1:2])
        return out

    return jet


class PsiEvaluator:
    """Spectral Gauss-Legendre rule for psi_b, phi_b and eta_{a,b} on vectors
    of t.

    Precomputes composite Gauss-Legendre nodes of the arctangent-substituted
    tau integral: 80 panels of 10 nodes, halved 50 times toward w = 0 (the
    large decays that small t needs) and 30 times toward the small-y kink at
    w = (2-b) pi.  Every value is a Laplace sum over those nodes, taken in
    blocks of t so that a dense grid never holds the whole t-by-node matrix.
    Agreement with the adaptive routes is covered by the test suite.
    """

    def __init__(self, beta: float):
        if not 1.0 < beta < 2.0:
            raise DomainError("PsiEvaluator requires beta in (1, 2)")
        self.beta = beta
        sigma, c = _consts(beta)
        w, self._weights = _panel_rule(0.0, (2.0 - beta) * PI, RULE_LEVELS, RULE_ORDER)
        y = np.maximum(sigma / np.tan(w) - c, 0.0)
        self._decay = y ** (1.0 / beta)

    def psi_values(self, ts) -> np.ndarray:
        """psi_b = rho_b + tau_b, with tau_b the Laplace sum of the weights."""
        return self.psi_jet(ts, 0)[0]

    def phi_values(self, ts) -> np.ndarray:
        """phi_b = rho_b' + tau_b', with the exact limit phi_b(0) = 0."""
        return self.psi_jet(ts, 1)[1]

    def psi_jet(self, ts, order: int) -> np.ndarray:
        """Rows k = 0, ..., order: psi_b and its derivatives phi_b, phi_b', ...
        from one exp block: the one-rule case of ``psi_jets``."""
        return psi_jets([self], order)(ts)

    def _eta_weights(self, alpha: float) -> np.ndarray:
        """The v_i of ``eta_grid``'s branch-cut sum; DomainError unless
        0 < a <= 1 (a NaN passes and gives NaN weights)."""
        if alpha <= 0.0 or alpha > 1.0:
            raise DomainError(f"eta on the rule requires 0 < alpha <= 1, got {alpha}")
        b, d = self.beta, self._decay
        return self._weights * d ** (1.0 - alpha) * (
            math.sin(PI * (b - alpha)) - d ** b * math.sin(PI * alpha)
        ) / (PI * _consts(b)[0] * b)

    def eta_values(self, alpha: float, ts) -> np.ndarray:
        """eta_{a,b} by the branch-cut sum of ``eta_grid``: DomainError unless
        0 < a <= 1 and each t is 0 or >= ``ETA_GRID_T_FLOOR``; NaN a gives NaN."""
        v = self._eta_weights(alpha)
        ts = np.asarray(ts, dtype=float)
        if np.any((ts != 0.0) & ~(ts >= ETA_GRID_T_FLOOR)):  # also a negative or NaN t
            raise DomainError(f"eta on the rule requires t = 0 or t >= {ETA_GRID_T_FLOOR}")
        pos = ts > 0.0
        tp, b = ts[pos], self.beta
        out = np.zeros(ts.shape)
        sums = _laplace_sums(tp, self._decay[None], v[None, None])[0]
        out[pos] = kappa(alpha, tp) + _osc(b, tp, (1.0 - alpha) * (PI / b)) + sums
        return out

    def eta_scan(self, alpha: float) -> np.ndarray:
        """eta_{a,b} (0 < a <= 1) or phi_b (a = 0) on ``eta_scan_grid(b)``,
        with the value 0 at t = 0.

        On that grid exp(-(k R + j) h d_i) = exp(-k R h d_i) exp(-j h d_i): the
        scan is one product of B[j, i] = exp(-j h d_i), R = ``_SCAN_ROWS`` rows,
        and E[i, k] = v_i exp(-k R h d_i), 0 below ``_EXP_FLOOR``, k < 32, where
        B is floored; each moves a value by at most sum |v_i| e^-600.
        Everything but the weights v comes from ``_scan_basis``, held for the
        next scan of the same beta (a ``c_bounds`` bisection).  Values differ
        from ``eta_values`` and ``phi_values`` only by rounding (about 1e-14),
        as between BLAS thread counts.  DomainError for a outside [0, 1]; a
        NaN a gives NaN.
        """
        if alpha < 0.0 or alpha > 1.0:
            raise DomainError(f"the scan requires 0 <= alpha <= 1, got {alpha}")
        b = self.beta
        if alpha == 0.0:
            v, shift = self._weights * self._decay / (-b * PI), PI / b
        else:
            v, shift = self._eta_weights(alpha), (1.0 - alpha) * (PI / b)
        with _BETA_LOCK:  # another beta's scan rewrites the basis in place
            ts, keep, block, cols, grow, turn = self._scan_basis()
            # ``_osc(b, ts, shift)`` from the held exp(t cos A) and t sin A
            out = -(2.0 / b) * grow * np.cos(turn + shift)
            out += (block @ (cols * v[keep, None])).T.ravel()
            if alpha != 0.0:
                out[1:] += kappa(alpha, ts[1:])
        out[0] = 0.0
        return out

    def _scan_basis(self) -> tuple:
        """``eta_scan``'s alpha-free arrays for this beta, held from call to
        call, read-only: t, the kept nodes, B, exp(-k R h d_i), exp(t cos A)
        and t sin A.  Call under ``_BETA_LOCK``: they are views of one buffer,
        rewritten for a new beta, as a freed basis would page-fault afresh."""
        if _SCAN_SLOT[0] != self.beta:
            _SCAN_SLOT[:] = [None, None]  # invalid while the buffer is rewritten
            n, rows = _SCAN_POINTS, _SCAN_ROWS
            buffer = _scan_buffer(self._decay.size)
            ts, grow, turn = buffer[: 3 * n].reshape(3, n)
            ts[:] = eta_scan_grid(self.beta)
            h = float(ts[1])
            # exp(-x) is exactly 0 in double precision for x > 745.14, so a
            # node with h d > 746 adds nothing at any t > 0
            keep = h * self._decay <= 746.0
            d = self._decay[keep]
            rest = buffer[3 * n : 3 * n + (rows + n // rows) * d.size]
            block, cols = rest[: rows * d.size].reshape(rows, -1), rest[rows * d.size :].reshape(d.size, -1)
            np.multiply.outer(-h * np.arange(rows), d, out=block)
            np.exp(np.maximum(block, _EXP_FLOOR, out=block), out=block)
            # column k is exp(-k R h d_i), exactly 0 below the floor
            np.multiply.outer(d, -(h * np.arange(0, n, rows)), out=cols)
            np.exp(cols, out=cols, where=cols >= _EXP_FLOOR)
            cols[cols < _EXP_FLOOR] = 0.0  # the entries exp left as they were
            np.exp(np.multiply(ts, math.cos(PI / self.beta), out=grow), out=grow)
            np.multiply(ts, math.sin(PI / self.beta), out=turn)
            for arr in (ts, keep, block, cols, grow, turn):
                arr.flags.writeable = False
            _SCAN_SLOT[:] = [self.beta, (ts, keep, block, cols, grow, turn)]
        return _SCAN_SLOT[1]

    def psi(self, t):
        """psi_b at one t (returns a float) or on an array of t (an array)."""
        vals = self.psi_values(t)
        return vals if np.ndim(t) else float(vals[0])


# -- per-beta cache of spectral rules ----------------------------------------

# Distinct betas kept, least recently used dropped first (a rule is 16 kB);
# ``classify.psi_max`` takes a beta grid in groups of this many.
BETA_CACHE_SIZE = 32
_RULES = functools.lru_cache(maxsize=BETA_CACHE_SIZE)(PsiEvaluator)
_BETA_LOCK = threading.Lock()
# The last eta scan's [beta, alpha-free arrays] (``PsiEvaluator._scan_basis``).
_SCAN_SLOT: list = [None, None]


@functools.lru_cache(maxsize=None)
def _scan_buffer(nodes: int) -> np.ndarray:
    """The one buffer that ``_scan_basis`` rewrites, with room for every node of
    a rule (1.1 MB for 800), allocated by the first scan of the process."""
    return np.empty(3 * _SCAN_POINTS + (_SCAN_ROWS + _SCAN_POINTS // _SCAN_ROWS) * nodes)


def spectral_rule(beta: float) -> PsiEvaluator:
    """The cached PsiEvaluator for beta in (1, 2).  The lock makes the lookup
    and a build one step, so two threads never build two rules for one beta."""
    with _BETA_LOCK:
        return _RULES(beta)


def phi_callable(beta: float) -> Callable:
    """Vectorized t -> phi_b(t) for t >= 0.

    exp(-t) and sin t at b = 1 and b = 2; on 1 < b < 2 the spectral rule's
    ``phi_values`` (the phi of ``psi_max``).  Each returns a 1-D array.
    """
    forms = _closed_forms(beta)
    return forms[0] if forms else spectral_rule(beta).phi_values


def eta(alpha: float, beta: float, t: float) -> KernelValue:
    """Fractional integral (1/Gamma(a)) int_0^t (t-s)^(a-1) phi_b(s) ds.

    The sign of eta decides complete monotonicity of 1/(x^a (1+x^b)); at
    a = 1 it reduces to psi_b(t).  QUADPACK's algebraic-weight rule (QAWS)
    takes the (t-s)^(a-1) endpoint as its weight, on phi_b(s) - phi_b(t), and
    adds phi_b(t) t^a / Gamma(1 + a): exact as a -> 0, where the weight tends
    to a point mass at s = t.  This adaptive route checks ``eta_grid``.
    """
    if not alpha - 1.0 > -1.0:
        raise DomainError(f"eta requires alpha > 2^-54, where alpha - 1 > -1, got {alpha}")
    if not t > 0.0:
        raise DomainError("eta requires t > 0")
    phi_vec = phi_callable(beta)
    phi_t = float(phi_vec(t)[0])
    g = lambda s: float(phi_vec(s)[0]) - phi_t  # noqa: E731
    v, e = integrate(g, 0.0, t, alg_weight=(0.0, alpha - 1.0))
    scale, head = 1.0 / math.gamma(alpha), phi_t * t ** alpha / math.gamma(1.0 + alpha)
    return KernelValue(head + v * scale, e * scale, "quadrature_primary")


def eta_grid(alpha: float, beta: float, ts) -> np.ndarray:
    """Vectorized eta_{a,b} over a grid of t >= 0 (for threshold scans).

    For 1 < b < 2, the branch-cut inversion of 1/(x^a (1+x^b)) - x^(-a) on
    the spectral rule's nodes d_i, weights w_i (A = pi/b, sigma = -sin(b pi)):

        eta(t) = t^(a-1)/Gamma(a) - (2/b) e^{t cos A} cos(t sin A + (1-a) A)
                 + sum_i v_i e^{-t d_i},   eta(0) = 0,
        v_i = w_i d_i^(1-a) [sin(pi (b-a)) - d_i^b sin(pi a)] / (pi sigma b).

    It holds for 0 < a < b + 1, but for a > 1 the rule does not resolve the
    endpoint singularity of d^(1-a) (4e-6 off at b = 1.5, a = 2), so a <= 1
    is required.  As t -> 0 the t^(a-1) term and the sum cancel beyond what
    the rule resolves (-27061 for eta = 6e-9 at b = 1.98, t = 1e-8), so a
    positive t below ``ETA_GRID_T_FLOOR`` = 1e-6 raises DomainError; from it
    up the error is at most about 1e-10.  At b = 1 and 2, with no rule,
    eta(t) = (t^a / Gamma(1 + a)) int_0^1 phi(t (1 - xi^(1/a))) d(xi) with
    the closed-form phi, on a fixed composite rule, for any a > 0.
    """
    if alpha <= 0.0:
        raise DomainError("eta requires alpha > 0")
    ts = np.asarray(ts, dtype=float)
    if not (ts >= 0.0).all():
        raise DomainError("t must be >= 0")
    forms = _closed_forms(beta)
    if forms is None:
        return spectral_rule(beta).eta_values(alpha, ts)
    xi, wq = _panel_rule(0.0, 1.0, 24, 8)
    s_nodes = np.outer(ts, 1.0 - xi ** (1.0 / alpha))
    return ts ** alpha / math.gamma(1.0 + alpha) * (forms[0](s_nodes) @ wq)


def laplace_check(kernel: str, beta: float, x: float, alpha: Optional[float] = None) -> float:
    """|numeric Laplace transform - closed-form target| as a validation probe.

    Targets: phi -> 1/(1+x^b); psi -> 1/(x(1+x^b));
    eta (needs alpha) -> 1/(x^a (1+x^b)).
    """
    if x <= 0.0:
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
