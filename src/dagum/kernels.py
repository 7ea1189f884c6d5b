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
of 1/(1+x^b), written once as ``_osc``, plus a branch-cut integral.  Near
b = 1 and b = 2 the closed forms of ``_closed_forms`` take over; it also
checks that beta lies in [1, 2].

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
hands its (t-s)^(a-1) endpoint to the algebraic-weight rule.

Grid work goes through ``PsiEvaluator`` instead: one fixed composite
Gauss-Legendre rule on the arctangent-substituted tau integral, whose
Laplace sums give psi, phi = rho' + tau' and eta on whole grids (the
psi_max scan, the eta sign scans).  eta is the same branch-cut inversion
as tau, with alpha-dependent weights on the same nodes.  The adaptive
routes above stay as its independent check.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .numerics import QuadConfig, integrate

PI = math.pi

# Closed forms take over this close to b = 1 and b = 2 (``_closed_forms``).
ENDPOINT_BAND = 2.5e-4

ETA_GRID_T_FLOOR = 1e-6  # smallest positive t of eta on the rule; scans start above 7e-5


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


def _denom(s: float, beta: float, c: float) -> float:
    sb = s ** beta
    return 1.0 + 2.0 * c * sb + sb * sb


def _ladder(lo: float, hi: float, levels: int = 45) -> list:
    """Knots geometrically refined toward both interval ends."""
    span = hi - lo
    out = [lo + span * 2.0 ** (-k) for k in range(1, levels + 1)]
    out += [lo + span * (1.0 - 2.0 ** (-k)) for k in range(1, levels + 1)]
    return out


@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)  # loads numpy.polynomial on first use


def _panel_rule(lo: float, hi: float, levels: int, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre (nodes, weights) on the panels of ``_ladder``."""
    breaks = np.array(sorted(set(_ladder(lo, hi, levels) + [lo, hi])))
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


def _osc(beta: float, ts, shift: float):
    """Residue term -(2/b) e^{t cos A} cos(t sin A + shift), A = pi/b, of the
    poles x = e^{+-i pi/b} of 1/(1+x^b); ``ts`` is a float or an array."""
    a = PI / beta
    return -(2.0 / beta) * np.exp(ts * math.cos(a)) * np.cos(ts * math.sin(a) + shift)


def _grid(ts) -> np.ndarray:
    return np.atleast_1d(np.asarray(ts, dtype=float))


def _closed_forms(beta: float) -> Optional[Tuple[Callable, Callable]]:
    """(phi_b, psi_b) as array functions inside ``ENDPOINT_BAND``, else None.

    exp(-t) and 1 - exp(-t) near b = 1, sin t and 1 - cos t near b = 2.  Each
    returns an array of at least one dimension.  Raises DomainError for beta
    outside [1, 2], the domain of every kernel built from phi_b.
    """
    if not 1.0 <= beta <= 2.0:
        raise DomainError(f"the kernels require beta in [1, 2], got {beta}")
    if abs(beta - 1.0) < ENDPOINT_BAND:
        return lambda ts: np.exp(-_grid(ts)), lambda ts: 1.0 - np.exp(-_grid(ts))
    if abs(beta - 2.0) < ENDPOINT_BAND:
        return lambda ts: np.sin(_grid(ts)), lambda ts: 1.0 - np.cos(_grid(ts))
    return None


def kappa(alpha: float, t: float) -> float:
    """t^(alpha-1) / Gamma(alpha)."""
    if alpha <= 0.0 or t <= 0.0:
        raise DomainError("kappa requires alpha > 0 and t > 0")
    return t ** (alpha - 1.0) / math.gamma(alpha)


def rho_kernel(beta: float, t: float) -> float:
    """1 - (2/b) exp(t cos(pi/b)) cos(t sin(pi/b)); closed form on [1, 2]."""
    if not 1.0 <= beta <= 2.0:
        raise DomainError("rho kernel requires beta in [1, 2]")
    if t < 0.0:
        raise DomainError("t must be >= 0")
    return float(1.0 + _osc(beta, t, 0.0))


def _tau_primary(beta: float, t: float, cfg: QuadConfig) -> Tuple[float, float]:
    """Direct s-domain integral: (sigma/pi) * int e^{-ts} s^(b-1) / D(s) ds."""
    sigma, c = _consts(beta)

    def g(s: float) -> float:
        return math.exp(-t * s) * s ** (beta - 1.0) / _denom(s, beta, c)

    knots = _resonance_knots(beta, sigma, c, math.inf)
    v, e = integrate(g, 0.0, math.inf, cfg, knots=knots)
    return sigma / PI * v, sigma / PI * e


def _tau_alternate(beta: float, t: float, cfg: QuadConfig) -> Tuple[float, float]:
    """Arctangent-substituted route on the finite interval (0, (2-b)*pi]."""
    sigma, c = _consts(beta)
    w_hi = (2.0 - beta) * PI
    inv_beta = 1.0 / beta

    def g(w: float) -> float:
        y = sigma / math.tan(w) - c
        y = y if y > 0.0 else 0.0  # rounding noise at the y = 0 endpoint
        return math.exp(-t * y ** inv_beta)

    v, e = integrate(g, 0.0, w_hi, cfg, knots=_ladder(0.0, w_hi))
    return v / (beta * PI), e / (beta * PI)


def tau_kernel(
    beta: float, t: float, route: str = "primary", cfg: Optional[QuadConfig] = None
) -> KernelValue:
    """Completely monotonic remainder tau_b(t) = psi_b(t) - rho_b(t).

    ``route`` selects between the two integral representations; they agree
    within combined error estimates.  tau_b(0) = 2/b - 1.
    """
    if not 1.0 < beta < 2.0:
        raise DomainError("tau kernel requires beta in (1, 2)")
    if t < 0.0:
        raise DomainError("t must be >= 0")
    if route == "primary":
        v, e = _tau_primary(beta, t, cfg)
        return KernelValue(v, e, "quadrature_primary")
    if route == "alternate":
        v, e = _tau_alternate(beta, t, cfg)
        return KernelValue(v, e, "quadrature_alternate")
    raise ValueError("route must be 'primary' or 'alternate'")


def _J_integral(beta: float, t: float, cfg: QuadConfig) -> Tuple[float, float]:
    """int_0^inf e^{-ts} s^b / D(s) ds, split at s^b = 4.

    The head is integrated directly; the algebraic tail is compactified
    (y = s^b, then cot) and its w^(-1/b) endpoint removed by a power-law
    substitution in log space.
    """
    sigma, c = _consts(beta)
    s_split = 4.0 ** (1.0 / beta)

    def g(s: float) -> float:
        return math.exp(-t * s) * s ** beta / _denom(s, beta, c)

    knots = [s_split * 2.0 ** (-k) for k in range(1, 31)]
    knots += _resonance_knots(beta, sigma, c, s_split)
    v1, e1 = integrate(g, 0.0, s_split, cfg, knots=knots)

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
    v2, e2 = integrate(h, 0.0, v_hi, cfg, knots=[v_hi * 2.0 ** (-k) for k in range(1, 31)])
    return v1 + v2 / (beta * sigma), e1 + e2 / (beta * sigma)


def _phi_primary(beta: float, t: float, cfg: QuadConfig) -> Tuple[float, float]:
    sigma, _ = _consts(beta)
    v, e = _J_integral(beta, t, cfg)
    return -(sigma / PI) * v + float(_osc(beta, t, PI / beta)), (sigma / PI) * e


def _phi_alternate(beta: float, t: float, cfg: QuadConfig) -> Tuple[float, float]:
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
        v, e = integrate(g, 0.0, math.inf, cfg)
    else:
        # below t = 0.5 the infinite-range transformation fails (t = 1e-8)
        hi = 45.0 / t
        v, e = integrate(g, 0.0, hi, cfg, knots=_ladder(0.0, hi, 40))
    return -(v / (beta * PI)) + float(_osc(beta, t, PI / beta)), e / (beta * PI)


def phi(
    beta: float, t: float, route: str = "primary", cfg: Optional[QuadConfig] = None
) -> KernelValue:
    """Laplace density of 1/(1+x^b) for b in [1, 2].

    Dispatches to the closed forms exp(-t) and sin(t) inside the endpoint
    band; otherwise evaluates the requested integral route.
    """
    forms = _closed_forms(beta)
    if t < 0.0:
        raise DomainError("t must be >= 0")
    if forms is not None:
        return KernelValue(float(forms[0](t)[0]), 0.0, "closed_form")
    if route == "primary":
        v, e = _phi_primary(beta, t, cfg)
        return KernelValue(v, e, "quadrature_primary")
    if route == "alternate":
        v, e = _phi_alternate(beta, t, cfg)
        return KernelValue(v, e, "quadrature_alternate")
    raise ValueError("route must be 'primary' or 'alternate'")


def psi(beta: float, t: float, cfg: Optional[QuadConfig] = None) -> KernelValue:
    """psi_b(t) = integral of phi_b over [0, t], via the rho + tau split.

    psi_b(0) = 0, psi_b >= 0, and psi_b(t) -> 1 as t -> infinity for b < 2.
    """
    forms = _closed_forms(beta)
    if t < 0.0:
        raise DomainError("t must be >= 0")
    if forms is not None:
        return KernelValue(float(forms[1](t)[0]), 0.0, "closed_form")
    tau_v, tau_e = _tau_primary(beta, t, cfg)
    return KernelValue(rho_kernel(beta, t) + tau_v, tau_e, "quadrature_primary")


# Rows of t per block of a Laplace sum: 256 rows x 1000 nodes is about 2 MB.
_BLOCK_ROWS = 256


class PsiEvaluator:
    """Spectral Gauss-Legendre rule for psi_b, phi_b and eta_{a,b} on vectors
    of t.

    Precomputes composite Gauss-Legendre nodes of the arctangent-substituted
    tau integral (panels refined geometrically toward both ends, where the
    small-y kink and the large-t mass live).  Every value is a Laplace sum
    over those nodes, taken in blocks of t so that a dense grid never holds
    the whole t-by-node matrix.  Agreement with the adaptive routes is
    covered by the test suite.
    """

    def __init__(self, beta: float, levels: int = 50, order: int = 10):
        if not 1.0 < beta < 2.0:
            raise DomainError("PsiEvaluator requires beta in (1, 2)")
        self.beta = beta
        sigma, c = _consts(beta)
        w, self._weights = _panel_rule(0.0, (2.0 - beta) * PI, levels, order)
        y = np.maximum(sigma / np.tan(w) - c, 0.0)
        self._decay = y ** (1.0 / beta)

    def _laplace_sum(self, ts: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_i v_i exp(-t d_i) for each t in the 1-D array ``ts``.

        Each row is reduced on its own (einsum, not BLAS gemv), so a value
        does not depend on how many t share its block.  The decays fall with
        i; a block skips the leading nodes where exp(-t d) underflows to 0
        (and is slowest) for all its t, in multiples of 64, so the remaining
        terms keep their einsum lanes and every sum stays bit-identical.
        """
        d = self._decay
        out = np.empty(ts.size)
        for start in range(0, ts.size, _BLOCK_ROWS):
            rows = ts[start : start + _BLOCK_ROWS]
            # exp(-x) is exactly 0 in double precision for x > 745.14
            skip = int(np.count_nonzero(d * rows.min() > 746.0)) // 64 * 64
            block = np.multiply.outer(-rows, d[skip:])
            np.exp(block, out=block)
            out[start : start + _BLOCK_ROWS] = np.einsum("ij,j->i", block, v[skip:])
        return out

    def psi_values(self, ts) -> np.ndarray:
        """psi_b = rho_b + tau_b, with tau_b the Laplace sum of the weights."""
        ts = _grid(ts)
        tau = self._laplace_sum(ts, self._weights) / (self.beta * PI)
        return 1.0 + _osc(self.beta, ts, 0.0) + tau

    def phi_values(self, ts) -> np.ndarray:
        """phi_b = rho_b' + tau_b', with the exact limit phi_b(0) = 0."""
        ts = _grid(ts)
        tau_prime = self._laplace_sum(ts, self._weights * self._decay) / (self.beta * PI)
        vals = _osc(self.beta, ts, PI / self.beta) - tau_prime
        vals[ts == 0.0] = 0.0
        return vals

    def eta_values(self, alpha: float, ts) -> np.ndarray:
        """eta_{a,b} by the branch-cut sum of ``eta_grid``: DomainError unless
        0 < a <= 1 and each t is 0 or >= ``ETA_GRID_T_FLOOR``; NaN a gives NaN."""
        if alpha <= 0.0 or alpha > 1.0:
            raise DomainError(f"eta on the rule requires 0 < alpha <= 1, got {alpha}")
        ts = np.asarray(ts, dtype=float)
        pos = ts > 0.0
        tp = ts[pos]
        if np.any(tp < ETA_GRID_T_FLOOR):
            raise DomainError(f"eta on the rule requires t = 0 or t >= {ETA_GRID_T_FLOOR}")
        b, d = self.beta, self._decay
        v = self._weights * d ** (1.0 - alpha) * (
            math.sin(PI * (b - alpha)) - d ** b * math.sin(PI * alpha)
        ) / (PI * _consts(b)[0] * b)
        out = np.zeros(ts.shape)
        out[pos] = (
            tp ** (alpha - 1.0) / math.gamma(alpha)
            + _osc(b, tp, (1.0 - alpha) * (PI / b))
            + self._laplace_sum(tp, v)
        )
        return out

    def psi(self, t):
        """psi_b at one t (returns a float) or on an array of t (an array)."""
        vals = self.psi_values(t)
        return vals if np.ndim(t) else float(vals[0])


# -- per-beta cache of spectral rules ----------------------------------------

# Distinct betas kept, least recently used dropped first (a rule is 16 kB).
BETA_CACHE_SIZE = 32
_BETA_CACHE: "OrderedDict[float, PsiEvaluator]" = OrderedDict()
_BETA_LOCK = threading.Lock()


def spectral_rule(beta: float) -> PsiEvaluator:
    """The cached PsiEvaluator for beta in (1, 2)."""
    with _BETA_LOCK:
        rule = _BETA_CACHE.get(beta)
        if rule is None:
            rule = _BETA_CACHE[beta] = PsiEvaluator(beta)
            if len(_BETA_CACHE) > BETA_CACHE_SIZE:
                _BETA_CACHE.popitem(last=False)
        else:
            _BETA_CACHE.move_to_end(beta)
        return rule


def phi_callable(beta: float) -> Callable:
    """Vectorized t -> phi_b(t) for t >= 0.

    Closed forms at the endpoint band; elsewhere the spectral rule's
    ``phi_values``, which returns a 1-D array.
    """
    forms = _closed_forms(beta)
    return forms[0] if forms else spectral_rule(beta).phi_values


def eta(
    alpha: float, beta: float, t: float, cfg: Optional[QuadConfig] = None
) -> KernelValue:
    """Fractional integral (1/Gamma(a)) int_0^t (t-s)^(a-1) phi_b(s) ds.

    The sign of eta decides complete monotonicity of 1/(x^a (1+x^b)); at
    a = 1 it reduces to psi_b(t).  QUADPACK's algebraic-weight rule (QAWS)
    takes the (t-s)^(a-1) endpoint as its weight.  This adaptive route is
    the independent check of ``eta_grid``.
    """
    if alpha <= 0.0:
        raise DomainError("eta requires alpha > 0")
    if t <= 0.0:
        raise DomainError("eta requires t > 0")
    phi_vec = phi_callable(beta)
    v, e = integrate(lambda s: float(phi_vec(s)[0]), 0.0, t, cfg, alg_weight=(0.0, alpha - 1.0))
    scale = 1.0 / math.gamma(alpha)
    return KernelValue(v * scale, e * scale, "quadrature_primary")


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
    up the error is at most about 1e-10.  In the endpoint bands, Gamma(a)
    eta(t) = (t^a / a) int_0^1 phi(t (1 - xi^(1/a))) d(xi) with the
    closed-form phi, on a fixed composite rule.
    """
    if alpha <= 0.0:
        raise DomainError("eta requires alpha > 0")
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise DomainError("t must be >= 0")
    forms = _closed_forms(beta)
    if forms is None:
        return spectral_rule(beta).eta_values(alpha, ts)
    xi, wq = _panel_rule(0.0, 1.0, 24, 8)
    s_nodes = np.outer(ts, 1.0 - xi ** (1.0 / alpha))
    return ts ** alpha / (alpha * math.gamma(alpha)) * (forms[0](s_nodes) @ wq)


def laplace_check(
    kernel: str,
    beta: float,
    x: float,
    alpha: Optional[float] = None,
    cfg: Optional[QuadConfig] = None,
) -> float:
    """|numeric Laplace transform - closed-form target| as a validation probe.

    Targets: phi -> 1/(1+x^b); psi -> 1/(x(1+x^b));
    eta (needs alpha) -> 1/(x^a (1+x^b)).
    """
    if x <= 0.0:
        raise DomainError("laplace check requires x > 0")
    forms = _closed_forms(beta)
    cfg = cfg or QuadConfig(abs_tol=1e-8, rel_tol=1e-8)

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
        f = lambda t: math.exp(-x * t) * eta(alpha, beta, t, cfg).value if t > 0 else 0.0  # noqa: E731
        target = 1.0 / (x ** alpha * (1.0 + x ** beta))
    else:
        raise ValueError("kernel must be one of 'phi', 'psi', 'eta'")

    value, _ = integrate(f, 0.0, math.inf, cfg)
    return abs(value - target)
