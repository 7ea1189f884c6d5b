"""Laplace-inversion kernels for the auxiliary family 1/(x^a (1+x^b)).

The central object is phi_b, the density whose Laplace transform is
1/(1+x^b) for 1 < b < 2.  Everything else is built from it:

    psi_b(t)   = integral of phi_b over [0, t]   (transform 1/(x(1+x^b)))
    rho_b      = the oscillatory closed-form part of psi_b
    tau_b      = psi_b - rho_b, completely monotonic, two routes
    eta_{a,b}  = fractional integral of phi_b; its sign decides complete
                 monotonicity of 1/(x^a (1+x^b))
    kappa_a(t) = t^(a-1)/Gamma(a), the power-law Laplace density

Each of phi, psi and eta is the residue term of the poles x = e^{+-i pi/b}
of 1/(1+x^b), written once as ``_osc``, plus a branch-cut integral.
``_closed_forms`` (which checks beta in [1, 2]) serves b = 1 and 2 exactly;
the spectral rule and the primary routes below serve all of 1 < b < 2.

Evaluation notes.  The primary route of tau, phi and psi runs on QUADPACK
(``numerics``): the arctangent-substituted branch-cut integral, (1/(b pi))
int_0^{(2-b) pi} r^k e^{-t r} dw with r = (sigma cot w - c)^(1/b): tau at
k = 0, -tau' at k = 1, so phi = rho' + tau' and psi = rho + tau.  It is
finite, with break points refined geometrically toward both ends, where the
features narrow as b nears 1 or 2.  The alternate routes of tau and phi, and
``eta``, invert the closed-form transforms instead (``_contour``):
1/(1+s^b) for phi, s^(b-1)/(1+s^b) for 1 - psi and s^-a/(1+s^b) for eta, by
the trapezoid rule on a parabola around the branch cut, 30 to 109 complex
exponentials a value, with no quadrature and no spectral rule.

Grid work goes through the spectral rule instead: one composite Gauss-Legendre
rule of 800 nodes on the arctangent-substituted tau integral (``rule_rows``,
for a group of betas at once), whose Laplace sums give psi, phi = rho' + tau',
phi' (``psi_jets``) and eta, with alpha-dependent weights on the same nodes,
on whole grids.  Its panels (``_panel_rule``) are the module's one composite
rule: at b = 1 and 2 ``eta_grid`` integrates the closed-form phi on them,
stretched over [0, 1].  The eta sign scans run on one grid t = k h
(``eta_scan_grid``), where exp(-k h d) factors into a per-block and a per-row
part: ``eta_scan`` is one matrix product per block, not one exp per (t, node).
Every Laplace-sum exponent is floored at -600, off numpy's slow exp range
(-745, -707.7).  The routes above check it: the primary ones on its
integral by adaptive quadrature, the contour by an independent method.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .numerics import integrate

PI = math.pi

ETA_GRID_T_FLOOR = 1e-6  # smallest positive t of eta on the rule; scans start above 4.6e-3


@dataclass(frozen=True)
class KernelValue:
    value: float
    err_estimate: float
    route: str  # closed_form | quadrature_primary | contour

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
    """Search horizon t-scale: the oscillation of psi_b is set by sin(pi/b).
    DomainError unless 1 < b <= 2 (at b = 1, sin(pi) rounds to 1.2e-16)."""
    if not 1.0 < beta <= 2.0:  # also a NaN
        raise DomainError(f"scan_range requires beta in (1, 2], got {beta}")
    return periods * PI / math.sin(PI / beta)


def _ladder(lo: float, hi: float, levels=45) -> list:
    """Knots halving toward lo and hi ``levels`` times each, or a (lo, hi) pair of times."""
    down, up = levels if isinstance(levels, tuple) else (levels, levels)
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


def _panel_rule(lo: float, hi) -> Tuple[np.ndarray, np.ndarray]:
    """The spectral rule's (nodes, weights): ``_GAUSS_LEGENDRE`` on each of the
    80 panels of ``_UNIT_BREAKS`` stretched over [lo, hi]; for a column of
    ``hi``, one row of each per hi, as if for that hi alone."""
    breaks = lo + (hi - lo) * _UNIT_BREAKS
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
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    _grid(t)  # DomainError for t < 0 or NaN
    return float(1.0 + _osc(beta, t, 0.0))


def _arctan_route(beta: float, t: float, k: int) -> Tuple[float, float]:
    """(1/(b pi)) int_0^{(2-b) pi} r^k e^{-t r} dw, r = (sigma cot w - c)^(1/b),
    on the finite arctangent-substituted interval: tau_b at k = 0, -tau_b' at k = 1."""
    sigma, c = _consts(beta)
    w_hi = (2.0 - beta) * PI
    inv_beta = 1.0 / beta

    def g(w: float) -> float:
        y = sigma / math.tan(w) - c
        r = (y if y > 0.0 else 0.0) ** inv_beta  # rounding noise at the y = 0 endpoint
        return r ** k * math.exp(-t * r)

    v, e = integrate(g, 0.0, w_hi, knots=_ladder(0.0, w_hi))
    return v / (beta * PI), e / (beta * PI)


def _contour(alpha: float, beta: float, t: float) -> Tuple[float, float]:
    """(value, err_estimate) of eta_{a,b}(t), the inverse Laplace transform of
    s^-a / (1 + s^b), for any real a, 1 <= b <= 2 and a finite t > 0: phi_b at
    a = 0, 1 - psi_b at a = 1 - b.

    The trapezoid rule of step h = 3/32 on the parabola s = sigma z(u), z(u) =
    0.1309 - 0.1194 u^2 + 0.25 i u (Weideman & Trefethen, Math. Comp. 76 (2007)
    1341), which opens left around the branch cut s <= 0; by conjugate
    symmetry over u >= 0 only, cut where e^(sigma t Re z) < e^-37.  It meets
    the poles s^b = -1, at e^{+-i pi/b}, at sigma = sigma_0.  Where sigma =
    min(0.4 sigma_0, 32/t) gives sigma t >= 3, it passes left of them and
    their residues are added, ``_osc`` with shift (1 - a) pi/b; else sigma =
    max(32/t, 6.25 sigma_0) and it encloses them.  So sigma t <= 47, and
    e^(t Re s) < e^(0.1309 sigma t) < 500 bounds the sum's cancellation.  The
    error estimate is |I_h - I_2h|, the gap to the sum on every other node
    (the rule converges geometrically in 1/h), plus 64 eps times the moduli
    of the terms and, on the left, (1 + t) times the residues' amplitude: the
    rounding of the sum and of the residues' phase.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"the contour needs a finite t > 0, got {t}")
    x, y = math.cos(PI / beta), math.sin(PI / beta)
    # sigma_0 z(y / (0.25 sigma_0)) = x + iy: 0.1309 sigma_0^2 - x sigma_0 = q
    q = 0.1194 / 0.25 ** 2 * y * y
    sigma0 = 2.0 * q / (math.sqrt(x * x + 4.0 * 0.1309 * q) - x)
    sigma = min(0.4 * sigma0, 32.0 / t)
    left = sigma * t >= 3.0
    if not left:
        sigma = max(32.0 / t, 6.25 * sigma0)
    h = 3.0 / 32.0
    u = h * np.arange(1 + int(math.sqrt((37.0 / (sigma * t) + 0.1309) / 0.1194) / h))
    z = sigma * (0.1309 - 0.1194 * u * u + 0.25j * u)
    # e^{tz} F(z) z'(u) h / (2 pi i), over both halves; the u = 0 term is halved
    scale = sigma * h / PI * (0.25 + 0.2388j * u)
    terms = np.exp(t * z) * z ** -alpha / (1.0 + z ** beta) * scale
    terms[0] *= 0.5
    fine = float(terms.real.sum())
    err = abs(fine - 2.0 * float(terms.real[::2].sum()))
    rounding = float(np.abs(terms).sum())
    if left:
        fine += float(_osc(beta, t, (1.0 - alpha) * (PI / beta)))
        rounding += (1.0 + t) * (2.0 / beta) * math.exp(t * x)
    return fine, err + 64.0 * sys.float_info.epsilon * rounding


def _check_route(t: float, route: str) -> None:
    if not t >= 0.0:
        raise DomainError("t must be >= 0")
    if route not in ("primary", "alternate"):
        raise ValueError("route must be 'primary' or 'alternate'")


def tau_kernel(beta: float, t: float, route: str = "primary") -> KernelValue:
    """Completely monotonic remainder tau_b(t) = psi_b(t) - rho_b(t).

    ``route`` selects the arctangent route (primary) or the contour
    (alternate): tau_b = -_osc(b, t, 0) - (1 - psi_b), which ``_contour``
    inverts from s^(b-1) / (1 + s^b).  tau_b(0) = 2/b - 1, exact on the
    contour.
    """
    if not 1.0 < beta < 2.0:
        raise DomainError("tau kernel requires beta in (1, 2)")
    _check_route(t, route)
    if route == "primary":
        return KernelValue(*_arctan_route(beta, t, 0), "quadrature_primary")
    if t == 0.0:
        return KernelValue(2.0 / beta - 1.0, 0.0, "contour")
    v, e = _contour(1.0 - beta, beta, t)
    return KernelValue(-float(_osc(beta, t, 0.0)) - v, e, "contour")


def phi(beta: float, t: float, route: str = "primary") -> KernelValue:
    """Laplace density of 1/(1+x^b) for b in [1, 2].

    exp(-t) or sin t at b = 1 or 2; inside, phi_b(0) = 0 exactly and for
    t > 0 phi_b = rho_b' + tau_b' with tau_b' on the arctangent route
    (primary), or the contour's inversion of 1/(1+s^b) (alternate).
    """
    forms = _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    _check_route(t, route)
    if forms:
        return KernelValue(float(forms[0](t)[0]), 0.0, "closed_form")
    label = "quadrature_primary" if route == "primary" else "contour"
    if t == 0.0:
        return KernelValue(0.0, 0.0, label)
    if route == "alternate":
        return KernelValue(*_contour(0.0, beta, t), label)
    v, e = _arctan_route(beta, t, 1)
    return KernelValue(float(_osc(beta, t, PI / beta)) - v, e, label)


def psi(beta: float, t: float) -> KernelValue:
    """psi_b(t) = integral of phi_b over [0, t]: 1 - exp(-t) or 1 - cos t at
    b = 1 or 2, inside rho_b + tau_b with tau_b on the arctangent route.

    psi_b(0) = 0, psi_b >= 0, and psi_b(t) -> 1 as t -> infinity for b < 2.
    """
    forms = _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    if forms:
        return KernelValue(float(forms[1](t)[0]), 0.0, "closed_form")
    rho = rho_kernel(beta, t)  # DomainError for t < 0 before the quadrature
    tau_v, tau_e = _arctan_route(beta, t, 0)
    return KernelValue(rho + tau_v, tau_e, "quadrature_primary")


# Rows of t per block of a Laplace sum, and of ``eta_grid`` at b = 1 and 2:
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
    4.6e-3, at b = 2).  ``eta_scan`` and ``classify.eta_negative_witness``
    both read it."""
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
    other t.  Rows of several rules are gathered; with ``runs``, ``which`` is
    non-decreasing and each rule's run of t is one rule's block alone.
    """
    turn = np.array([(math.cos(PI / b), math.sin(PI / b)) for b in betas.tolist()]).T
    k = np.arange(order + 1)[:, None]

    def jet(ts, which=None) -> np.ndarray:
        which = None if betas.size == 1 else which  # one rule: nothing to gather or cut
        grid, pick = _grid(ts), 0 if which is None else which
        ts = grid.ravel()
        b = betas[pick]
        out = _osc(b, ts, k * (PI / b), turn[:, pick])
        out[0] += 1.0
        if runs and which is not None:  # each rule's run of t a one-rule block
            parts = np.split(ts, np.searchsorted(which, np.arange(1, betas.size)))
            sums = np.hstack([_laplace_sums(p, decays[j : j + 1], weights[j : j + 1], order)
                              for j, p in enumerate(parts)])
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
    d, weights = _panel_rule(0.0, span)
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
        sums = _laplace_sums(tp, self._decay[None], v[None])[0]
        out[pos] = kappa(alpha, tp) + _osc(b, tp, (1.0 - alpha) * (PI / b)) + sums
        return out

    def eta_scan(self, alpha: float) -> np.ndarray:
        """eta_{a,b} (0 < a <= 1) or phi_b (a = 0) on ``eta_scan_grid(b)``,
        with the value 0 at t = 0.

        On that grid exp(-(k R + j) h d_i) = exp(-k R h d_i) exp(-j h d_i): the
        scan is one product of B[j, i] = exp(-j h d_i), R = ``_SCAN_ROWS`` rows,
        and E[i, k] = v_i exp(-k R h d_i), 0 below ``_EXP_FLOOR``, k < 32, where
        B is floored, plus the residue ``_osc``.  B and E but for v come from
        ``_scan_basis``, held for the next scan of the same beta (a ``c_bounds``
        bisection).  Values differ from ``eta_values`` and ``phi_values`` by
        rounding (about 1e-14).  DomainError for a outside [0, 1]; a NaN a gives NaN.
        """
        if alpha < 0.0 or alpha > 1.0:
            raise DomainError(f"the scan requires 0 <= alpha <= 1, got {alpha}")
        b = self.beta
        if alpha == 0.0:
            v, shift = self._weights * self._decay / (-b * PI), PI / b
        else:
            v, shift = self._eta_weights(alpha), (1.0 - alpha) * (PI / b)
        with _BETA_LOCK:  # another beta's scan rewrites the basis in place
            ts, keep, block, cols = self._scan_basis()
            out = _osc(b, ts, shift)
            out += (block @ (cols * v[keep, None])).T.ravel()
            if alpha != 0.0:
                out[1:] += kappa(alpha, ts[1:])
        out[0] = 0.0
        return out

    def _scan_basis(self) -> tuple:
        """``eta_scan``'s alpha-free arrays for this beta, held from call to
        call, read-only: t, the kept nodes, B and exp(-k R h d_i).  Call under
        ``_BETA_LOCK``: but for the node mask they are views of one buffer,
        rewritten for a new beta, as a freed basis would page-fault afresh."""
        if _SCAN_SLOT[0] != self.beta:
            _SCAN_SLOT[:] = [None, None]  # invalid while the buffer is rewritten
            n, rows = _SCAN_POINTS, _SCAN_ROWS
            buffer = _scan_buffer(self._decay.size)
            ts = buffer[:n]
            ts[:] = eta_scan_grid(self.beta)
            h = float(ts[1])
            keep = h * self._decay <= _EXP_UNDERFLOW  # the rest add nothing at any t > 0
            d = self._decay[keep]
            rest = buffer[n : n + (rows + n // rows) * d.size]
            # explicit shapes: near b = 1 no node may be kept (d.size = 0)
            block = rest[: rows * d.size].reshape(rows, d.size)
            cols = rest[rows * d.size :].reshape(d.size, n // rows)
            np.multiply.outer(-h * np.arange(rows), d, out=block)
            np.exp(np.maximum(block, _EXP_FLOOR, out=block), out=block)
            # column k is exp(-k R h d_i), exactly 0 below the floor
            np.multiply.outer(d, -(h * np.arange(0, n, rows)), out=cols)
            np.exp(cols, out=cols, where=cols >= _EXP_FLOOR)
            cols[cols < _EXP_FLOOR] = 0.0  # the entries exp left as they were
            for arr in (ts, keep, block, cols):
                arr.flags.writeable = False
            _SCAN_SLOT[:] = [self.beta, (ts, keep, block, cols)]
        return _SCAN_SLOT[1]


# -- per-beta cache of spectral rules ----------------------------------------

# Distinct betas kept, least recently used dropped first (a rule is 12.8 kB:
# 800 decays and 800 weights); ``classify.psi_max`` takes a beta grid in
# groups of this many, on rules of its own, not from this cache.
BETA_CACHE_SIZE = 32
_RULES = functools.lru_cache(maxsize=BETA_CACHE_SIZE)(PsiEvaluator)
_BETA_LOCK = threading.Lock()
# The last eta scan's [beta, alpha-free arrays] (``PsiEvaluator._scan_basis``).
_SCAN_SLOT: list = [None, None]


@functools.lru_cache(maxsize=None)
def _scan_buffer(nodes: int) -> np.ndarray:
    """The one buffer that ``_scan_basis`` rewrites, with room for every node of
    a rule (1.1 MB for 800), allocated by the first scan of the process."""
    return np.empty(_SCAN_POINTS + (_SCAN_ROWS + _SCAN_POINTS // _SCAN_ROWS) * nodes)


def spectral_rule(beta: float) -> PsiEvaluator:
    """The cached PsiEvaluator for beta in (1, 2).  The lock makes the lookup
    and a build one step, so two threads never build two rules for one beta."""
    with _BETA_LOCK:
        return _RULES(beta)


def phi_callable(beta: float) -> Callable:
    """Vectorized t -> phi_b(t) for t >= 0.

    exp(-t) and sin t at b = 1 and b = 2; on 1 < b < 2 the spectral rule's
    ``phi_values`` (the phi of ``psi_max``).  Each keeps t's shape, at least 1-D.
    """
    forms = _closed_forms(beta)
    return forms[0] if forms else spectral_rule(beta).phi_values


def eta(alpha: float, beta: float, t: float) -> KernelValue:
    """Fractional integral (1/Gamma(a)) int_0^t (t-s)^(a-1) phi_b(s) ds, for
    every a > 0, b in [1, 2] and finite t > 0.

    The sign of eta decides complete monotonicity of 1/(x^a (1+x^b)); at
    a = 1 it reduces to psi_b(t).  ``_contour`` inverts its Laplace transform
    s^-a / (1+s^b): no quadrature and no spectral rule, so it checks
    ``eta_grid`` and the sign scans independently.
    """
    if not alpha > 0.0:
        raise DomainError(f"eta requires alpha > 0, got {alpha}")
    _closed_forms(beta)  # DomainError unless 1 <= b <= 2
    return KernelValue(*_contour(alpha, beta, t), "contour")


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
    positive t below ``ETA_GRID_T_FLOOR`` = 1e-6 raises DomainError.  Against
    a 60-digit series, for a in [0.05, 1] and t from 1e-6 to 18, the error is
    at most about 1e-10 for b >= 1.0001 and grows toward b = 1, most for a
    near 0.8: about 1e-9 at b = 1 + 1e-5, 1e-8 at 1 + 1e-6 and 2e-7 at
    1 + 1e-7; for t >= 0.005, 6e-5 at 1 + 1e-9 and 0.2 at 1 + 1e-12; below
    t = 0.005 more: at (b, a, t) = (1 + 1e-9, 0.01, 1e-6) it returns 1.305
    where eta is 0.876 (``eta`` is the oracle there).  At
    b = 1 and 2, for any a > 0, eta(t) = (t^a / Gamma(1 + a)) int_0^1
    phi(t (1 - xi^(1/a))) d(xi) with the closed-form phi, on the spectral
    rule's panels over [0, 1] (``_panel_rule(0, 1)``), ``_BLOCK_ROWS`` rows
    of t at a time; within about 1e-11 of the exact value for a in [0.01, 6]
    and t up to 18.  t is read by ``_grid``: the result has its shape, at
    least one dimension, at every b.
    """
    if alpha <= 0.0:
        raise DomainError("eta requires alpha > 0")
    ts = _grid(ts)
    forms = _closed_forms(beta)
    if forms is None:
        return spectral_rule(beta).eta_values(alpha, ts)
    xi, wq = _panel_rule(0.0, 1.0)
    shrink, flat = 1.0 - xi ** (1.0 / alpha), ts.ravel()
    sums = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK_ROWS):
        rows = flat[start : start + _BLOCK_ROWS]
        sums[start : start + _BLOCK_ROWS] = forms[0](np.outer(rows, shrink)) @ wq
    return ts ** alpha / math.gamma(1.0 + alpha) * sums.reshape(ts.shape)


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
