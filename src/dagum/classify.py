"""Decision core: threshold functions, the critical shape parameter, and
three-valued permissibility verdicts for the Dagum and auxiliary families.

Verdicts are Proven* only when a stated theorem applies or (for refutation)
when a sign certificate is in hand; everything else stays Undetermined.
Finite scans cannot prove complete monotonicity, so numeric evidence never
upgrades a verdict to Proven in the positive direction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import models as M
from . import taylor as ta
from .errors import DomainError
from .kernels import (
    BETA_CACHE_SIZE,
    eta_grid,
    eta_scan_grid,
    phi_callable,
    psi_jets,
    rule_rows,
    scan_range,
    spectral_rule,
)
from .numerics import find_root

PI = math.pi

# Citation labels carried verbatim in verdicts so downstream consumers can
# audit the basis of each decision (see README for the label vocabulary).
CITE_AUX_NECESSITY = "necessity: beta <= 2 (holomorphic extension)"
CITE_T3I = "Theorem 3(i)"
CITE_T3II = "Theorem 3(ii)"
CITE_LEMMA1 = "Lemma 1"
CITE_T6I = "Theorem 6(i)"
CITE_T6II = "Theorem 6(ii)"
CITE_EQ42 = "Eq. (4.2)"
CITE_T9_NECESSITY = "Theorem 9 necessity"
CITE_T9I = "Theorem 9(i)"
CITE_EQ415 = "Eq. (4.15)"
CITE_T9III = "Theorem 9(iii)"
CITE_R4 = {k: f"Remark 4({k})" for k in ("i", "ii", "iii", "iv", "v")}
CITE_R4_PRODUCT = "Remark 4(iii) + product rule"
CITE_R4IV_RHO = "Remark 4(iv) via rho'"

NUMERIC_BASIS = "numeric certificate"

# Equality band for the sharp boundary beta*gamma = 1.
_PRODUCT_BAND = 1e-12


@dataclass(frozen=True)
class Certificate:
    """Refutation witness: a sign violation at a concrete location."""

    kind: str  # derivative_sign | eta_sign
    location: float | str
    order: Optional[int]
    value: float


@dataclass(frozen=True)
class Verdict:
    status: str  # ProvenCM | ProvenNotCM | ProvenLCM | ProvenNotLCM | Undetermined
    basis: str  # citation label, or "numeric certificate"
    certificate: Optional[Certificate] = None
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False) + "\n"


# -- threshold machinery ------------------------------------------------------


def psi_max(beta):
    """Global maximum Psi(b) of psi_b over t in [0, 3 pi / sin(pi/b)]: a float
    for a float beta, an array for an array of betas, each value as if alone.

    Pinned to the exact endpoints 1 and 2.  In between, the largest psi_b on a
    coarse grid (uniform plus geometric, for a peak at small t near b = 1) and
    at a root of phi = psi_b' in every cell where phi goes from > 0 to <= 0, not
    just the best one: near b = 2 two humps are almost equally high.  Betas go
    in groups of ``BETA_CACHE_SIZE``, each group's rules built at once by
    ``rule_rows`` (not taken from the rule cache) and its grids as one array.
    The scan is one ``psi_jets`` call of psi and phi for the whole group, each
    beta's grid its own one-rule block.  The roots come from bracketed Newton
    on phi, each step one ``psi_jets`` call of psi, phi and phi' for the open
    cells of all betas of the group, from each cell's secant point, a step
    that leaves the bracket replaced by its midpoint, until |phi/phi'| or the
    bracket is <= 1e-9.
    """
    out = np.array(beta, dtype=float)
    flat = out.reshape(-1)
    if not ((1.0 <= flat) & (flat <= 2.0)).all():
        raise DomainError("psi_max requires beta in [1, 2]")
    inner = np.flatnonzero((1.0 < flat) & (flat < 2.0))  # Psi(1) = 1, Psi(2) = 2
    for start in range(0, inner.size, BETA_CACHE_SIZE):
        group = inner[start : start + BETA_CACHE_SIZE]
        flat[group] = _psi_max_group(flat[group].tolist())
    return float(out) if out.ndim == 0 else out


def _psi_max_group(betas: list) -> np.ndarray:
    """``psi_max`` at each beta in (1, 2) of ``betas``, from one rule build, one
    scan call over all their grids and one Newton jet."""
    b = np.array(betas)
    rules = (b,) + rule_rows(b)
    ts, which = _scan_grid(np.array([scan_range(x) for x in betas]))
    psis, phis = psi_jets(*rules, 1, True)(ts, which)
    best = np.maximum.reduceat(psis, np.searchsorted(which, np.arange(b.size)))
    # a cell: phi from > 0 to <= 0 between two points of one grid
    i = np.flatnonzero((phis[:-1] > 0.0) & (phis[1:] <= 0.0) & (which[:-1] == which[1:]))
    which, lo, up, phi_lo, phi_up = which[i], ts[i], ts[i + 1], phis[i], phis[i + 1]
    jet = psi_jets(*rules, 2)
    t = lo + phi_lo * (up - lo) / (phi_lo - phi_up)
    while t.size:
        psi, phi, dphi = jet(t, which)
        np.fmax.at(best, which, psi)
        newton = t - phi / dphi
        lo, up = np.where(phi > 0.0, t, lo), np.where(phi > 0.0, up, t)
        t = np.where((lo < newton) & (newton < up), newton, 0.5 * (lo + up))
        go = (np.abs(phi) > 1e-9 * np.abs(dphi)) & (up - lo > 1e-9) & (lo < t) & (t < up)
        which, lo, up, t = which[go], lo[go], up[go], t[go]
    return best


def _scan_grid(his: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``psi_max``'s scan grids for the spans ``his``, one after another: (ts,
    which), ts[r] a point of grid which[r].  Grid j holds the points of
    np.linspace(0, his[j], 65) but 0 and of np.geomspace(1e-2, his[j], 64),
    sorted, each once, bit for bit as numpy builds them, ends pinned, without
    calling either; all grids are built as one (G, 127) array.  It starts above
    t = 0: psi = phi = 0 there, and its exp row would keep every node."""
    hi, ts = his[:, None], np.empty((his.size, 127))
    # linspace: k (hi/64), its last point pinned to hi, which geomspace ends on
    np.multiply(np.arange(1.0, 64.0), hi / 64, out=ts[:, :63])
    # geomspace: 10 ** (k step - 2) with step = (log10(hi) + 2) / 63, both ends pinned
    np.power(10.0, np.arange(64.0) * ((np.log10(hi) + 2.0) / 63) - 2.0, out=ts[:, 63:])
    ts[:, 63], ts[:, 126] = 1e-2, his
    ts.sort()
    keep = np.ones(ts.shape, dtype=bool)
    keep[:, 1:] = ts[:, 1:] != ts[:, :-1]  # a point of both: kept once
    return ts[keep], np.nonzero(keep)[0]


def l_of_beta(beta: float) -> float:
    """Log-complete-monotonicity threshold l(b) = b (Psi(b) - 1)."""
    return beta * (psi_max(beta) - 1.0)


def _check_tol(tol: float, name: str = "tol") -> None:
    if not 0.0 < tol < math.inf:  # also a NaN
        raise DomainError(f"{name} must be finite and positive")


def beta_star() -> float:
    """The unique b in (1, 2) with l(b) = 1, about 1.738, solved to float spacing."""
    return find_root(lambda b: l_of_beta(b) - 1.0, 1.7, 1.8)


# -- eta sign scans -----------------------------------------------------------

# A grid minimum below this is treated as a genuine negative value.  The
# spectral rule's eta values are accurate to about 1e-13 on the scan grids
# (eps t^(a-1) at the first positive t), far below it.
ETA_NEGATIVE_THRESHOLD = -1e-7


def eta_negative_witness(alpha: float, beta: float) -> Optional[Certificate]:
    """Scan eta_{a,b} for a sign violation on ``eta_scan_grid``, 4096 points of
    [0, 6 pi / sin(pi/b)].

    Negativity refutes complete monotonicity of 1/(x^a (1+x^b)) exactly;
    absence of negativity on a finite grid proves nothing.  Sign changes
    are refined locally before reporting.  At a = 0 the kernel degenerates
    to phi_b itself (the power-law factor becomes a point mass).  A value
    that is not finite (a NaN from invalid input) never becomes a witness.
    At b = 1 no witness exists, as 1/(x^a (1+x)) is CM (Theorem 3(i)), so
    None returns before any grid is built.  DomainError unless 1 <= b <= 2.
    """
    if not 1.0 <= beta <= 2.0:
        raise DomainError(f"eta_negative_witness requires beta in [1, 2], got {beta}")
    if beta == 1.0:
        return None
    ts = eta_scan_grid(beta)
    scan = phi_callable(beta) if alpha == 0.0 else (lambda s: eta_grid(alpha, beta, s))
    vals = spectral_rule(beta).eta_scan(alpha) if 1.0 < beta < 2.0 else scan(ts)
    i = int(np.argmin(vals))
    # eta_scan moves by up to 7e-15 with the BLAS thread count: ``scan`` decides close calls
    near = np.flatnonzero(vals <= vals[i] + 1e-12)
    if near.size > 1 or abs(vals[i] - ETA_NEGATIVE_THRESHOLD) <= 1e-12:
        vals[near] = scan(ts[near])
        i = int(near[np.argmin(vals[near])])
    if vals[i] >= ETA_NEGATIVE_THRESHOLD:
        return None
    fine = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)], 64)
    fvals = scan(fine)
    j = int(np.argmin(fvals))
    if not math.isfinite(fvals[j]):
        return None
    return Certificate("eta_sign", float(fine[j]), None, float(fvals[j]))


def c_bounds(beta: float, alpha_tol: float = 1e-3) -> Tuple[float, float]:
    """Bracket for the complete-monotonicity threshold c(b), 1 < b <= 2.

    At b = 2 it is (1, 1), as c(2) = 1 by Lemma 1.  For 1 < b < 2, bisection
    over alpha in [0, b/2]: a negative eta value certifies that the candidate
    lies below c(b) (pushes the lower bound up); a clean scan pushes the upper
    bound down, heuristically, since a finite grid cannot certify eta >= 0
    everywhere.  The cap c(b) <= b/2 always holds.  Bisection stops early once
    the midpoint is not strictly inside the bracket (float spacing).
    """
    if not 1.0 < beta <= 2.0:
        raise DomainError("c_bounds requires beta in (1, 2]")
    _check_tol(alpha_tol, "alpha_tol")
    if beta == 2.0:
        return 1.0, 1.0
    lower = 0.0
    upper = beta / 2.0
    while upper - lower > alpha_tol:
        mid = 0.5 * (lower + upper)
        if not lower < mid < upper:
            break
        if eta_negative_witness(mid, beta) is not None:
            lower = mid
        else:
            upper = mid
    return lower, upper


# -- derivative scans ---------------------------------------------------------

DEFAULT_SCAN_ORDER = 8
DEFAULT_SCAN_GRID = tuple(np.geomspace(1e-2, 1e2, 48))


def cm_scan(
    expr: str,
    params: Mapping[str, float],
    max_order: int = DEFAULT_SCAN_ORDER,
    x_grid: Sequence[float] = DEFAULT_SCAN_GRID,
) -> Optional[Certificate]:
    """Search for (x, n) with (-1)^n f^(n)(x) < 0 beyond rounding slack.

    Derivatives come from truncated-series arithmetic, exact to rounding,
    one jet per grid point from one ``taylor_eval`` call.  Returns the first
    violating certificate in grid order, or None (which proves nothing).
    """
    return _derivative_scan(expr, params, max_order, x_grid, False)


def lcm_scan(
    expr: str,
    params: Mapping[str, float],
    max_order: int = DEFAULT_SCAN_ORDER,
    x_grid: Sequence[float] = DEFAULT_SCAN_GRID,
) -> Optional[Certificate]:
    """As cm_scan, applied to -(log f)': order n checks the n-th derivative
    of the negated logarithmic derivative."""
    return _derivative_scan(expr, params, max_order, x_grid, True)


def _derivative_scan(expr, params, max_order, x_grid, log: bool) -> Optional[Certificate]:
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    fn = M.catalog_function(expr, params)
    xs = np.asarray(x_grid, dtype=float)
    if not ((0.0 < xs) & (xs < math.inf)).all():
        raise DomainError("scan grid points must be finite and positive")
    with np.errstate(all="ignore"):  # as Python floats: inf and nan without a warning
        series = ta.taylor_eval(fn, xs, max_order + log)
        coeffs = np.array((ta.log(series) if log else series).coeffs)
    fact = np.array([math.factorial(k) for k in range(len(coeffs))], dtype=float)[:, None]
    # rounding slack of derivative k: 1e-12 k! times the largest |coefficient| up to k, at least 1
    slack = 1e-12 * np.fmax(1.0, np.fmax.accumulate(np.abs(coeffs))) * fact
    if log:  # (-(log f)')^(n)(x) = -(n+1)! * logcoeff_{n+1}
        k = np.arange(1.0, max_order + 2)[:, None]
        coeffs, slack = -k * coeffs[1:], slack[1:] * k
    signed = (-1.0) ** np.arange(max_order + 1)[:, None] * (coeffs * fact[: max_order + 1])
    hits = np.flatnonzero((signed < -10.0 * slack).T)  # grid order, n fastest
    if not hits.size:
        return None
    i, n = divmod(int(hits[0]), max_order + 1)
    return Certificate("derivative_sign", float(xs[i]), n, float(signed[n, i]))


# -- classifiers --------------------------------------------------------------


def classify_aux_cm(alpha: float, beta: float) -> Verdict:
    """Complete monotonicity of 1/(x^alpha (1 + x^beta))."""
    M.check("aux", alpha, beta)
    if beta > 2.0:
        return Verdict("ProvenNotCM", CITE_AUX_NECESSITY)
    if beta <= 1.0:
        return Verdict("ProvenCM", CITE_T3I)
    if beta == 2.0:  # Lemma 1 is Remark 4 at lambda = 1
        return Verdict(classify_g(alpha, 1.0).status, CITE_LEMMA1)
    if alpha >= beta / 2.0:
        return Verdict("ProvenCM", CITE_T3II)
    witness = eta_negative_witness(alpha, beta)
    if witness is not None:
        return Verdict(
            "ProvenNotCM",
            NUMERIC_BASIS,
            certificate=witness,
            notes="eta sign criterion is exact: a negative value refutes",
        )
    lo, hi = c_bounds(beta, 0.05)
    return Verdict(
        "Undetermined",
        NUMERIC_BASIS,
        notes=(
            f"no theorem applies for alpha < beta/2; eta scan found no negativity; "
            f"c({beta:g}) bracketed in [{lo:.4g}, {hi:.4g}] "
            f"(upper bound heuristic, grid-limited)"
        ),
    )


def classify_aux_lcm(alpha: float, beta: float, tol: float = 1e-6) -> Verdict:
    """Logarithmic complete monotonicity of 1/(x^alpha (1 + x^beta));
    DomainError unless tol, the width of the Undetermined band, is finite and > 0."""
    M.check("aux", alpha, beta)
    _check_tol(tol)
    if beta > 2.0:
        return Verdict(
            "ProvenNotLCM",
            CITE_AUX_NECESSITY,
            notes="the log-CM class is contained in the CM class",
        )
    if beta <= 1.0:
        return Verdict("ProvenLCM", CITE_T6I)
    if beta == 2.0:
        if alpha >= 2.0:
            return Verdict("ProvenLCM", CITE_T6II)
        return Verdict("ProvenNotLCM", CITE_T6II)
    threshold = l_of_beta(beta)
    if alpha >= threshold + tol:
        return Verdict(
            "ProvenLCM", CITE_EQ42, notes=f"alpha >= l({beta:g}) = {threshold:.9f}"
        )
    if alpha <= threshold - tol:
        return Verdict(
            "ProvenNotLCM", CITE_EQ42, notes=f"alpha < l({beta:g}) = {threshold:.9f}"
        )
    return Verdict(
        "Undetermined",
        NUMERIC_BASIS,
        notes=f"alpha within +/-{tol:g} of the numeric threshold l({beta:g}) = {threshold:.9f}",
    )


def classify_dagum(beta: float, gamma: float, tol: float = 1e-6) -> Verdict:
    """Complete monotonicity (hence all-dimension positive definiteness) of
    the correlation 1 - (x^beta/(1+x^beta))^gamma; DomainError unless tol, the
    width of the Undetermined band, is finite and > 0.  Remark 4(iv) refutes it at
    beta = 2: -rho'/(2 gamma) = 1/(x^(1-2g) (1+x^2)^(1+g)) and 1 - 2g < 1 + g."""
    M.check("dagum", beta, gamma)
    _check_tol(tol)
    product = beta * gamma
    if beta > 2.0 or product > 1.0 + _PRODUCT_BAND:
        return Verdict("ProvenNotCM", CITE_T9_NECESSITY)
    if abs(product - 1.0) <= _PRODUCT_BAND:
        if beta <= 1.0:
            return Verdict("ProvenCM", CITE_EQ415)
        return Verdict("ProvenNotCM", CITE_EQ415)
    if beta <= 1.0:
        return Verdict("ProvenCM", CITE_T9I)
    if beta == 2.0:  # exactly 1 - 2g < 1 < 1 + g; classify_g would see the rounded pair
        return Verdict("ProvenNotCM", CITE_R4IV_RHO)
    threshold = l_of_beta(beta)  # open region: beta gamma < 1 with 1 < beta < 2
    if threshold < 1.0:
        gamma_cap = (1.0 - threshold) / (beta + threshold)
        if gamma <= gamma_cap - tol:
            return Verdict(
                "ProvenCM",
                CITE_T9III,
                notes=f"gamma <= (1 - l)/(beta + l) = {gamma_cap:.9f} with l({beta:g}) = {threshold:.9f}",
            )
        if gamma <= gamma_cap + tol:
            return Verdict(
                "Undetermined",
                NUMERIC_BASIS,
                notes=f"gamma within +/-{tol:g} of the numeric bound {gamma_cap:.9f}",
            )
    witness = cm_scan("reduced_dagum", dict(zip(M.MODELS["dagum"].names, (beta, gamma))))
    if witness is not None:
        return Verdict(
            "ProvenNotCM",
            NUMERIC_BASIS,
            certificate=witness,
            notes=(
                "derivative-sign violation of the reduced function "
                "x^(bg-1)/(1+x^b)^(g+1), whose complete monotonicity is "
                "equivalent to that of the correlation"
            ),
        )
    return Verdict(
        "Undetermined",
        NUMERIC_BASIS,
        notes=(
            f"no theorem covers this point and a derivative scan up to order "
            f"{DEFAULT_SCAN_ORDER} on {len(DEFAULT_SCAN_GRID)} grid points found "
            f"no violation (not a proof)"
        ),
    )


def classify_g(alpha: float, lam: float) -> Verdict:
    """Complete monotonicity of 1/(x^alpha (1 + x^2)^lambda)."""
    M.check("g", alpha, lam)
    if alpha == 1.0 and lam <= 1.0:
        return Verdict("ProvenCM", CITE_R4["iii"])
    if alpha >= 2.0 * lam:
        return Verdict("ProvenCM", CITE_R4["ii"])
    if alpha >= lam >= 1.0:
        return Verdict("ProvenCM", CITE_R4["i"])
    if alpha < lam:
        return Verdict("ProvenNotCM", CITE_R4["iv"])
    if alpha == lam and 0.0 < alpha < 1.0:
        return Verdict("ProvenNotCM", CITE_R4["v"])
    if alpha >= 1.0 and lam <= 1.0:
        return Verdict(
            "ProvenCM",
            CITE_R4_PRODUCT,
            notes="x^-(alpha-1) is CM for alpha >= 1, and a product of CM functions is CM",
        )
    return Verdict(
        "Undetermined",
        NUMERIC_BASIS,
        notes="outside the known sufficient and necessary regions",
    )


# CLI family -> (classifier, the model whose parameters it takes, takes tol).
CLASSIFIERS = {
    "dagum": (classify_dagum, "dagum", True),
    "aux-cm": (classify_aux_cm, "aux", False),
    "aux-lcm": (classify_aux_lcm, "aux", True),
    "g": (classify_g, "g", False),
}


# -- threshold table ----------------------------------------------------------


@dataclass
class ThresholdTable:
    """Tabulated Psi, l and beta* over a beta grid (what ``figure1`` prints);
    the monotonicity facts are validated by the test suite."""

    beta_grid: np.ndarray
    psi_values: np.ndarray
    l_values: np.ndarray
    beta_star: float

    @classmethod
    def build(cls, n: int = 101, lo: float = 1.0, hi: float = 2.0) -> "ThresholdTable":
        if n < 11:
            raise DomainError("grid needs at least 11 points")
        betas = np.linspace(lo, hi, n)
        psis = psi_max(betas)
        return cls(betas, psis, betas * (psis - 1.0), beta_star())
