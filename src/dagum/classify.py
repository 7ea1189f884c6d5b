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
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from . import models as M
from . import taylor as ta
from .errors import DomainError
from .kernels import eta_grid, phi_callable, spectral_rule
from .numerics import Bracket, find_root

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

NUMERIC_BASIS = "numeric certificate"

# Equality band for the sharp boundary beta*gamma = 1.
_PRODUCT_BAND = 1e-12


@dataclass(frozen=True)
class Certificate:
    """Refutation witness: a sign violation at a concrete location."""

    kind: str  # derivative_sign | eta_sign | indefinite_gram
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


def scan_range(beta: float, periods: float = 3.0) -> float:
    """Search horizon t-scale: the oscillation of psi_b is set by sin(pi/b)."""
    return periods * PI / math.sin(PI / beta)


def psi_max(beta: float, tol: float = 1e-9) -> float:
    """Global maximum Psi(b) of psi_b over t in [0, 3 pi / sin(pi/b)].

    Pinned to the exact endpoints 1 and 2.  In between, the largest psi_b on a
    coarse grid (uniform plus geometric, for a peak at small t near b = 1) and at
    a root of phi = psi_b' in every cell where phi goes from > 0 to <= 0, not
    just the best one: near b = 2 two humps are almost equally high.
    """
    if not 1.0 <= beta <= 2.0:
        raise DomainError("psi_max requires beta in [1, 2]")
    if beta == 1.0:
        return 1.0
    if beta == 2.0:
        return 2.0
    ev, hi = spectral_rule(beta), scan_range(beta)
    # a set, not np.union1d: numpy's unique imports numpy.ma (about 12 ms, 1 MB)
    ts = np.array(sorted({*np.linspace(0.0, hi, 65), *np.geomspace(1e-2, hi, 64)}))
    phis = ev.phi_values(ts)
    best = float(np.max(ev.psi_values(ts)))
    for i in np.flatnonzero((phis[:-1] > 0.0) & (phis[1:] <= 0.0)):
        cell = Bracket(float(ts[i]), float(ts[i + 1]))
        # phi over its secant slope, so |f| <= tol places the root to about tol
        slope = (phis[i] - phis[i + 1]) / (cell.hi - cell.lo)
        root = find_root(lambda t: float(ev.phi_values(t)[0]) / slope, cell, tol)
        best = max(best, ev.psi(root))
    return best


def l_of_beta(beta: float) -> float:
    """Log-complete-monotonicity threshold l(b) = b (Psi(b) - 1)."""
    return beta * (psi_max(beta) - 1.0)


def beta_star(tol: float = 1e-6) -> float:
    """The unique b in (1, 2) with l(b) = 1; approximately 1.74."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError("tol must be finite and positive")
    return find_root(lambda b: l_of_beta(b) - 1.0, Bracket(1.5, 1.9), tol)


# -- eta sign scans -----------------------------------------------------------

# A grid minimum below this is treated as a genuine negative value.  The
# spectral rule's eta values are accurate to about 1e-13 on the scan grids
# (eps t^(a-1) at the first positive t), far below it.
ETA_NEGATIVE_THRESHOLD = -1e-7


def eta_negative_witness(
    alpha: float, beta: float, n_points: int = 4096, periods: float = 6.0
) -> Optional[Certificate]:
    """Scan eta_{a,b} on [0, 6 pi / sin(pi/b)] for a sign violation.

    Negativity refutes complete monotonicity of 1/(x^a (1+x^b)) exactly;
    absence of negativity on a finite grid proves nothing.  Sign changes
    are refined locally before reporting.  At a = 0 the kernel degenerates
    to phi_b itself (the power-law factor becomes a point mass).  A value
    that is not finite (a NaN from invalid input) never becomes a witness.
    """
    ts = np.linspace(0.0, scan_range(beta, periods), n_points)
    if alpha == 0.0:
        scan = phi_callable(beta)
    else:
        scan = lambda s: eta_grid(alpha, beta, s)  # noqa: E731
    vals = scan(ts)
    i = int(np.argmin(vals))
    if vals[i] >= ETA_NEGATIVE_THRESHOLD:
        return None
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, n_points - 1)]
    fine = np.linspace(lo, hi, 64)
    fvals = scan(fine)
    j = int(np.argmin(fvals))
    if not math.isfinite(fvals[j]):
        return None
    return Certificate("eta_sign", float(fine[j]), None, float(fvals[j]))


def c_bounds(
    beta: float, alpha_tol: float = 1e-3, n_points: int = 4096
) -> Tuple[float, float]:
    """Bracket for the complete-monotonicity threshold c(b), 1 < b <= 2.

    Bisection over alpha in [0, b/2]: a negative eta value certifies that
    the candidate lies below c(b) (pushes the lower bound up); a clean scan
    pushes the upper bound down, heuristically, since a finite grid cannot
    certify eta >= 0 everywhere.  The guaranteed cap c(b) <= b/2 always
    holds, and the bracket contains 1 at b = 2.
    """
    if not 1.0 < beta <= 2.0:
        raise DomainError("c_bounds requires beta in (1, 2]")
    if not 0.0 < alpha_tol < math.inf:
        raise DomainError("alpha_tol must be finite and positive")
    lower = 0.0
    upper = beta / 2.0
    while upper - lower > alpha_tol:
        mid = 0.5 * (lower + upper)
        if eta_negative_witness(mid, beta, n_points) is not None:
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

    Derivatives come from truncated-series arithmetic, exact to rounding.
    Returns the first violating certificate, or None (which proves nothing).
    """
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    fn = M.catalog_function(expr, params)
    for x in x_grid:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise DomainError("scan grid points must be finite and positive")
        series = ta.taylor_eval(fn, x, max_order)
        for n in range(max_order + 1):
            signed = (-1.0) ** n * series.derivative(n)
            if signed < -10.0 * ta.rounding_slack(series, n):
                return Certificate("derivative_sign", x, n, signed)
    return None


def lcm_scan(
    expr: str,
    params: Mapping[str, float],
    max_order: int = DEFAULT_SCAN_ORDER,
    x_grid: Sequence[float] = DEFAULT_SCAN_GRID,
) -> Optional[Certificate]:
    """As cm_scan, applied to -(log f)': order n checks the n-th derivative
    of the negated logarithmic derivative."""
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    fn = M.catalog_function(expr, params)
    for x in x_grid:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise DomainError("scan grid points must be finite and positive")
        log_series = ta.log(ta.taylor_eval(fn, x, max_order + 1))
        for n in range(max_order + 1):
            # (-(log f)')^(n)(x) = -(n+1)! * logcoeff_{n+1}
            g_n = -(n + 1) * log_series.coeffs[n + 1] * math.factorial(n)
            signed = (-1.0) ** n * g_n
            slack = ta.rounding_slack(log_series, n + 1) * (n + 1)
            if signed < -10.0 * slack:
                return Certificate("derivative_sign", x, n, signed)
    return None


# -- classifiers --------------------------------------------------------------


def classify_aux_cm(alpha: float, beta: float, alpha_tol: float = 0.05) -> Verdict:
    """Complete monotonicity of 1/(x^alpha (1 + x^beta))."""
    M.AuxParams(alpha, beta)  # finite, alpha >= 0, beta >= 0
    if beta > 2.0:
        return Verdict("ProvenNotCM", CITE_AUX_NECESSITY)
    if beta <= 1.0:
        return Verdict("ProvenCM", CITE_T3I)
    if beta == 2.0:
        if alpha >= 1.0:
            return Verdict("ProvenCM", CITE_LEMMA1)
        return Verdict("ProvenNotCM", CITE_LEMMA1)
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
    lo, hi = c_bounds(beta, alpha_tol)
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
    """Logarithmic complete monotonicity of 1/(x^alpha (1 + x^beta))."""
    M.AuxParams(alpha, beta)  # finite, alpha >= 0, beta >= 0
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
    the correlation 1 - (x^beta/(1+x^beta))^gamma."""
    M.DagumParams(beta, gamma)  # finite, beta > 0, gamma > 0
    product = beta * gamma
    if beta > 2.0 or product > 1.0 + _PRODUCT_BAND:
        return Verdict("ProvenNotCM", CITE_T9_NECESSITY)
    if abs(product - 1.0) <= _PRODUCT_BAND:
        if beta <= 1.0:
            return Verdict("ProvenCM", CITE_EQ415)
        return Verdict("ProvenNotCM", CITE_EQ415)
    if beta <= 1.0:
        return Verdict("ProvenCM", CITE_T9I)
    # open region: beta*gamma < 1 with 1 < beta <= 2
    threshold = l_of_beta(beta) if beta < 2.0 else 2.0
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
    witness = cm_scan("reduced_dagum", {"beta": beta, "gamma": gamma})
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
    M.GParams(alpha, lam)  # finite, alpha >= 0, lambda >= 0
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
    return Verdict(
        "Undetermined",
        NUMERIC_BASIS,
        notes="outside the known sufficient and necessary regions",
    )


# CLI family -> (classifier, parameter names in argument order, takes tol).
CLASSIFIERS = {
    "dagum": (classify_dagum, ("beta", "gamma"), True),
    "aux-cm": (classify_aux_cm, ("alpha", "beta"), False),
    "aux-lcm": (classify_aux_lcm, ("alpha", "beta"), True),
    "g": (classify_g, ("alpha", "lambda"), False),
}


# -- threshold table ----------------------------------------------------------


@dataclass
class ThresholdTable:
    """Tabulated Psi, l and (optionally) c-bounds over a beta grid.

    Only the internal consistency c_lower <= c_upper is enforced at build
    time; the monotonicity facts are validated by the test suite.
    """

    beta_grid: np.ndarray
    psi_values: np.ndarray
    l_values: np.ndarray
    beta_star: float
    c_lower: Optional[np.ndarray] = None
    c_upper: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        n: int = 101,
        lo: float = 1.0,
        hi: float = 2.0,
        compute_c: bool = False,
        alpha_tol: float = 1e-3,
        root_tol: float = 1e-6,
    ) -> "ThresholdTable":
        if n < 11:
            raise DomainError("grid needs at least 11 points")
        betas = np.linspace(lo, hi, n)
        psis = np.array([psi_max(float(b)) for b in betas])
        ls = betas * (psis - 1.0)
        star = beta_star(root_tol)
        c_lo = c_hi = None
        if compute_c:
            pairs = [
                c_bounds(float(b), alpha_tol) if b > 1.0 else (0.0, 0.0) for b in betas
            ]
            c_lo = np.array([p[0] for p in pairs])
            c_hi = np.array([p[1] for p in pairs])
            if np.any(c_lo > c_hi):
                raise AssertionError("c bracket inverted")
        return cls(
            beta_grid=betas,
            psi_values=psis,
            l_values=ls,
            beta_star=star,
            c_lower=c_lo,
            c_upper=c_hi,
            meta={"n": n, "alpha_tol": alpha_tol, "root_tol": root_tol},
        )

    def to_dict(self) -> dict:
        out = {
            "beta_grid": self.beta_grid.tolist(),
            "psi_max": self.psi_values.tolist(),
            "l_values": self.l_values.tolist(),
            "beta_star": self.beta_star,
            "c_lower": self.c_lower.tolist() if self.c_lower is not None else None,
            "c_upper": self.c_upper.tolist() if self.c_upper is not None else None,
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
