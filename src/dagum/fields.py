"""Empirical validation layer: positive-definiteness checks on point sets,
deterministic 1-D Gaussian profile simulation, and analytic variogram slope
estimators for the local/tail decoupling comparison.

Distance conventions matter and are therefore explicit everywhere: a
completely monotonic correlation is positive definite in every dimension
when applied to squared distances (``squared_distance``); applying it to
plain distances (``plain_distance``) is the usual 1-D profile usage.
Conflating the two is the most likely usage bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import models as M
from .errors import DegenerateFitError, DomainError, NotPermissibleError

EIG_TOL = 1e-8
CHOL_JITTER = 1e-10

CONVENTIONS = ("squared_distance", "plain_distance")

# Fixed analytic fit windows: deep enough into the limiting regimes that the
# window bias stays below ~0.006 for exponents down to 0.25.
LOCAL_WINDOW = (1e-10, 1e-8)
TAIL_WINDOW = (1e8, 1e10)
FIT_POINTS = 17

# Stream tags keep the independent RNG uses (profiles, search trials) from
# colliding on a shared seed.
_PROFILE_STREAM = 2024
_SEARCH_STREAM = 77


@dataclass(frozen=True)
class PointSet:
    dimension: int
    points: np.ndarray  # shape (n, dimension)
    id: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension or self.dimension < 1:
            raise DomainError("points must be an (n, d) array matching dimension")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        object.__setattr__(self, "points", pts)
        if pts.shape[0] >= 2:
            d2 = _sq_distances(pts)
            off = d2[~np.eye(pts.shape[0], dtype=bool)]
            if off.size and off.min() == 0.0:
                raise DomainError("points must be distinct")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PsdReport:
    model_id: str
    params: Dict[str, float]
    point_set_id: str
    convention: str
    n_points: int
    dimension: int
    min_eigenvalue: float
    max_eigenvalue: float
    verdict: str  # psd | indefinite


@dataclass(frozen=True)
class Profile:
    spacing: float
    values: np.ndarray
    seed: int
    model_id: str
    params: Dict[str, float]

    def __post_init__(self):
        if not (math.isfinite(self.spacing) and self.spacing > 0.0):
            raise DomainError("spacing must be finite and > 0")
        if len(self.values) < 2:
            raise DomainError("profile needs at least two samples")


def _sq_distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def gram_matrix(
    model_id: str,
    params: Mapping[str, float],
    ps: PointSet,
    convention: str,
) -> np.ndarray:
    """Symmetric unit-diagonal matrix rho(arg(x_i, x_j)) over the point set.

    ``squared_distance`` feeds rho the squared Euclidean distances (the
    complete-monotonicity side of the Schoenberg correspondence);
    ``plain_distance`` feeds it the distances themselves.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}")
    p, evaluator = M.make_model(model_id, params)
    arg = _sq_distances(ps.points)
    if convention == "plain_distance":
        arg = np.sqrt(arg)
    n = ps.n_points
    out = np.ones((n, n))
    mask = ~np.eye(n, dtype=bool)
    # Off the diagonal only: distinct points have positive distances, where
    # the families that diverge at zero are defined.
    with np.errstate(divide="ignore", over="ignore"):
        out[mask] = evaluator(p, arg[mask])
    out = 0.5 * (out + out.T)
    return out


def psd_check(
    model_id: str,
    params: Mapping[str, float],
    ps: PointSet,
    convention: str,
) -> PsdReport:
    """Extremal eigenvalues of the Gram matrix and a psd/indefinite verdict.

    Indefinite means min eigenvalue < -EIG_TOL * max eigenvalue; such a
    finding is a concrete witness against positive definiteness in this
    dimension.
    """
    g = gram_matrix(model_id, params, ps, convention)
    eigs = np.linalg.eigvalsh(g)
    mn, mx = float(eigs[0]), float(eigs[-1])
    verdict = "indefinite" if mn < -EIG_TOL * mx else "psd"
    return PsdReport(
        model_id=model_id,
        params=dict(params),
        point_set_id=ps.id,
        convention=convention,
        n_points=ps.n_points,
        dimension=ps.dimension,
        min_eigenvalue=mn,
        max_eigenvalue=mx,
        verdict=verdict,
    )


def _rng(seed: int, stream: int, trial: int = 0) -> np.random.Generator:
    # Philox takes a 2-word key: (seed, stream/trial) keeps independent uses
    # and independent trials on non-overlapping counter streams.  The key
    # words pass through int64, so a wider seed would wrap or overflow.
    if not -(2**63) <= seed < 2**63:
        raise DomainError(f"seed must lie in [-2^63, 2^63), got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, (stream << 32) + trial]))


def random_point_set(
    dimension: int, n_points: int, seed: int, trial: int = 0, box: float = 10.0
) -> PointSet:
    """Uniform points in [0, box]^d, deterministic in (seed, trial)."""
    rng = _rng(seed, _SEARCH_STREAM, trial)
    pts = rng.uniform(0.0, box, size=(n_points, dimension))
    return PointSet(dimension, pts, id=f"uniform-d{dimension}-n{n_points}-s{seed}-t{trial}")


def nonpsd_search(
    model_id: str,
    params: Mapping[str, float],
    d_max: int = 5,
    n_points: int = 60,
    n_trials: int = 40,
    seed: int = 0,
    convention: str = "squared_distance",
) -> Optional[Tuple[PointSet, PsdReport]]:
    """Random search for an indefinite Gram configuration.

    Deterministic given the seed; cycles through dimensions 1..d_max.
    Returns the first indefinite (point set, report), or None -- and None
    proves nothing, since a witness may need dimensions or configurations
    outside the budget.
    """
    if d_max < 1 or n_points < 2 or n_trials < 1:
        raise DomainError("budgets must be positive")
    for trial in range(n_trials):
        dim = trial % d_max + 1
        ps = random_point_set(dim, n_points, seed, trial)
        report = psd_check(model_id, params, ps, convention)
        if report.verdict == "indefinite":
            return ps, report
    return None


def simulate_profile(
    model_id: str,
    params: Mapping[str, float],
    n: int,
    spacing: float,
    seed: int,
) -> Profile:
    """Zero-mean unit-variance Gaussian profile on a regular 1-D grid.

    Uses the plain-distance Gram matrix (jittered Cholesky); a factorization
    failure means the model is not usable at this resolution.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise DomainError("spacing must be finite and > 0")
    positions = (np.arange(n) * spacing)[:, None]
    ps = PointSet(1, positions, id=f"grid-n{n}-h{spacing:g}")
    cov = gram_matrix(model_id, params, ps, "plain_distance")
    try:
        chol = np.linalg.cholesky(cov + CHOL_JITTER * np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NotPermissibleError(
            f"covariance factorization failed for {model_id} at n={n}, spacing={spacing}"
        ) from exc
    z = _rng(seed, _PROFILE_STREAM).standard_normal(n)
    return Profile(spacing, chol @ z, seed, model_id, dict(params))


def _loglog_slope(fn, window: Tuple[float, float]) -> float:
    ts = np.geomspace(window[0], window[1], FIT_POINTS)
    ys = np.array([fn(float(t)) for t in ts])
    if np.any(~np.isfinite(ys)) or np.any(ys <= 0.0):
        raise DegenerateFitError("nonpositive or non-finite values in fit window")
    return float(np.polyfit(np.log(ts), np.log(ys), 1)[0])


def estimate_local_exponent(model_id: str, params: Mapping[str, float]) -> float:
    """Near-origin log-log slope of the semivariogram 1 - rho(t).

    Identifies the smoothness parameter: epsilon for the Dagum two-parameter
    form, theta for Cauchy.
    """
    return _loglog_slope(lambda t: M.semivariogram(model_id, params, t), LOCAL_WINDOW)


def estimate_hurst_exponent(model_id: str, params: Mapping[str, float]) -> float:
    """Large-t log-log slope of rho(t) (the tail decay exponent).

    Cauchy gives -eta; the Dagum two-parameter form gives -gamma (its
    correlation tail is (epsilon/gamma) t^(-gamma) to leading order).
    """
    rho = M.correlation(model_id, dict(params))
    return _loglog_slope(rho, TAIL_WINDOW)


# -- CSV serialization --------------------------------------------------------

PSD_CSV_HEADER = (
    "model,params,point_set_id,convention,n_points,dimension,"
    "min_eigenvalue,max_eigenvalue,verdict"
)

PROFILE_CSV_HEADER = "index,position,value"


def _fmt_params(params: Mapping[str, float]) -> str:
    return ";".join(f"{k}={params[k]!r}" for k in sorted(params))


def psd_reports_to_csv(reports: Sequence[PsdReport]) -> str:
    lines = [PSD_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.model_id},{_fmt_params(r.params)},{r.point_set_id},{r.convention},"
            f"{r.n_points},{r.dimension},{r.min_eigenvalue!r},{r.max_eigenvalue!r},{r.verdict}"
        )
    return "\n".join(lines) + "\n"


def profile_to_csv(profile: Profile) -> str:
    lines = [PROFILE_CSV_HEADER]
    for i, v in enumerate(profile.values):
        lines.append(f"{i},{i * profile.spacing!r},{float(v)!r}")
    return "\n".join(lines) + "\n"
