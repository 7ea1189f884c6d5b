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

import functools
import math
import os
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import models as M
from . import numerics as N
from .errors import DegenerateFitError, DomainError, NotPermissibleError, NumericOverflowError
from .models import CONVENTIONS

EIG_TOL = 1e-8
EMBED_DOUBLINGS = 4

# Fixed analytic fit windows: deep enough into the limiting regimes that the
# window bias stays below ~0.006 for exponents down to 0.25.
LOCAL_WINDOW = (1e-10, 1e-8)
TAIL_WINDOW = (1e8, 1e10)
FIT_POINTS = 17

# Stream tags keep the independent RNG uses (profiles, search trials) from
# colliding on a shared seed.
_PROFILE_STREAM = 2024
_SEARCH_STREAM = 77

# numpy's eigvalsh holds the GIL unless its stack has more than this many
# matrix rows in all (measured on numpy 2.4.6), so ``psd_checks`` solves its
# sets in stacks of the fewest that pass it.
_GIL_FREE_ROWS = 500


class _PointSet(NamedTuple):
    dimension: int
    points: np.ndarray  # shape (n, dimension)
    id: str
    sq_pairs: np.ndarray  # squared distances of the strict lower triangle, row by row


class PointSet(_PointSet):
    __slots__ = ()

    def __new__(cls, dimension: int, points: np.ndarray, id: str) -> "PointSet":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != dimension or dimension < 1:
            raise DomainError("points must be an (n, d) array matching dimension")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        pairs = _sq_distances(pts)
        if not pairs.all():  # an equal or underflowing pair
            raise DomainError("points must be distinct")
        return super().__new__(cls, dimension, pts, id, pairs)

    def __getnewargs__(self):  # copy and pickle construct the set again from these
        return self[:3]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


class PsdReport(NamedTuple):
    model_id: str
    params: Dict[str, float]
    point_set_id: str
    convention: str
    n_points: int
    dimension: int
    min_eigenvalue: float
    max_eigenvalue: float
    verdict: str  # psd | indefinite


class Profile(NamedTuple):
    spacing: float
    values: np.ndarray


@functools.lru_cache(maxsize=4)
def _lower(n: int) -> np.ndarray:
    """``np.tri(n, k=-1)`` as a read-only mask, so that threads may share it:
    the pairs i > j of n points, row by row."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _sq_distances(pts: np.ndarray) -> np.ndarray:
    # One squared distance per pair i > j, in _lower order: c[i] is c repeated
    # 0, 1, ..., n - 1 times, c[j] the masked rows of c broadcast to (n, n).
    # Even and odd coordinates summed apart, then added: the two-lane order
    # of einsum("ijk,ijk->ij"), so psd rows keep their bits.
    n = len(pts)
    lower = _lower(n)
    lanes = [0.0, 0.0]
    with np.errstate(over="ignore"):
        for k, c in enumerate(pts.T):
            sq = np.repeat(c, np.arange(n))
            sq -= np.broadcast_to(c, (n, n))[lower]
            lanes[k % 2] = np.add(lanes[k % 2], np.square(sq, out=sq), out=sq)
        d2 = np.add(lanes[0], lanes[1], out=lanes[0])
    if not d2.max(initial=0.0) < math.inf:  # the sums are >= 0 or inf
        raise DomainError("squared distances must be finite; the points are too far apart")
    return d2


def gram_matrix(
    model_id: str,
    params: Mapping[str, float],
    ps: PointSet,
    convention: str,
) -> np.ndarray:
    """Symmetric unit-diagonal matrix rho(arg(x_i, x_j)) over the point set.

    ``squared_distance`` feeds rho the squared Euclidean distances (the
    complete-monotonicity side of the Schoenberg correspondence);
    ``plain_distance`` feeds it the distances themselves.  An entry that
    leaves the float range (x^beta overflowing, then inf/inf) raises
    ``NumericOverflowError`` before any factorization or eigen-solve sees it.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"convention must be one of {CONVENTIONS}")
    p, evaluator = M.make_model(model_id, params)
    # One evaluation per unordered pair, written to both (i, j) and (j, i);
    # distinct points have positive distances, where every family is defined.
    arg = np.sqrt(ps.sq_pairs) if convention == "plain_distance" else ps.sq_pairs
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = evaluator(p, arg)
    del arg  # freed before the n x n output is allocated
    if not np.isfinite(values).all():
        raise NumericOverflowError(f"{model_id} leaves the float range")
    lower = _lower(ps.n_points)
    out = np.ones(lower.shape)
    out[lower] = out.T[lower] = values
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
    eigs = np.linalg.eigvalsh(gram_matrix(model_id, params, ps, convention))
    return _psd_report(eigs, model_id, params, ps, convention)


def _psd_report(
    eigs: np.ndarray, model_id: str, params: Mapping[str, float], ps: PointSet, convention: str
) -> PsdReport:
    # the verdict rule of psd_check, psd_checks and nonpsd_search, on the
    # ascending eigenvalues of the set's Gram matrix
    mn, mx = float(eigs[0]), float(eigs[-1])
    return PsdReport(
        model_id=model_id,
        params=dict(params),
        point_set_id=ps.id,
        convention=convention,
        n_points=ps.n_points,
        dimension=ps.dimension,
        min_eigenvalue=mn,
        max_eigenvalue=mx,
        verdict="indefinite" if mn < -EIG_TOL * mx else "psd",
    )


def _rng(seed: int, stream: int, trial: int = 0) -> np.random.Generator:
    # Philox takes a 2-word key: (seed, stream/trial) keeps independent uses
    # and independent trials on non-overlapping counter streams.  The key
    # words pass through int64, so a wider seed would wrap or overflow.
    if not -(2**63) <= seed < 2**63:
        raise DomainError(f"seed must lie in [-2^63, 2^63), got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, (stream << 32) + trial]))


def random_point_set(dimension: int, n_points: int, seed: int, trial: int = 0) -> PointSet:
    """Uniform points in [0, 10]^d, deterministic in (seed, trial)."""
    rng = _rng(seed, _SEARCH_STREAM, trial)
    pts = rng.uniform(0.0, 10.0, size=(n_points, dimension))
    return PointSet(dimension, pts, id=f"uniform-d{dimension}-n{n_points}-s{seed}-t{trial}")


def psd_checks(
    model_id: str,
    params: Mapping[str, float],
    dims: Sequence[int],
    n_points: int,
    n_sets: int,
    seed: int = 0,
    convention: str = "squared_distance",
) -> List[PsdReport]:
    """``psd_check`` of sets 0 .. n_sets - 1 of ``random_point_set(d, n_points,
    seed, set)`` for each d in ``dims``, in (dimension, set) order.

    The sets go in chunks of consecutive sets, each of the fewest k with
    k n_points > 500 (3 at n = 200), where numpy's stacked ``eigvalsh``
    releases the GIL.  A chunk's point sets and Gram matrices are built in
    turn and solved by one stacked ``eigvalsh`` call, which gives each matrix
    the bits of its own call.  The chunks run on ``numerics.run_lanes``, on
    min(CPUs the process may run on // BLAS threads, chunks) lanes, at least
    one.  BLAS threads is ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``,
    else the CPU count, as OpenBLAS reads them, so a process that leaves them
    unset starts no thread.  Once every lane has ended, the first error in
    set order is raised.
    """
    dims = list(dims)
    if not dims or min(dims) < 1 or n_points < 2 or n_sets < 1:
        raise DomainError("need dims >= 1, n >= 2, sets >= 1")
    sets = [(d, k) for d in dims for k in range(n_sets)]
    size = _GIL_FREE_ROWS // n_points + 1
    chunks = [sets[s:s + size] for s in range(0, len(sets), size)]
    reports: List[List[PsdReport]] = [[] for _ in chunks]

    def solve(c: int) -> None:  # each chunk writes its own reports
        pss, grams = [], np.empty((len(chunks[c]), n_points, n_points))
        for g, (d, k) in zip(grams, chunks[c]):
            pss.append(random_point_set(d, n_points, seed, k))
            g[...] = gram_matrix(model_id, params, pss[-1], convention)
        eigs = np.linalg.eigvalsh(grams)
        reports[c] = [_psd_report(e, model_id, params, ps, convention) for e, ps in zip(eigs, pss)]

    lanes = max(1, min(N.CPUS // _blas_threads(), len(chunks)))
    N.run_lanes(solve, len(chunks), lanes)
    return [r for chunk in reports for r in chunk]


def _blas_threads() -> int:
    # OpenBLAS's own rule: the first positive count of these, else one per CPU
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return N.CPUS


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

    Each trial's Gram matrix G (n x n, finite: ``gram_matrix`` rejects
    anything else, and OpenBLAS's Cholesky completes on NaN) is first
    factored by Cholesky; only a trial whose factorization fails goes on to
    the eigen-solve and verdict rule of ``psd_check``.  The screen is exact.
    A Cholesky factorization that completes in floating point with unit
    roundoff u = 2^-53 gives R^T R = G + dG with |dG| <= gamma_(n+1) |R^T| |R|
    (Demmel 1989; Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm. 10.3, whose proof uses only that the algorithm completes,
    in any order of its sums), where gamma_k = k u / (1 - k u).  Since
    || |R^T| |R| ||_2 <= n ||R||_2^2 = n ||G + dG||_2, this gives
    ||dG||_2 <= c ||G||_2 with c = n gamma_(n+1) / (1 - n gamma_(n+1)), about
    n (n + 1) u.  G + dG is positive semidefinite, so lambda_min(G) >=
    -c ||G||_2 (Weyl), and ||G||_2 = lambda_max(G).  ``eigvalsh`` is backward
    stable: its eigenvalues are exact for G + E, ||E||_2 <= p(n) u ||G||_2.
    So the computed min and max eigenvalues of an accepted trial satisfy
    mn >= -(c + p(n) u) ||G||_2 and mx >= (1 - p(n) u) ||G||_2, and the rule
    (indefinite when mn < -EIG_TOL mx) could call it indefinite only if
    c + p(n) u > EIG_TOL (1 - p(n) u).  The screen runs only where
    n (n + 1) u <= EIG_TOL / 100, i.e. n <= 948; there c < 1.01e-10, and
    that would need p(n) > 8.9e7, where LAPACK's p(n) grows modestly (even
    a worst-case n^2.5 is 2.8e7 at n = 948).  Every trial the screen accepts
    is one the rule calls psd, so the search returns the same point set and
    report as eigen-solving every trial.  Above n = 948 every trial is
    eigen-solved.
    """
    if d_max < 1 or n_points < 2 or n_trials < 1:
        raise DomainError("budgets must be positive")
    screen = n_points * (n_points + 1) * 2.0**-53 <= EIG_TOL / 100
    for trial in range(n_trials):
        dim = trial % d_max + 1
        ps = random_point_set(dim, n_points, seed, trial)
        g = gram_matrix(model_id, params, ps, convention)
        if screen and _cholesky_completes(g):
            continue
        report = _psd_report(np.linalg.eigvalsh(g), model_id, params, ps, convention)
        if report.verdict == "indefinite":
            return ps, report
    return None


def _cholesky_completes(g: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def simulate_profile(
    model_id: str, params: Mapping[str, float], n: int, spacing: float, seed: int
) -> Profile:
    """Zero-mean unit-variance Gaussian profile on a regular 1-D grid.

    Circulant embedding (Wood & Chan 1994) of the plain-distance Gram matrix:
    size 2(n-1), doubled at most EMBED_DOUBLINGS times while an eigenvalue is
    below -EIG_TOL * lambda_max.  m normals go through its symmetric square
    root, eigenvalues clamped at 0, by FFT; no BLAS call touches the draw.
    A model value that leaves the float range raises ``NumericOverflowError``.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise DomainError("spacing must be finite and > 0")
    if not math.isfinite(((n - 1) * spacing) * ((n - 1) * spacing)):
        raise DomainError("squared distances must be finite; the points are too far apart")
    p, evaluator = M.make_model(model_id, params)
    for m in (2 * (n - 1) << k for k in range(EMBED_DOUBLINGS + 1)):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            half = np.append(1.0, evaluator(p, np.arange(1, m // 2 + 1) * spacing))
        if not np.isfinite(half).all():
            raise NumericOverflowError(f"{model_id} leaves the float range")
        lam = np.fft.rfft(np.concatenate((half, half[-2:0:-1]))).real
        if lam.min() >= -EIG_TOL * lam.max():
            z = _rng(seed, _PROFILE_STREAM).standard_normal(m)
            values = np.fft.irfft(np.sqrt(np.maximum(lam, 0.0)) * np.fft.rfft(z), m)[:n]
            return Profile(spacing, values)
    raise NotPermissibleError(
        f"circulant embedding of {model_id} at n={n}, spacing={spacing} stays indefinite"
        f" up to size {m}: smallest eigenvalue {float(lam.min())!r}"
    )


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
