import itertools

import numpy as np
import pytest

from dagum import fields as F
from dagum.classify import ThresholdTable


@pytest.fixture(scope="session")
def coarse_table() -> ThresholdTable:
    """Shared 21-point threshold table (no c columns)."""
    return ThresholdTable.build(n=21)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[424242]))


@pytest.fixture(scope="session")
def eta_series():
    """60-digit eta_{a,b}(t) = sum_k (-1)^k t^(a+b-1+kb) / Gamma(a+b+kb), summed
    term by term; a = 0 gives phi_b and a = 1 gives psi_b."""
    mpmath = pytest.importorskip("mpmath")

    def series(alpha: float, beta: float, t: float) -> float:
        with mpmath.workdps(60):
            a, b, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(t)
            total, k = mpmath.mpf(0), 0
            while True:
                term = (-1) ** k * t ** (a + b - 1 + k * b) / mpmath.gamma(a + b + k * b)
                total += term
                if k * b > t and abs(term) < mpmath.mpf(10) ** -45:  # past the peak term
                    return float(total)
                k += 1

    return series


@pytest.fixture(scope="session")
def eta_cut():
    """eta_{a,b}(t) for 1 < b <= 2 at any t, also where the series would need
    more digits than e^t has: the residues -(2/b) e^{t cos A} cos(t sin A +
    (1-a) A), A = pi/b, of the poles of s^-a / (1 + s^b), at 30 + log10(t)
    digits, so that the phase keeps 30; the powers t^(a-kb-1) / Gamma(a-kb) of
    its terms (-1)^k s^(kb-a) for kb <= a; and, at 30 digits, the branch-cut
    integral (1/pi) int_0^inf e^{-rt} Im G(r e^{-i pi}) dr of the rest
    G = (-1)^n s^(nb-a) / (1 + s^b), n the first k with kb > a, regular at
    r = 0."""
    mpmath = pytest.importorskip("mpmath")

    def cut(alpha: float, beta: float, t: float) -> float:
        with mpmath.workdps(30 + max(0, int(mpmath.log10(t)))):
            a, b, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(t)
            turn = mpmath.pi / b
            phase = t * mpmath.sin(turn) + (1 - a) * turn
            total = -2 / b * mpmath.exp(t * mpmath.cos(turn)) * mpmath.cos(phase)
        with mpmath.workdps(30):
            n = 0
            while n * b - a <= 0:
                total += (-1) ** n * t ** (a - n * b - 1) * mpmath.rgamma(a - n * b)
                n += 1
            c = n * b - a
            rest = lambda u: mpmath.exp(-u) * mpmath.im(  # noqa: E731
                (u / t) ** c * mpmath.expjpi(-c) / (1 + (u / t) ** b * mpmath.expjpi(-b)))
            total += (-1) ** n * mpmath.quad(rest, [0, 1, 10, 60, mpmath.inf]) / (mpmath.pi * t)
            return float(total)

    return cut


@pytest.fixture(scope="session")
def psi_objective():
    """rule -> the golden-section oracles' objective, psi_b on that rule: a
    float at one t and an array on an array of t, as ``maximize_1d`` calls it."""

    def objective(rule):
        return lambda t: rule.psi_values(t) if np.ndim(t) else float(rule.psi_values(t)[0])

    return objective


SEARCH_CASES = (
    # (model, params, convention): witnesses, at n = 5 and 12 some after trials
    # whose factorization completes
    ("cauchy", {"theta": 1.5, "eta": 1.0}, "squared_distance"),
    ("cauchy", {"theta": 1.05, "eta": 2.0}, "squared_distance"),
    ("g", {"alpha": 0.5, "lambda": 0.5}, "squared_distance"),
    # budgets used up, every factorization completes
    ("dagum", {"beta": 0.5, "gamma": 1.0}, "squared_distance"),
    ("dagum", {"beta": 3.0, "gamma": 0.2}, "squared_distance"),
    ("dagum5", {"gamma": 1.5, "epsilon": 0.6}, "plain_distance"),
    # smooth in 1-D at n = 100: the factorization fails, yet the rule says psd
    ("cauchy", {"theta": 2.0, "eta": 1.0}, "plain_distance"),
    ("cauchy", {"theta": 1.0, "eta": 0.2}, "squared_distance"),
)


@pytest.fixture(scope="session")
def search_cases():
    """``nonpsd_search`` arguments (model, params, d_max, n_points, n_trials,
    seed, convention): each case at n = 5, 12 and 100, d_max 1 and 3, seeds 0
    and 7, 12 trials."""
    return [
        (model_id, params, d_max, n_points, 12, seed, convention)
        for model_id, params, convention in SEARCH_CASES
        for n_points, d_max, seed in itertools.product((5, 12, 100), (1, 3), (0, 7))
    ]


@pytest.fixture(scope="session")
def search_written_out():
    """``nonpsd_search`` with every trial eigen-solved and judged by the psd
    rule, with no screen."""

    def search(model_id, params, d_max, n_points, n_trials, seed, convention):
        for trial in range(n_trials):
            ps = F.random_point_set(trial % d_max + 1, n_points, seed, trial)
            eigs = np.linalg.eigvalsh(F.gram_matrix(model_id, params, ps, convention))
            mn, mx = float(eigs[0]), float(eigs[-1])
            if mn < -F.EIG_TOL * mx:
                report = F.PsdReport(
                    model_id, dict(params), ps.id, convention, n_points, ps.dimension,
                    mn, mx, "indefinite",
                )
                return ps, report
        return None

    return search
