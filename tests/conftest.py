import numpy as np
import pytest

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
def psi_objective():
    """rule -> the golden-section oracles' objective, psi_b on that rule: a
    float at one t and an array on an array of t, as ``maximize_1d`` calls it."""

    def objective(rule):
        return lambda t: rule.psi_values(t) if np.ndim(t) else float(rule.psi_values(t)[0])

    return objective
