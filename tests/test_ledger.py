"""The verdict ledger: the status and basis of every point of four 20 x 20
lattices, one per classified family, pinned in ``verdict_ledger.csv`` and
recomputed on every run; every certificate on them is re-derived by an
oracle that shares no code with the classifiers.

A change that decides more points regenerates the file with
``PYTHONPATH=src python tests/test_ledger.py`` and states which points moved.
"""

import csv
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from dagum import classify as C

LEDGER = Path(__file__).with_name("verdict_ledger.csv")
HEADER = ["family", "arg1", "arg2", "status", "basis"]


def lattice(family: str) -> list:
    """The 400 argument pairs of ``family``'s classifier, in its argument
    order; q = linspace(0.025, 0.975, 20) spans the undecided direction."""
    q = np.linspace(0.025, 0.975, 20).tolist()
    betas = np.linspace(1.025, 1.975, 20).tolist()
    if family == "dagum":  # (beta, gamma), beta gamma < 1
        return [(b, qj / b) for b in betas for qj in q]
    if family == "aux-cm":  # (alpha, beta), alpha < beta/2
        return [(qj * b / 2.0, b) for b in betas for qj in q]
    if family == "aux-lcm":  # (alpha, beta), alpha < 2
        return [(2.0 * qj, b) for b in betas for qj in q]
    lams = np.linspace(0.05, 1.95, 20).tolist()  # (alpha, lambda), lambda < alpha < 2 lambda
    return [(lam * (1.0 + qj), lam) for lam in lams for qj in q]


def classify_lattices() -> list:
    """``(family, args, verdict)`` for every lattice point, families in CLI order."""
    return [
        (family, args, classifier(*args))
        for family, (classifier, _, _) in C.CLASSIFIERS.items()
        for args in lattice(family)
    ]


def ledger_rows(verdicts) -> list:
    return [[f, repr(a), repr(b), v.status, v.basis] for f, (a, b), v in verdicts]


@pytest.fixture(scope="module")
def verdicts():
    return classify_lattices()


def test_ledger_matches_the_classifiers(verdicts):
    with LEDGER.open(newline="") as fh:
        header, *pinned = list(csv.reader(fh))
    assert header == HEADER
    now = ledger_rows(verdicts)
    assert len(pinned) == len(now) == 1600
    moved = [(old, new) for old, new in zip(pinned, now) if old != new]
    assert not moved, f"{len(moved)} points differ from the ledger, first {moved[:5]}"


# CM and LCM are closed upward in alpha: x^-delta is LCM, and products keep
# both classes.  No such order is known in gamma for the Dagum family.
_UPWARD_CLOSED = {
    "aux-cm": ("ProvenCM", "ProvenNotCM"),
    "aux-lcm": ("ProvenLCM", "ProvenNotLCM"),
    "g": ("ProvenCM", "ProvenNotCM"),
}


@pytest.mark.parametrize("family", sorted(_UPWARD_CLOSED))
def test_no_proven_point_below_a_refuted_one_in_alpha(verdicts, family):
    proven, refuted = _UPWARD_CLOSED[family]
    lowest_proven, highest_refuted = {}, {}
    for f, (alpha, fixed), v in verdicts:
        if f != family:
            continue
        if v.status == proven:
            lowest_proven[fixed] = min(alpha, lowest_proven.get(fixed, math.inf))
        elif v.status == refuted:
            highest_refuted[fixed] = max(alpha, highest_refuted.get(fixed, -math.inf))
    for fixed, alpha in highest_refuted.items():
        assert alpha < lowest_proven.get(fixed, math.inf), (family, fixed)


# Bernstein composition: f(x^theta) is CM (LCM) for a CM (LCM) f and
# 0 < theta <= 1 (Schilling, Song & Vondracek, Bernstein Functions, Thm. 3.7).
# 1/(x^a (1+x^b)) at x^theta is the point (theta a, theta b), on the ray
# alpha/b = const, and the Dagum rho_{b,g}(x^theta) is rho_{theta b, g}.


def test_l_over_beta_is_nondecreasing_on_the_figure1_grid():
    table = C.ThresholdTable.build()  # figure1's 101-point grid
    assert np.all(np.diff(table.l_values / table.beta_grid) >= 0.0)


def test_c_bounds_over_beta_admit_a_nondecreasing_function():
    # c(b)/b is nondecreasing, so each lower end over b lies below every
    # upper end over b to its right
    betas = np.linspace(1.05, 1.95, 19).tolist()
    ends = [(lo / b, hi / b) for b in betas for lo, hi in [C.c_bounds(b, 1e-3)]]
    assert all(ends[i][0] <= ends[j][1] for i in range(19) for j in range(i, 19))


@pytest.mark.parametrize("family", ("aux-cm", "aux-lcm"))
def test_no_proven_point_above_a_refuted_one_on_a_ray(verdicts, family):
    # proven at (a, b) holds at (a b'/b, b') for b' <= b, and then at every
    # larger alpha: so no refuted (a', b') with b' <= b and a'/b' >= a/b (on
    # the aux-cm lattice each column is one ray)
    proven, refuted = _UPWARD_CLOSED[family]
    rays = {proven: [], refuted: []}
    for f, (alpha, beta), v in verdicts:
        if f == family and v.status in rays:
            rays[v.status].append((alpha / beta, beta))
    bad = [(p, q) for p in rays[proven] for q in rays[refuted]
           if q[1] <= p[1] and q[0] >= p[0] * (1.0 - 1e-12)]
    assert not bad, bad[:5]


def test_no_dagum_cm_point_above_a_refuted_one_in_beta(verdicts):
    # at fixed gamma, CM at b holds at every b' <= b; the lattice's gamma =
    # q / b repeats on 12 sets of points, equal up to rounding
    points = {"ProvenCM": [], "ProvenNotCM": []}
    for f, (beta, gamma), v in verdicts:
        if f == "dagum" and v.status in points:
            points[v.status].append((gamma, beta))
    bad = [(p, q) for p in points["ProvenCM"] for q in points["ProvenNotCM"]
           if abs(q[0] - p[0]) <= 1e-12 * p[0] and q[1] <= p[1]]
    assert not bad, bad[:5]


def _oracle_gap(family: str, args, cert, eta_series) -> str:
    """Why the oracle rejects ``cert``, or "" when it confirms it."""
    if cert.kind == "eta_sign":
        alpha, beta = args
        series = eta_series(alpha, beta, cert.location)
        if series < 0.0 and abs(cert.value - series) <= 1e-10:
            return ""
        return f"60-digit series {series!r}"
    if cert.kind == "derivative_sign" and family == "dagum":
        with mpmath.workdps(40):
            b, g = mpmath.mpf(args[0]), mpmath.mpf(args[1])
            f = lambda x: x ** (b * g - 1) / (1 + x**b) ** (g + 1)  # noqa: E731
            n = cert.order
            signed = (-1) ** n * mpmath.diff(f, mpmath.mpf(cert.location), n)
            if signed < 0 and abs(signed - cert.value) <= 1e-6 * abs(signed):
                return ""
            return f"40-digit mpmath.diff {mpmath.nstr(signed, 12)}"
    return "no oracle for this kind"


def test_every_certificate_is_confirmed_by_an_oracle(verdicts, eta_series):
    certified = [(f, args, v.certificate) for f, args, v in verdicts if v.certificate]
    assert {c.kind for _, _, c in certified} == {"eta_sign", "derivative_sign"}
    rejected = [
        (f, args, cert, gap)
        for f, args, cert in certified
        if (gap := _oracle_gap(f, args, cert, eta_series))
    ]
    assert not rejected, f"{len(rejected)} of {len(certified)} rejected, first {rejected[:3]}"


if __name__ == "__main__":
    with LEDGER.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER, *ledger_rows(classify_lattices())])
