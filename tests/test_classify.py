import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagum import classify as C
from dagum import kernels as K
from dagum import taylor as ta
from dagum.errors import DomainError
from dagum.kernels import PsiEvaluator, spectral_rule
from dagum.models import catalog_function
from dagum.numerics import maximize_1d

PI = math.pi


def dense_grid_psi_max(beta: float, step: float = 1e-4) -> float:
    ev = PsiEvaluator(beta)
    ts = np.arange(0.0, C.scan_range(beta), step)
    return float(np.max(ev.psi_values(ts)))


def test_psi_max_endpoints_and_interior():
    assert C.psi_max(1.0) == 1.0
    assert C.psi_max(2.0) == 2.0
    value = C.psi_max(1.5)
    assert 1.0 < value <= 4.0 / 1.5
    assert value == pytest.approx(dense_grid_psi_max(1.5), abs=1e-7)


# 1.9999: the humps near pi and 3 pi are almost equally high; 1.0027: the
# peak (t ~ 10) sits inside the first cell of a uniform grid up to t ~ 1100
PSI_MAX_BETAS = np.concatenate(
    [
        1.0 + np.geomspace(1e-6, 1e-2, 50),
        2.0 - np.geomspace(1e-7, 1e-2, 50),
        np.linspace(1.0, 2.0, 26)[1:-1],
        [1.9999, 1.0027],
    ]
)


def test_psi_max_against_golden_section_oracle(psi_objective):
    for beta in map(float, PSI_MAX_BETAS):
        ev, hi = spectral_rule(beta), C.scan_range(beta)
        value = C.psi_max(beta)
        oracle = maximize_1d(psi_objective(ev), 0.0, hi, 1e-9)[1]
        assert value >= oracle - 1e-12, beta
        if value > oracle + 1e-6:
            # near beta = 2 golden-section can refine the lower of two humps
            # (at 2 - 2.02e-7 by 1.008e-6); then each half-range on its own
            halves = ((0.0, hi / 2), (hi / 2, hi))
            oracle = max(maximize_1d(psi_objective(ev), *half, 1e-9)[1] for half in halves)
        assert value <= oracle + 1e-6, beta


def test_l_of_beta():
    assert C.l_of_beta(1.0) == 0.0
    assert C.l_of_beta(2.0) == pytest.approx(2.0)
    assert C.l_of_beta(1.5) == pytest.approx(1.5 * (C.psi_max(1.5) - 1.0), rel=1e-12)


def test_beta_star():
    # 1.738005447409384366 to 25 digits; the solve runs to float spacing
    star = C.beta_star()
    assert abs(star - 1.738005447409384366) <= 1e-13
    assert C.l_of_beta(star) == pytest.approx(1.0, abs=1e-13)


def test_c_bounds():
    assert C.c_bounds(2.0, 1e-3) == C.c_bounds(2.0, 0.05) == (1.0, 1.0)  # c(2) = 1, Lemma 1
    lo, hi = C.c_bounds(1.5, 1e-3)
    assert lo > 0.0
    assert lo <= hi <= 0.75
    lo, hi = C.c_bounds(1.2, 1e-3)
    assert hi <= 0.6
    with pytest.raises(DomainError):
        C.c_bounds(1.0, 1e-3)


def test_c_bounds_stops_at_float_spacing(monkeypatch):
    # a tolerance below the spacing of floats ends where the midpoint no
    # longer falls strictly inside the bracket
    scans = []
    real = C.eta_negative_witness

    def counted(alpha, beta):
        scans.append(alpha)
        assert len(scans) <= 100, "c_bounds is still bisecting"
        return real(alpha, beta)

    monkeypatch.setattr(C, "eta_negative_witness", counted)
    lo, hi = C.c_bounds(1.5, alpha_tol=1e-300)
    assert 0.0 < lo < hi <= 0.75
    assert not lo < 0.5 * (lo + hi) < hi


def _record_jets(monkeypatch):
    """Patch ``classify.psi_jets`` so that every jet it hands out records its
    calls into the returned list as (order, betas, ts, which, values)."""
    real, calls = C.psi_jets, []

    def psi_jets(betas, decays, weights, order, *args):
        jet = real(betas, decays, weights, order, *args)

        def record(ts, which=None):
            out = jet(ts, which)
            calls.append((order, betas.copy(), np.array(ts), None if which is None else np.array(which), out))
            return out

        return record

    monkeypatch.setattr(C, "psi_jets", psi_jets)
    return calls


def test_psi_max_roots_reuse_scanned_phi(monkeypatch):
    # Newton starts inside each scan cell, whose ends the scan already holds;
    # after the scan, no scan point is evaluated again
    beta = 1.9337
    calls = _record_jets(monkeypatch)
    assert 1.0 < C.psi_max(beta) <= 4.0 / beta
    (scan,), later = [c[2] for c in calls if c[0] == 1], [c[2] for c in calls if c[0] != 1]
    assert calls[0][0] == 1 and scan.size == 127 and later
    assert not np.isin(np.concatenate(later), scan).any()


def test_psi_max_scans_psi_and_phi_from_one_block(monkeypatch):
    # the scan is one order-1 jet call, and every Newton step is one call of
    # an order-2 jet with one point in each cell still open, all cells at the
    # first step; no rule object's psi or phi is called
    beta = 1.9337
    for name in ("psi_jet", "psi_values", "phi_values"):
        monkeypatch.setattr(K.PsiEvaluator, name, lambda *a: pytest.fail("a separate psi or phi call"))
    calls = _record_jets(monkeypatch)
    C.psi_max(beta)
    (scan_order, _, ts, _, (_, phis)), *steps = calls
    cells = np.flatnonzero((phis[:-1] > 0.0) & (phis[1:] <= 0.0))
    assert scan_order == 1 and cells.size == 2 and steps
    sizes = []
    for order, betas, t, which, _ in steps:
        cell = np.searchsorted(ts, t) - 1
        assert order == 2 and np.isin(cell, cells).all() and np.unique(cell).size == t.size
        assert betas.tolist() == [beta] and np.array_equal(which, np.zeros(t.size))  # the one beta's rule
        sizes.append(t.size)
    assert sizes[0] == cells.size and sizes == sorted(sizes, reverse=True)


def test_psi_max_on_a_grid_scans_each_beta_once(monkeypatch):
    # the array form: one 127-point order-1 scan per beta inside (1, 2), one
    # scan call per group, and Newton steps over the open cells of every beta
    # of a group, each cell on its own rule
    betas = np.concatenate([[1.0], np.linspace(1.001, 1.999, 70), [2.0]])
    calls = _record_jets(monkeypatch)
    values = C.psi_max(betas)
    scans = [(group, which) for order, group, _, which, _ in calls if order == 1]
    steps = [which for order, _, _, which, _ in calls if order != 1]
    groups = -(-70 // K.BETA_CACHE_SIZE)
    assert np.concatenate([group for group, _ in scans]).tolist() == betas[1:-1].tolist()
    assert all((np.bincount(which, minlength=group.size) == 127).all() for group, which in scans)
    assert len(scans) == groups and all(order in (1, 2) for order, *_ in calls)
    assert len(steps) <= 12 * groups
    assert max(int(which.max()) for which in steps) == K.BETA_CACHE_SIZE - 1
    assert values[0] == 1.0 and values[-1] == 2.0


def _grid_betas():
    """The figure1 grid at 1001 points, 500 random betas in (1, 2) and 50 points
    within 2.5e-4 of each endpoint, at 2.5e-4 too."""
    rng = np.random.default_rng(18)
    band = 2.5e-4
    return (
        np.linspace(1.0, 2.0, 1001),
        rng.uniform(1.0, 2.0, 500),
        np.linspace(1.0 + band / 50, 1.0 + band, 50),
        np.linspace(2.0 - band, 2.0 - band / 50, 50),
    )


@pytest.mark.parametrize("betas", _grid_betas(), ids=("1001", "random", "band-1", "band-2"))
def test_psi_max_on_a_grid_equals_psi_max_at_each_beta(betas):
    values = C.psi_max(betas)
    assert isinstance(values, np.ndarray) and values.shape == betas.shape
    assert values.tobytes() == np.array([C.psi_max(float(b)) for b in betas]).tobytes()
    assert type(C.psi_max(float(betas[1]))) is float


@pytest.mark.parametrize("bad", (math.nan, 0.999, 2.001, -math.inf))
def test_psi_max_on_a_grid_rejects_any_bad_beta(bad):
    for at in (0, 17, 40):
        betas = np.linspace(1.0, 2.0, 41)
        betas[at] = bad
        with pytest.raises(DomainError):
            C.psi_max(betas)
    with pytest.raises(DomainError):
        C.psi_max(bad)


def test_psi_max_on_overlapping_grids_from_threads():
    # threads on overlapping grids of fresh betas, each with more betas than
    # the rule cache holds, from more threads than cores, get the serial values
    grids = [np.minimum(np.linspace(lo, 2.0, n) + 1e-5, 2.0) for lo, n in ((1.0, 61), (1.3, 57))] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(C.psi_max, grids))
    finally:
        sys.setswitchinterval(interval)
    serial = [C.psi_max(g) for g in grids]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(concurrent, serial))


def test_psi_max_scan_grid_is_the_set_union_without_zero(monkeypatch):
    # the sorted, deduplicated grid equals the sorted set of the uniform and the
    # geometric points, less t = 0
    calls = _record_jets(monkeypatch)
    for beta in np.linspace(1.001, 1.999, 37):
        hi = C.scan_range(float(beta))
        calls.clear()
        C.psi_max(float(beta))
        old = sorted({*np.linspace(0.0, hi, 65), *np.geomspace(1e-2, hi, 64)})
        assert np.array_equal(calls[0][2], old[1:]) and old[0] == 0.0


def test_psi_max_scan_grid_is_built_as_numpy_builds_it():
    # the direct build equals the linspace/geomspace union without 0, bit for
    # bit, on 2000 random betas, the 99 interior figure1 betas and near the
    # ends, every grid of a group built at once in groups of 1, 7 and 32
    betas = np.concatenate(
        [
            np.random.default_rng(27).uniform(1.0, 2.0, 2000),
            np.linspace(1.0, 2.0, 101)[1:-1],
            [1.0 + 1e-6, 2.0 - 1e-7],
        ]
    )
    his = np.array([C.scan_range(beta) for beta in map(float, betas)])
    old = [np.array(sorted({*np.linspace(0.0, hi, 65), *np.geomspace(1e-2, hi, 64)})[1:]) for hi in his]
    for size in (1, 7, 32):
        for start in range(0, his.size, size):
            ts, which = C._scan_grid(his[start : start + size])
            assert np.array_equal(which, np.sort(which))
            for j, row in enumerate(old[start : start + size]):
                assert ts[which == j].tobytes() == row.tobytes(), betas[start + j]
    # a span of 0.64 puts uniform points on geometric ones (0.01 among them):
    # that row alone is deduplicated
    ts, which = C._scan_grid(np.array([his[0], 0.64, his[1]]))
    assert np.bincount(which)[[0, 2]].tolist() == [127, 127] and np.bincount(which)[1] < 127
    for j, hi in enumerate((his[0], 0.64, his[1])):
        row = sorted({*np.linspace(0.0, hi, 65), *np.geomspace(1e-2, hi, 64)})[1:]
        assert ts[which == j].tobytes() == np.array(row).tobytes()


def test_psi_max_matches_oracle_on_figure1_grid(psi_objective):
    # at the 101 figure1 betas, the best of golden-section on each half-range
    for beta in map(float, np.linspace(1.0, 2.0, 101)):
        if beta in (1.0, 2.0):
            assert C.psi_max(beta) == beta
            continue
        ev, hi = spectral_rule(beta), C.scan_range(beta)
        halves = ((0.0, hi / 2), (hi / 2, hi))
        oracle = max(maximize_1d(psi_objective(ev), *half, 1e-9)[1] for half in halves)
        assert abs(C.psi_max(beta) - oracle) <= 1e-13, beta


def test_psi_max_newton_steps_are_few(monkeypatch):
    # bracketed Newton ends within 12 steps, even within 1e-6 of the endpoints
    calls = _record_jets(monkeypatch)
    for beta in map(float, PSI_MAX_BETAS):
        calls.clear()
        C.psi_max(beta)
        (scan, *steps) = [order for order, *_ in calls]
        assert scan == 1 and 1 <= len(steps) <= 12, beta
        assert all(order == 2 for order in steps), beta


WITNESS_CASES = ((0.0, 1.5), (0.05, 1.5), (0.2, 1.9), (0.1, 1.738), (0.3, 1.3), (0.6, 1.5))


def _scan_returning(monkeypatch, make):
    """Patch ``PsiEvaluator.eta_scan`` to return ``make`` of its true values."""
    real = K.PsiEvaluator.eta_scan
    monkeypatch.setattr(K.PsiEvaluator, "eta_scan", lambda ev, *args: make(real(ev, *args)))


def test_eta_witness_does_not_see_scan_noise(monkeypatch):
    # scan values move by up to 7e-15 between BLAS thread counts; noise of
    # 1e-14 changes neither the verdict nor the certificate
    rng = np.random.default_rng(14)
    for alpha, beta in WITNESS_CASES:
        ref = C.eta_negative_witness(alpha, beta)
        for _ in range(3):
            _scan_returning(monkeypatch, lambda v: v + rng.uniform(-1e-14, 1e-14, v.size))
            assert C.eta_negative_witness(alpha, beta) == ref, (alpha, beta)
            monkeypatch.undo()


def test_eta_witness_decides_near_ties_on_einsum_values(monkeypatch):
    # two equal scan minima far apart, either one lower by 1e-14, and a minimum
    # 1e-14 to either side of the threshold: the einsum values decide each one
    for alpha, beta in WITNESS_CASES:
        ref = C.eta_negative_witness(alpha, beta)
        vals = K.spectral_rule(beta).eta_scan(alpha)
        i = int(np.argmin(vals))
        j = (i + 2048) % 4096

        def tie(v, lower):
            v[j] = v[i]
            v[lower] -= 1e-14
            return v

        def at_threshold(v, delta):
            return v - v[i] + C.ETA_NEGATIVE_THRESHOLD + delta

        fakes = [lambda v, k=k: tie(v, k) for k in (i, j)]
        fakes += [lambda v, e=e: at_threshold(v, e) for e in (1e-14, -1e-14)]
        for fake in fakes:
            _scan_returning(monkeypatch, fake)
            assert C.eta_negative_witness(alpha, beta) == ref, (alpha, beta)
            monkeypatch.undo()


def _witness_on_eta_grid(alpha, beta):
    # eta_negative_witness with its coarse scan taken from eta_grid, as the
    # direct Laplace sums compute it, on the one sign-scan grid
    ts = K.eta_scan_grid(beta)
    vals = K.eta_grid(alpha, beta, ts)
    i = int(np.argmin(vals))
    if vals[i] >= C.ETA_NEGATIVE_THRESHOLD:
        return None
    fine = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)], 64)
    fvals = K.eta_grid(alpha, beta, fine)
    j = int(np.argmin(fvals))
    return C.Certificate("eta_sign", float(fine[j]), None, float(fvals[j]))


def test_eta_witness_matches_eta_grid_scan_near_c_bounds():
    # 60 pairs within 1e-3 of a c-bracket end, where the scan minimum is
    # closest to the threshold; the certificates must agree exactly
    found = 0
    for beta in np.linspace(1.12, 1.93, 10):
        beta = float(beta)
        for end in C.c_bounds(beta, 1e-3):
            for offset in (-7e-4, 1e-4, 9e-4):
                alpha = end + offset
                witness = C.eta_negative_witness(alpha, beta)
                assert witness == _witness_on_eta_grid(alpha, beta), (alpha, beta)
                found += witness is not None
    assert 0 < found < 60


# The classification truth table: the theorem-tagged cases return the stated
# status and citation; (1.9, 0.4), which no theorem covers, is settled by a
# derivative-sign certificate (independently verified below).
TRUTH_TABLE = [
    ("aux_cm", (0.0, 2.0), "ProvenNotCM", C.CITE_LEMMA1),
    ("aux_cm", (3.0, 0.7), "ProvenCM", C.CITE_T3I),
    ("aux_lcm", (2.0, 2.0), "ProvenLCM", C.CITE_T6II),
    ("aux_lcm", (1.9, 2.0), "ProvenNotLCM", C.CITE_T6II),
    ("aux_lcm", (5.0, 0.3), "ProvenLCM", C.CITE_T6I),
    ("dagum", (0.5, 1.0), "ProvenCM", C.CITE_T9I),
    ("dagum", (1.5, 2.0 / 3.0), "ProvenNotCM", C.CITE_EQ415),
    ("dagum", (3.0, 0.2), "ProvenNotCM", C.CITE_T9_NECESSITY),
    ("g", (1.0, 0.5), "ProvenCM", C.CITE_R4["iii"]),
    ("g", (0.5, 0.5), "ProvenNotCM", C.CITE_R4["v"]),
    ("g", (2.0, 1.0), "ProvenCM", C.CITE_R4["ii"]),
    # 1 <= alpha < 2 lambda < 2: only the product rule covers it; below alpha = 1 it stays open
    ("g", (1.2, 0.9), "ProvenCM", C.CITE_R4_PRODUCT),
    ("g", (1.0 + 1e-9, 0.5 + 1e-9), "ProvenCM", C.CITE_R4_PRODUCT),
    ("g", (1.0 - 1e-9, 0.6), "Undetermined", C.NUMERIC_BASIS),
    # -rho'/(2g) at b = 2 is the g point (1 - 2g, 1 + g), refuted by Remark 4(iv)
    ("dagum", (2.0, 0.2), "ProvenNotCM", C.CITE_R4IV_RHO),
]

_CLASSIFIERS = {
    "aux_cm": C.classify_aux_cm,
    "aux_lcm": C.classify_aux_lcm,
    "dagum": C.classify_dagum,
    "g": C.classify_g,
}


@pytest.mark.parametrize("family,args,status,citation", TRUTH_TABLE)
def test_truth_table(family, args, status, citation):
    verdict = _CLASSIFIERS[family](*args)
    assert verdict.status == status
    assert verdict.basis == citation


def test_tol_bands_are_undetermined_with_proven_edges():
    # alpha within +/-tol of l(b), and gamma within +/-tol of (1 - l)/(b + l),
    # read Undetermined; 2e-6 off the threshold, past tol = 1e-6, they do not
    ell = C.l_of_beta(1.5)
    assert ell == pytest.approx(0.45029309275110285, abs=1e-12)
    verdict = C.classify_aux_lcm(ell, 1.5)
    assert (verdict.status, verdict.basis) == ("Undetermined", C.NUMERIC_BASIS)
    assert "within +/-1e-06" in verdict.notes
    assert C.classify_aux_lcm(ell + 2e-6, 1.5).status == "ProvenLCM"
    assert C.classify_aux_lcm(ell - 2e-6, 1.5).status == "ProvenNotLCM"
    cap = (1.0 - ell) / (1.5 + ell)
    verdict = C.classify_dagum(1.5, cap)
    assert (verdict.status, verdict.basis) == ("Undetermined", C.NUMERIC_BASIS)
    assert "within +/-1e-06" in verdict.notes
    verdict = C.classify_dagum(1.5, cap - 2e-6)
    assert (verdict.status, verdict.basis) == ("ProvenCM", C.CITE_T9III)


@pytest.mark.parametrize("gamma", (1e-300, 1e-17, 1e-6, 0.01, 0.2, 0.45, 0.5 - 1e-9))
def test_dagum_at_beta_two_is_refuted_by_theorem_without_a_scan(monkeypatch, gamma):
    # 1 - 2g < 1 < 1 + g holds for every g > 0; at g = 1e-17 both round to 1.0,
    # where classify_g(1.0, 1.0) is ProvenCM by Remark 4(iii)
    monkeypatch.setattr(C, "cm_scan", lambda *a: pytest.fail("a derivative scan at b = 2"))
    verdict = C.classify_dagum(2.0, gamma)
    assert (verdict.status, verdict.basis, verdict.certificate) == ("ProvenNotCM", C.CITE_R4IV_RHO, None)


def test_dagum_open_region_certificate_is_genuine():
    verdict = C.classify_dagum(1.9, 0.4)
    assert verdict.status == "ProvenNotCM"
    assert verdict.basis == C.NUMERIC_BASIS
    cert = verdict.certificate
    assert cert is not None and cert.kind == "derivative_sign"
    assert cert.value < 0.0
    # independent high-precision oracle for the flagged derivative
    mp.mp.dps = 30
    b, g = mp.mpf("1.9"), mp.mpf("0.4")
    f = lambda x: x ** (b * g - 1) / (1 + x**b) ** (g + 1)  # noqa: E731
    oracle = (-1) ** cert.order * mp.diff(f, mp.mpf(cert.location), cert.order)
    assert float(oracle) == pytest.approx(cert.value, rel=1e-6)


def test_aux_cm_refutation_scan():
    verdict = C.classify_aux_cm(0.05, 1.5)
    assert verdict.status == "ProvenNotCM"
    assert verdict.certificate is not None
    assert verdict.certificate.kind == "eta_sign"
    assert verdict.certificate.value < 0.0


@pytest.mark.parametrize("alpha,beta", ((0.99980001, 1.9998), (0.99994, 1.9999), (0.999994, 1.99999)))
def test_aux_cm_near_two_is_not_refuted_by_sin(alpha, beta):
    # with sin t (phi_2) for phi_b, eta dips to -7.0e-4, -2.1e-4 and -2.1e-5
    # near t = 6 pi, where the series gives eta > 0: no witness may come of it
    assert C.classify_aux_cm(alpha, beta).status == "Undetermined"


def test_aux_cm_near_two_certificate_matches_the_series(eta_series):
    verdict = C.classify_aux_cm(0.9995, 1.9998)
    cert = verdict.certificate
    assert verdict.status == "ProvenNotCM" and cert.kind == "eta_sign"
    assert cert.location == pytest.approx(6.28238, abs=1e-5)
    assert cert.value == pytest.approx(-3.27612652556e-4, abs=1e-14)
    assert abs(cert.value - eta_series(0.9995, 1.9998, cert.location)) <= 1e-10


def test_aux_cm_undetermined_band():
    # between the eta-refutable region and the beta/2 guarantee
    verdict = C.classify_aux_cm(0.5, 1.5)
    assert verdict.status == "Undetermined"
    assert "c(1.5)" in verdict.notes


def test_cm_monotonicity_in_alpha():
    for beta in (0.5, 1.3, 1.8, 2.0):
        ladder = [0.0, 0.2, 0.5, 0.9, 1.1, 2.0]
        statuses = [C.classify_aux_cm(a, beta).status for a in ladder]
        seen_cm = False
        for s in statuses:
            if seen_cm:
                assert s == "ProvenCM"
            seen_cm = seen_cm or s == "ProvenCM"


def test_lcm_monotonicity_in_alpha():
    for beta in (0.5, 1.3, 1.8, 2.0):
        ladder = [0.0, 0.5, 1.0, 1.6, 2.1, 3.0]
        statuses = [C.classify_aux_lcm(a, beta).status for a in ladder]
        seen = False
        for s in statuses:
            if seen:
                assert s == "ProvenLCM"
            seen = seen or s == "ProvenLCM"


def test_lcm_implies_not_refuted_cm():
    for alpha, beta in ((0.5, 0.8), (2.0, 2.0), (1.7, 1.9), (1.0, 1.5)):
        if C.classify_aux_lcm(alpha, beta).status == "ProvenLCM":
            assert C.classify_aux_cm(alpha, beta).status != "ProvenNotCM"


# Betas on every branch of the aux classifiers, the theorem edges 1 and 2 included.
AUX_BETAS = st.sampled_from([1.0, 2.0]) | st.floats(0.0, 2.5)
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@PROPERTY_SETTINGS
@given(beta=AUX_BETAS, alphas=st.lists(st.floats(0.0, 2.5), min_size=2, max_size=2))
def test_aux_cm_never_proven_then_refuted_as_alpha_grows(beta, alphas):
    lo, hi = sorted(alphas)
    if C.classify_aux_cm(lo, beta).status == "ProvenCM":
        assert C.classify_aux_cm(hi, beta).status != "ProvenNotCM"


@PROPERTY_SETTINGS
@given(alpha=st.floats(0.0, 3.0), beta=AUX_BETAS)
def test_proven_lcm_is_never_refuted_cm(alpha, beta):
    if C.classify_aux_lcm(alpha, beta).status == "ProvenLCM":
        assert C.classify_aux_cm(alpha, beta).status != "ProvenNotCM"


def test_gap_band_l_exceeds_half_beta(coarse_table):
    star = coarse_table.beta_star
    grid = coarse_table.beta_grid
    sel = grid >= star
    assert np.all(coarse_table.l_values[sel] > grid[sel] / 2.0)


def test_l_scaling_inequality(coarse_table):
    betas = coarse_table.beta_grid
    ls = coarse_table.l_values
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            if betas[i] <= 1.0:
                continue
            assert ls[i] <= (betas[i] / betas[j]) * ls[j] + 1e-7


def test_proven_cm_dagum_consistent_with_scan():
    for beta, gamma in ((0.5, 1.0), (0.8, 0.6), (1.2, 0.1)):
        verdict = C.classify_dagum(beta, gamma)
        if verdict.status == "ProvenCM":
            assert C.cm_scan("reduced_dagum", {"beta": beta, "gamma": gamma}) is None


def test_cm_scan_examples():
    cert = C.cm_scan("aux", {"alpha": 0.0, "beta": 2.0}, 2, [0.1, 0.5, 1.0])
    assert cert is not None and cert.order == 2 and cert.location == 0.1
    x0 = 0.1
    closed_form = (6.0 * x0**2 - 2.0) / (1.0 + x0**2) ** 3
    assert cert.value == pytest.approx(closed_form, rel=1e-9)

    assert C.cm_scan("aux", {"alpha": 1.0, "beta": 1.0}, 6, np.geomspace(0.01, 10, 32)) is None

    cert = C.cm_scan("reduced_dagum", {"beta": 1.5, "gamma": 2.0 / 3.0})
    assert cert is not None and cert.order == 2 and cert.location < 0.5


def test_lcm_scan_examples():
    assert C.lcm_scan("aux", {"alpha": 2.0, "beta": 2.0}, 6) is None
    cert = C.lcm_scan("aux", {"alpha": 1.0, "beta": 2.0}, 6)
    assert cert is not None and cert.order <= 6 and cert.value < 0.0
    for alpha in (0.0, 1.0, 4.0):
        assert C.lcm_scan("aux", {"alpha": alpha, "beta": 0.5}, 6) is None


def test_scan_budget_validation():
    with pytest.raises(DomainError):
        C.cm_scan("aux", {"alpha": 0.0, "beta": 2.0}, 1)
    with pytest.raises(DomainError):
        C.cm_scan("aux", {"alpha": 0.0, "beta": 2.0}, 4, [0.0, 1.0])


@pytest.mark.parametrize(
    "expr,params",
    [
        ("reduced_dagum", {"beta": 1.5}),
        ("reduced_dagum", {"beta": 1.5, "gamma": 0.5, "theta": 1.0}),
        ("aux", {"beta": 2.0}),
    ],
)
def test_catalog_parameters_are_checked(expr, params):
    with pytest.raises(DomainError, match="parameters"):
        C.cm_scan(expr, params)


def scan_oracle(expr, params, max_order=C.DEFAULT_SCAN_ORDER, x_grid=C.DEFAULT_SCAN_GRID, log=False):
    """cm_scan (lcm_scan with ``log``) one grid point and one order at a time."""
    if max_order < 2:
        raise DomainError("max_order must be >= 2")
    fn = catalog_function(expr, params)
    for x in x_grid:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise DomainError("scan grid points must be finite and positive")
        series = ta.taylor_eval(fn, x, max_order + log)
        c = ta.log(series).coeffs if log else series.coeffs
        for n in range(max_order + 1):
            k = n + log  # the coefficient read, and its slack
            mag = max(1.0, max(abs(v) for v in c[: k + 1]))
            slack = 1e-12 * mag * math.factorial(k)
            value = c[n] * math.factorial(n)
            if log:
                value, slack = -(n + 1) * c[n + 1] * math.factorial(n), slack * (n + 1)
            signed = (-1.0) ** n * value
            if signed < -10.0 * slack:
                return C.Certificate("derivative_sign", x, n, signed)
    return None


SCAN_CASES = [
    ("aux", {"alpha": 0.0, "beta": 2.0}, 2, [0.1, 0.5, 1.0]),
    ("aux", {"alpha": 1.0, "beta": 1.0}, 6, np.geomspace(0.01, 10, 32)),
    ("aux", {"alpha": 1.0, "beta": 2.0}, 6, C.DEFAULT_SCAN_GRID),
    ("reduced_dagum", {"beta": 1.5, "gamma": 2.0 / 3.0}, 8, C.DEFAULT_SCAN_GRID),
    ("reduced_dagum", {"beta": 1.9, "gamma": 0.4}, 8, C.DEFAULT_SCAN_GRID),
    ("g", {"alpha": 0.5, "lambda": 0.5}, 8, C.DEFAULT_SCAN_GRID),
    ("cauchy", {"theta": 1.7, "eta": 0.4}, 8, [3.0, 0.02, 40.0]),
    ("aux", {"alpha": 1.0, "beta": 0.0}, 4, []),  # 1/(2x), on an empty grid
]


@pytest.mark.parametrize("log", (False, True))
@pytest.mark.parametrize("expr,params,order,grid", SCAN_CASES)
def test_scans_equal_pointwise_oracle(expr, params, order, grid, log):
    scan = C.lcm_scan if log else C.cm_scan
    assert scan(expr, params, order, grid) == scan_oracle(expr, params, order, grid, log)


@PROPERTY_SETTINGS
@given(beta=st.floats(1.0, 2.0), share=st.floats(0.01, 1.0))
def test_dagum_scan_equals_pointwise_oracle(beta, share):
    # the open region of classify_dagum: bg < 1
    params = {"beta": beta, "gamma": share / beta}
    for log in (False, True):
        scan = C.lcm_scan if log else C.cm_scan
        assert scan("reduced_dagum", params) == scan_oracle("reduced_dagum", params, log=log)


@pytest.mark.parametrize("log", (False, True))
@pytest.mark.parametrize("grid", ([math.nan, 1.0], [0.0], [-1.0, 2.0], [math.inf]))
def test_scan_bad_grids_match_oracle(grid, log):
    scan = C.lcm_scan if log else C.cm_scan
    for fn in (scan, lambda *a: scan_oracle(*a, log=log)):
        with pytest.raises(DomainError, match="grid points"):
            fn("reduced_dagum", {"beta": 1.5, "gamma": 0.3}, 8, grid)


def test_threshold_table_invariants(coarse_table):
    t = coarse_table
    assert np.all(np.diff(t.l_values) > 0.0)
    ratios = t.l_values / t.beta_grid
    assert np.all(np.diff(ratios) >= -1e-9)
    assert np.all(t.psi_values >= 1.0 - 1e-12)
    assert np.all(t.psi_values <= 4.0 / t.beta_grid + 1e-12)
    assert np.all(np.diff(t.psi_values) >= -1e-9)
    assert 1.70 <= t.beta_star <= 1.78


def test_c_bounds_on_a_beta_grid():
    for beta in map(float, np.linspace(1.2, 2.0, 11)):
        lower, upper = C.c_bounds(beta, 5e-3)
        assert 0.0 < lower <= upper <= beta / 2.0, beta
        # c <= l with scan fuzz no larger than the bisection resolution
        assert upper <= C.l_of_beta(beta) + 2.0 * 5e-3, beta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(st.floats(0.0, 5.0), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
    st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.5, 0.75, 1.0, 1.5])),
)
def test_g_product_rule_keeps_remark_4_labels(alpha, lam):
    # x^-(alpha-1) is CM for alpha >= 1, so for lambda <= 1 the g function is
    # a product of CM functions: never ProvenNotCM; a point that a Remark 4
    # branch labels keeps that label
    verdict = C.classify_g(alpha, lam)
    labelled = (
        (alpha == 1.0 and lam <= 1.0, "iii"),
        (alpha >= 2.0 * lam, "ii"),
        (alpha >= lam >= 1.0, "i"),
        (alpha < lam, "iv"),
        (alpha == lam and 0.0 < alpha < 1.0, "v"),
    )
    label = next((C.CITE_R4[k] for applies, k in labelled if applies), None)
    if alpha >= 1.0 and lam <= 1.0:
        assert verdict.status == "ProvenCM"
        assert verdict.basis == (label or C.CITE_R4_PRODUCT)
    elif label is not None:
        assert verdict.basis == label
    else:
        assert verdict.status == "Undetermined"


def test_verdict_serialization_field_names():
    verdict = C.classify_aux_cm(0.05, 1.5)
    payload = json.loads(verdict.to_json())
    assert set(payload) == {"status", "basis", "certificate", "notes"}
    assert set(payload["certificate"]) == {"kind", "location", "order", "value"}
    clean = C.classify_g(2.0, 1.0)
    assert json.loads(clean.to_json())["certificate"] is None


def test_classifier_domain_errors():
    with pytest.raises(DomainError):
        C.classify_dagum(0.0, 1.0)
    with pytest.raises(DomainError):
        C.classify_aux_cm(-0.1, 1.0)
    with pytest.raises(DomainError):
        C.classify_g(-1.0, 0.5)


def test_psi_max_concurrent_matches_serial():
    # fresh betas, each asked for twice, from more threads than cores
    betas = [1.311, 1.472, 1.623, 1.311, 1.834, 1.472, 1.623, 1.834]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            rules = list(pool.map(spectral_rule, betas[::-1]))
            concurrent = list(pool.map(C.psi_max, betas))
    finally:
        sys.setswitchinterval(interval)
    by_beta = {}
    for b, rule in zip(betas[::-1], rules):
        assert by_beta.setdefault(b, rule) is rule  # one cached rule per beta
    assert concurrent == [C.psi_max(b) for b in betas]


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_classifiers_reject_non_finite(bad):
    for fn, args in (
        (C.classify_aux_cm, (bad, 1.5)),
        (C.classify_aux_cm, (0.3, bad)),
        (C.classify_aux_lcm, (bad, 1.5)),
        (C.classify_dagum, (1.5, bad)),
        (C.classify_g, (bad, 0.5)),
    ):
        with pytest.raises(DomainError):
            fn(*args)


@pytest.mark.parametrize("scan", (C.cm_scan, C.lcm_scan))
@pytest.mark.parametrize("bad", (math.nan, math.inf, 0.0))
def test_scan_grid_points_must_be_finite_and_positive(scan, bad):
    with pytest.raises(DomainError, match="grid points"):
        scan("reduced_dagum", {"beta": 1.5, "gamma": 0.3}, x_grid=(bad, 1.0))


@pytest.mark.parametrize("alpha_tol", (math.nan, math.inf, 0.0, -1e-3))
def test_c_bounds_alpha_tol_must_be_finite_and_positive(alpha_tol):
    with pytest.raises(DomainError, match="alpha_tol"):
        C.c_bounds(1.5, alpha_tol=alpha_tol)


@pytest.mark.parametrize("tol", (math.nan, math.inf, 0.0, -1e-6, -1.0))
def test_classifier_tol_must_be_finite_and_positive(tol):
    # a negative tol would turn the Undetermined band inside out: at these
    # points tol = -1 would give ProvenCM (Theorem 9(iii)) and ProvenLCM (Eq. (4.2))
    assert C.classify_dagum(1.5, 0.6).status == "ProvenNotCM"
    assert C.classify_aux_lcm(0.3, 1.5).status == "ProvenNotLCM"
    for classify, args in ((C.classify_dagum, (1.5, 0.6)), (C.classify_aux_lcm, (0.3, 1.5)),
                           (C.classify_dagum, (3.0, 1.0)), (C.classify_aux_lcm, (1.0, 0.5))):
        with pytest.raises(DomainError, match="tol"):
            classify(*args, tol=tol)


def test_eta_witness_never_from_nan():
    assert C.eta_negative_witness(math.nan, 1.5) is None


@pytest.mark.parametrize("beta", (0.0, math.inf, -1.0, 0.5, math.nan))
def test_eta_witness_checks_beta_first(beta):
    with pytest.raises(DomainError, match="beta"):
        C.eta_negative_witness(0.5, beta)


@pytest.mark.parametrize("alpha", (0.0, 0.3, 1.0))
def test_eta_witness_at_beta_one_scans_nothing(alpha, monkeypatch):
    # 1/(x^a (1+x)) is CM (Theorem 3(i)); sin(pi/1) rounds to 1.2e-16, so a
    # grid built at b = 1 would span [0, 1.5e17] and look at nothing
    def no_scan(*args):
        raise AssertionError("a scan ran at beta = 1")

    for name in ("eta_grid", "phi_callable", "eta_scan_grid", "spectral_rule"):
        monkeypatch.setattr(C, name, no_scan)
    assert C.eta_negative_witness(alpha, 1.0) is None


@pytest.mark.parametrize("beta", (1.0 + 1e-9, 1.0 + 1e-12, 1.0000000000000002))
def test_eta_scans_keep_no_node_just_above_beta_one(beta):
    # below b = 1 + 4.88e-9 the scan step h is past 1.5e5 and h d > 746 at
    # every node: the held basis has no node, and the scan is the residue and
    # power-law terms alone, as eta_values and phi_values give them
    rule, ts = spectral_rule(beta), K.eta_scan_grid(beta)
    assert (float(ts[1]) * rule._decay > 746.0).all()
    for alpha in (0.0, 0.3, 1.0):
        ref = rule.eta_values(alpha, ts) if alpha else rule.phi_values(ts)
        assert np.max(np.abs(rule.eta_scan(alpha) - ref)) <= 1e-250, alpha
        assert C.eta_negative_witness(alpha, beta) is None
    assert C.c_bounds(beta, 0.05) == (0.0, beta / 32.0)


def test_verdict_json_is_strict():
    verdict = C.Verdict("ProvenNotCM", C.NUMERIC_BASIS, C.Certificate("eta_sign", 1.0, None, math.nan))
    with pytest.raises(ValueError):
        verdict.to_json()
