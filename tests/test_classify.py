import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from dagum import classify as C
from dagum.errors import DomainError
from dagum.kernels import PsiEvaluator, spectral_rule
from dagum.numerics import Bracket, maximize_1d

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


def test_psi_max_against_golden_section_oracle():
    for beta in map(float, PSI_MAX_BETAS):
        ev, hi = spectral_rule(beta), C.scan_range(beta)
        value = C.psi_max(beta)
        oracle = maximize_1d(ev.psi, Bracket(0.0, hi), 1e-9)[1]
        assert value >= oracle - 1e-12, beta
        if value > oracle + 1e-6:
            # near beta = 2 golden-section can refine the lower of two humps
            # (at 2 - 2.02e-7 by 1.008e-6); then each half-range on its own
            halves = (Bracket(0.0, hi / 2), Bracket(hi / 2, hi))
            oracle = max(maximize_1d(ev.psi, half, 1e-9)[1] for half in halves)
        assert value <= oracle + 1e-6, beta


def test_l_of_beta():
    assert C.l_of_beta(1.0) == 0.0
    assert C.l_of_beta(2.0) == pytest.approx(2.0)
    assert C.l_of_beta(1.5) == pytest.approx(1.5 * (C.psi_max(1.5) - 1.0), rel=1e-12)


def test_beta_star():
    coarse = C.beta_star(1e-4)
    fine = C.beta_star(1e-6)
    assert 1.70 <= coarse <= 1.78
    assert abs(coarse - fine) <= 1e-3
    assert abs(coarse - fine) <= 1.5e-4  # refinement consistency, 4 decimals
    assert C.l_of_beta(fine) == pytest.approx(1.0, abs=1e-5)


def test_c_bounds():
    lo, hi = C.c_bounds(2.0, 1e-3)
    assert lo <= 1.0 <= hi
    lo, hi = C.c_bounds(1.5, 1e-3)
    assert lo > 0.0
    assert lo <= hi <= 0.75
    lo, hi = C.c_bounds(1.2, 1e-3)
    assert hi <= 0.6
    with pytest.raises(DomainError):
        C.c_bounds(1.0, 1e-3)


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


def test_threshold_table_invariants(coarse_table):
    t = coarse_table
    assert np.all(np.diff(t.l_values) > 0.0)
    ratios = t.l_values / t.beta_grid
    assert np.all(np.diff(ratios) >= -1e-9)
    assert np.all(t.psi_values >= 1.0 - 1e-12)
    assert np.all(t.psi_values <= 4.0 / t.beta_grid + 1e-12)
    assert np.all(np.diff(t.psi_values) >= -1e-9)
    assert 1.70 <= t.beta_star <= 1.78


def test_threshold_table_c_columns():
    table = C.ThresholdTable.build(n=11, lo=1.2, hi=2.0, compute_c=True, alpha_tol=5e-3)
    assert table.c_lower is not None and table.c_upper is not None
    assert np.all(table.c_lower <= table.c_upper)
    assert np.all(table.c_upper <= table.beta_grid / 2.0 + 1e-12)
    assert np.all(table.c_lower > 0.0)
    # c <= l with scan fuzz no larger than the bisection resolution
    assert np.all(table.c_upper <= table.l_values + 2.0 * 5e-3)
    payload = json.loads(table.to_json())
    assert set(payload) == {
        "beta_grid", "psi_max", "l_values", "beta_star", "c_lower", "c_upper",
    }


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
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            C.beta_star(tol)


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


def test_eta_witness_never_from_nan():
    assert C.eta_negative_witness(math.nan, 1.5, n_points=64) is None


def test_verdict_json_is_strict():
    verdict = C.Verdict("ProvenNotCM", C.NUMERIC_BASIS, C.Certificate("eta_sign", 1.0, None, math.nan))
    with pytest.raises(ValueError):
        verdict.to_json()
