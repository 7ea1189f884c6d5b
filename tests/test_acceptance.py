"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criteria and tolerances are pinned here; nothing is deferred to
runtime calibration.
"""

import math
import time

import numpy as np
import pytest

from dagum import classify as C
from dagum import cli
from dagum import fields as F
from dagum import kernels as K

PI = math.pi


@pytest.fixture(scope="module")
def full_table():
    return C.ThresholdTable.build(n=101)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_beta_star_reproduction(tmp_path):
    out = tmp_path / "figure1.csv"
    t0 = time.perf_counter()
    code = cli.main(["figure1", "-o", str(out)])
    elapsed = time.perf_counter() - t0
    lines = out.read_text().strip().split("\n")
    star_line = [ln for ln in lines if ln.startswith("# beta_star,")]
    star = float(star_line[0].split(",")[1]) if star_line else float("nan")
    rows = len([ln for ln in lines[1:] if not ln.startswith("#")])
    ok = code == 0 and rows == 101 and 1.70 <= star <= 1.78 and elapsed < 60.0
    report(1, "beta* reproduction", ok, f"beta*={star:.6f}, {rows} rows, {elapsed:.1f}s")
    assert ok


def test_criterion_02_endpoint_exactness(full_table):
    psi1 = float(full_table.psi_values[0])
    l1 = float(full_table.l_values[0])
    psi2 = float(full_table.psi_values[-1])
    l2 = float(full_table.l_values[-1])
    # interior values approaching the beta -> 2 limit
    psi_near2 = C.psi_max(1.999)
    l_near2 = C.l_of_beta(1.999)
    ok = (
        abs(psi1 - 1.0) <= 1e-6
        and abs(l1) <= 1e-6
        and abs(psi2 - 2.0) <= 1e-3
        and abs(l2 - 2.0) <= 1e-3
        and abs(psi_near2 - 2.0) <= 1e-2
        and abs(l_near2 - 2.0) <= 2e-2
    )
    report(
        2,
        "endpoint exactness",
        ok,
        f"Psi(1)={psi1:.8f}, l(1)={l1:.2e}, Psi(2)={psi2:.6f}, l(2)={l2:.6f}",
    )
    assert ok


def test_criterion_03_threshold_table_invariants(full_table):
    t = full_table
    l_increasing = bool(np.all(np.diff(t.l_values) > 0.0))
    ratio_nondecreasing = bool(np.all(np.diff(t.l_values / t.beta_grid) >= -1e-9))
    psi_bounds = bool(
        np.all(t.psi_values >= 1.0 - 1e-12)
        and np.all(t.psi_values <= 4.0 / t.beta_grid + 1e-12)
    )
    psi_nondecreasing = bool(np.all(np.diff(t.psi_values) >= -1e-9))
    ok = l_increasing and ratio_nondecreasing and psi_bounds and psi_nondecreasing
    report(
        3,
        "threshold-table invariants",
        ok,
        f"l inc={l_increasing}, l/b nondec={ratio_nondecreasing}, "
        f"1<=Psi<=4/b={psi_bounds}, Psi nondec={psi_nondecreasing}",
    )
    assert ok


def test_criterion_04_laplace_and_cross_route():
    betas = (1.1, 1.25, 1.5, 1.75, 1.9)
    xs = (0.5, 1.0, 2.0, 5.0)
    worst_phi = max(K.laplace_check("phi", b, x) for b in betas for x in xs)
    worst_psi = max(K.laplace_check("psi", b, x) for b in betas for x in xs)
    # the two routes: the contour, and the spectral rule every command runs
    worst_phi_route = max(
        abs(K.phi(b, t).value - float(K.phi_callable(b)(t)[0]))
        for b in betas
        for t in (0.5, 2.0, 10.0, 20.0)
    )
    worst_tau_route = max(
        abs(K.tau_kernel(b, t).value
            - (float(K.spectral_rule(b).psi_values(t)[0]) - K.rho_kernel(b, t)))
        for b in betas
        for t in (0.0, 0.5, 2.0, 10.0, 20.0)
    )
    ok = max(worst_phi, worst_psi, worst_phi_route, worst_tau_route) <= 1e-6
    report(
        4,
        "Laplace identities and cross-route agreement",
        ok,
        f"L[phi]={worst_phi:.2e}, L[psi]={worst_psi:.2e}, "
        f"phi routes={worst_phi_route:.2e}, tau routes={worst_tau_route:.2e}",
    )
    assert ok


def test_criterion_05_closed_form_limits():
    ts = np.linspace(0.0, 10.0, 101)
    sup1 = max(abs(K.psi(1.001, float(t)).value - (1.0 - math.exp(-t))) for t in ts)
    ts = np.linspace(0.0, 2.0 * PI, 101)
    sup2 = max(abs(K.psi(1.999, float(t)).value - (1.0 - math.cos(t))) for t in ts)
    ok = sup1 <= 1e-2 and sup2 <= 1e-2
    report(5, "closed-form limits", ok, f"sup@1.001={sup1:.2e}, sup@1.999={sup2:.2e}")
    assert ok


def test_criterion_06_lemma1_witness():
    negatives = {a: K.eta(a, 2.0, 2.0 * PI).value for a in (0.25, 0.5, 0.75)}
    grid = np.linspace(0.0, 6.0 * PI, 4096)
    minima = {a: float(np.min(K.eta_grid(a, 2.0, grid))) for a in (1.0, 1.5)}
    ok = all(v < 0.0 for v in negatives.values()) and all(
        v >= -1e-9 for v in minima.values()
    )
    report(
        6,
        "eta sign witnesses at beta=2",
        ok,
        f"eta(2pi)={ {a: round(v, 6) for a, v in negatives.items()} }, "
        f"scan minima={ {a: round(v, 12) for a, v in minima.items()} }",
    )
    assert ok


def test_criterion_07_classification_truth_table():
    cases = [
        (C.classify_aux_cm, (0.0, 2.0), "ProvenNotCM", C.CITE_LEMMA1),
        (C.classify_aux_cm, (3.0, 0.7), "ProvenCM", C.CITE_T3I),
        (C.classify_aux_lcm, (2.0, 2.0), "ProvenLCM", C.CITE_T6II),
        (C.classify_aux_lcm, (1.9, 2.0), "ProvenNotLCM", C.CITE_T6II),
        (C.classify_aux_lcm, (5.0, 0.3), "ProvenLCM", C.CITE_T6I),
        (C.classify_dagum, (0.5, 1.0), "ProvenCM", C.CITE_T9I),
        (C.classify_dagum, (1.5, 2.0 / 3.0), "ProvenNotCM", C.CITE_EQ415),
        (C.classify_dagum, (3.0, 0.2), "ProvenNotCM", C.CITE_T9_NECESSITY),
        (C.classify_g, (1.0, 0.5), "ProvenCM", C.CITE_R4["iii"]),
        (C.classify_g, (0.5, 0.5), "ProvenNotCM", C.CITE_R4["v"]),
        (C.classify_g, (2.0, 1.0), "ProvenCM", C.CITE_R4["ii"]),
    ]
    failures = []
    for fn, args, status, citation in cases:
        verdict = fn(*args)
        if verdict.status != status or verdict.basis != citation:
            failures.append((fn.__name__, args, verdict.status, verdict.basis))
    # the twelfth tabled case has no covering theorem; the derivative scan
    # settles it with a certificate (independently validated elsewhere)
    open_case = C.classify_dagum(1.9, 0.4)
    open_ok = open_case.status == "ProvenNotCM" and open_case.certificate is not None
    ok = not failures and open_ok
    report(
        7,
        "classification truth table",
        ok,
        f"{len(cases)} theorem-tagged cases, failures={failures or 'none'}; "
        f"(1.9,0.4) -> {open_case.status} by certificate",
    )
    assert ok


def test_criterion_08_numeric_refutations():
    c1 = C.cm_scan("aux", {"alpha": 0.0, "beta": 2.0})
    c2 = C.cm_scan("reduced_dagum", {"beta": 1.5, "gamma": 2.0 / 3.0})
    c3 = C.lcm_scan("aux", {"alpha": 1.0, "beta": 2.0}, 6)
    c4 = C.lcm_scan("aux", {"alpha": 2.0, "beta": 2.0}, 6)
    ok = (
        c1 is not None
        and c1.order == 2
        and c2 is not None
        and c2.order == 2
        and c3 is not None
        and c3.order <= 6
        and c4 is None
    )
    report(
        8,
        "numeric refutations",
        ok,
        f"f_(0,2): n={getattr(c1, 'order', None)}; reduced(1.5,2/3): "
        f"n={getattr(c2, 'order', None)}; lcm f_(1,2): n={getattr(c3, 'order', None)}; "
        f"lcm f_(2,2): {c4}",
    )
    assert ok


PSD_CORPUS = [
    ("dagum", {"beta": 0.5, "gamma": 1.0}, lambda: C.classify_dagum(0.5, 1.0)),
    ("dagum", {"beta": 1.0, "gamma": 1.0}, lambda: C.classify_dagum(1.0, 1.0)),
    ("dagum", {"beta": 1.2, "gamma": 0.1}, lambda: C.classify_dagum(1.2, 0.1)),
    ("dagum5", {"gamma": 1.0, "epsilon": 0.5}, lambda: C.classify_dagum(1.0, 0.5)),
    ("aux", {"alpha": 0.0, "beta": 0.7}, lambda: C.classify_aux_cm(0.0, 0.7)),
]


def test_criterion_09_psd_suite():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    checks = 0
    for model, params, classify in PSD_CORPUS:
        assert classify().status == "ProvenCM", (model, params)
        for d in (1, 2, 3, 5):
            for trial in range(20):
                ps = F.random_point_set(d, 200, seed=1000 + trial, trial=trial)
                rep = F.psd_check(model, params, ps, "squared_distance")
                checks += 1
                ratio = rep.min_eigenvalue / max(rep.max_eigenvalue, 1e-300)
                worst_ratio = min(worst_ratio, ratio)
                assert rep.verdict == "psd", (model, params, d, trial)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= -1e-8 and elapsed < 300.0
    report(
        9,
        "PSD suite over ProvenCM corpus",
        ok,
        f"{checks} checks, worst min/max eigenvalue ratio={worst_ratio:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_decoupling_analytic():
    worst_local = 0.0
    for e in (0.25, 0.5, 1.0):
        g5 = 2.0 if e >= 1.0 else 1.0
        got = F.estimate_local_exponent("dagum5", {"gamma": g5, "epsilon": e})
        worst_local = max(worst_local, abs(got - e))
    for th in (0.25, 0.5, 1.0):
        got = F.estimate_local_exponent("cauchy", {"theta": th, "eta": 1.0})
        worst_local = max(worst_local, abs(got - th))
    worst_tail = max(
        abs(F.estimate_hurst_exponent("cauchy", {"theta": 1.0, "eta": e}) + e)
        for e in (0.25, 0.5, 1.0)
    )
    variances = [
        np.var(F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 512, 1.0, s).values)
        for s in range(100)
    ]
    mc_dev = abs(float(np.mean(variances)) - 1.0)
    ok = worst_local <= 0.02 and worst_tail <= 0.02 and mc_dev <= 0.15
    report(
        10,
        "decoupling exponents",
        ok,
        f"local dev={worst_local:.4f}, tail dev={worst_tail:.4f}, MC var dev={mc_dev:.3f}",
    )
    assert ok


def test_criterion_11_determinism(tmp_path):
    sim_args = [
        "simulate", "dagum5", "--gamma", "1", "--epsilon", "0.5",
        "--n", "128", "--spacing", "0.5", "--seed", "11",
    ]
    search_args = [
        "search", "g", "--alpha", "0.5", "--lambda", "0.5",
        "--dmax", "4", "--n", "40", "--trials", "12", "--seed", "5",
    ]
    paths = [tmp_path / name for name in ("s1", "s2", "r1", "r2")]
    assert cli.main(sim_args + ["-o", str(paths[0])]) == 0
    assert cli.main(sim_args + ["-o", str(paths[1])]) == 0
    assert cli.main(search_args + ["-o", str(paths[2])]) == 0
    assert cli.main(search_args + ["-o", str(paths[3])]) == 0
    sim_same = paths[0].read_bytes() == paths[1].read_bytes()
    search_same = paths[2].read_bytes() == paths[3].read_bytes()
    ok = sim_same and search_same
    report(11, "byte-identical reruns", ok, f"simulate={sim_same}, search={search_same}")
    assert ok
