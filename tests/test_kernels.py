import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagum import classify as C
from dagum import kernels as K
from dagum.errors import ConvergenceError, DomainError
from dagum.numerics import integrate

PI = math.pi

CROSS_ROUTE_BETAS = (1.1, 1.25, 1.5, 1.75, 1.9)


def test_kappa_values():
    ts = np.array([0.3, 1.0, 7.0])
    assert K.kappa(0.4, ts).tobytes() == (ts ** -0.6 / math.gamma(0.4)).tobytes()
    assert np.isnan(K.kappa(math.nan, 1.0))  # as in eta_values, which uses it
    with pytest.raises(DomainError):
        K.kappa(0.5, np.array([1.0, 0.0]))
    assert K.kappa(1.0, 0.3) == 1.0
    assert K.kappa(1.0, 7.0) == 1.0
    assert K.kappa(2.0, 3.0) == pytest.approx(3.0)
    assert K.kappa(0.5, 1.0) == pytest.approx(1.0 / math.sqrt(PI), rel=1e-13)
    with pytest.raises(DomainError):
        K.kappa(0.0, 1.0)
    with pytest.raises(DomainError):
        K.kappa(1.0, 0.0)


def test_rho_kernel_values():
    for beta in (1.0, 1.3, 1.7, 2.0):
        assert K.rho_kernel(beta, 0.0) == pytest.approx(1.0 - 2.0 / beta, rel=1e-13)
    beta = 1.5
    peak = PI / math.sin(PI / beta)
    expected = 1.0 + (2.0 / beta) * math.exp(PI / math.tan(PI / beta))
    assert K.rho_kernel(beta, peak) == pytest.approx(expected, rel=1e-12)
    assert K.rho_kernel(2.0, PI) == pytest.approx(2.0, abs=1e-12)
    # endpoint closed forms
    for t in (0.0, 0.7, 3.0):
        assert K.rho_kernel(1.0, t) == pytest.approx(1.0 - 2.0 * math.exp(-t), rel=1e-12)
        assert K.rho_kernel(2.0, t) == pytest.approx(1.0 - math.cos(t), abs=1e-12)
    with pytest.raises(DomainError):
        K.rho_kernel(0.9, 1.0)
    with pytest.raises(DomainError):
        K.rho_kernel(1.5, -0.1)


@pytest.mark.parametrize("beta", (1.0 + 1e-9, 1.0 + 1e-12))
def test_contour_tau_converges_near_one(beta, eta_series):
    # the poles s^b = -1 lie next to the branch cut there; the contour
    # encloses them
    for t in (1e-8, 1e-4, 0.5, 2.0, 20.0):
        kv = K.tau_kernel(beta, t)
        want = eta_series(1.0, beta, t) - K.rho_kernel(beta, t)
        assert abs(kv.value - want) <= kv.err_estimate + 1e-12, t


def _rule_tau(beta, t):
    """tau_b = psi_b - rho_b on the spectral rule, the route every command runs."""
    return float(K.spectral_rule(beta).psi_values(t)[0]) - K.rho_kernel(beta, t)


def test_tau_at_zero_and_routes():
    for beta in (1.25, 1.5):
        kv = K.tau_kernel(beta, 0.0)
        assert kv.value == 2.0 / beta - 1.0 and kv.err_estimate == 0.0
        assert kv.route == "contour"
        assert _rule_tau(beta, 0.0) == pytest.approx(2.0 / beta - 1.0, abs=1e-12)
    kv = K.tau_kernel(1.5, 2.0)
    assert kv.route == "contour"
    assert abs(kv.value - _rule_tau(1.5, 2.0)) <= 1e-8


@pytest.mark.parametrize("beta", CROSS_ROUTE_BETAS)
def test_tau_cross_route_agreement(beta):
    # the contour against the spectral rule
    for t in (0.0, 0.5, 2.0, 10.0, 20.0):
        assert abs(K.tau_kernel(beta, t).value - _rule_tau(beta, t)) <= 1e-6


@pytest.mark.parametrize("beta", (1.2, 1.5, 1.8))
def test_tau_positive_and_decreasing(beta):
    ts = np.linspace(0.0, 25.0, 40)
    vals = [K.tau_kernel(beta, float(t)).value for t in ts]
    assert all(v > 0.0 for v in vals)
    assert all(a >= b - 1e-10 for a, b in zip(vals[:-1], vals[1:]))


def test_tau_domain():
    with pytest.raises(DomainError):
        K.tau_kernel(1.0, 1.0)
    with pytest.raises(DomainError):
        K.tau_kernel(2.0, 1.0)


def test_phi_closed_forms():
    kv = K.phi(2.0, PI / 2.0)
    assert kv.value == pytest.approx(1.0, abs=1e-12)
    assert kv.route == "closed_form" and kv.err_estimate == 0.0
    kv = K.phi(1.0, 1.0)
    assert kv.value == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("beta", CROSS_ROUTE_BETAS)
def test_phi_cross_route_agreement(beta):
    # the contour against the spectral rule
    phi_vec = K.phi_callable(beta)
    for t in (0.5, 2.0, 10.0, 20.0):
        assert abs(K.phi(beta, t).value - float(phi_vec(t)[0])) <= 1e-6


def test_phi_matches_endpoint_limits_nearby():
    for t in (0.3, 1.0, 3.0):
        assert K.phi(1.001, t).value == pytest.approx(math.exp(-t), abs=2e-3)
        assert K.phi(1.999, t).value == pytest.approx(math.sin(t), abs=2e-3)


# Within 2.5e-4 of b = 1 and b = 2, where exp(-t) and sin t
# miss phi_b by 5e-6 to 3e-3 on these t; the spectral rule measured <= 3.4e-10.
NEAR_ENDPOINT_BETAS = (1.0 + 1e-5, 1.0002, 1.9998, 2.0 - 1e-5)
SERIES_TS = (0.005, 0.05, 0.5, 2.0, 6.0, 12.0, 18.0)


@pytest.mark.parametrize("beta", NEAR_ENDPOINT_BETAS)
def test_grid_kernels_near_the_endpoints_match_the_series(beta, eta_series):
    ts = np.array(SERIES_TS)
    phi = K.phi_callable(beta)(ts)
    assert np.max(np.abs(phi - [eta_series(0.0, beta, t) for t in ts])) <= 1e-9
    # the rule is least accurate near b = 1 for alpha near 0.8 (1.1e-9 at
    # (0.9, 1 + 1e-5, 18)), so those alphas get a bound of their own
    for alpha, bound in ((0.05, 1e-9), (0.3, 1e-9), (0.7, 1e-9), (0.8, 2e-9), (0.9, 2e-9), (1.0, 1e-9)):
        eta = K.eta_grid(alpha, beta, ts)
        assert np.max(np.abs(eta - [eta_series(alpha, beta, t) for t in ts])) <= bound, alpha


@pytest.mark.parametrize("beta", NEAR_ENDPOINT_BETAS)
def test_phi_callable_is_the_phi_of_psi_max(beta):
    ts = np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 200)])
    jet = K.spectral_rule(beta).psi_jet(ts, 1)[1]
    assert K.phi_callable(beta)(ts).tobytes() == jet.tobytes()


BAND_BETAS = (1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.00001, 1.0001, 1.0002, 1.00025,
              1.99975, 1.9998, 1.99999, 2.0 - 1e-6, 2.0 - 1e-9, 2.0 - 1e-12)


@pytest.mark.parametrize("beta", BAND_BETAS)
def test_band_phi_and_psi_match_the_series(beta, eta_series):
    # the contour converges right up to b = 1 and 2, within its own error
    # estimate
    for t in (0.01, 0.5, 1.0, 2.0, 6.0, 12.0, 18.85, 20.0):
        phi_series = eta_series(0.0, beta, t)
        for kv, want in ((K.phi(beta, t), phi_series), (K.psi(beta, t), eta_series(1.0, beta, t))):
            assert kv.route == "contour"
            assert abs(kv.value - want) <= kv.err_estimate + 1e-12, (t, kv)
    for beta, t in ((1.0, 0.7), (2.0, 0.7), (1.0, 20.0), (2.0, 20.0)):
        assert K.phi(beta, t).route == K.psi(beta, t).route == "closed_form"
        assert K.phi(beta, t).err_estimate == K.psi(beta, t).err_estimate == 0.0


@pytest.mark.parametrize("beta", (1.001, 1.02, 1.1, 1.5, 1.9, 1.999))
def test_primary_routes_match_the_series(beta, eta_series):
    # tau, phi and psi on the contour, the one scalar route, within their
    # own error estimates, down to t = 1e-8
    for t in (1e-8, 4.4e-8, 1e-6, 1e-4, 1e-2, 0.5, 2.0):
        psi_series, phi_series = eta_series(1.0, beta, t), eta_series(0.0, beta, t)
        tau_series = psi_series - K.rho_kernel(beta, t)
        for kv, want in (
            (K.tau_kernel(beta, t), tau_series),
            (K.phi(beta, t), phi_series),
            (K.psi(beta, t), psi_series),
        ):
            assert abs(kv.value - want) <= kv.err_estimate + 1e-12, (t, kv)


@pytest.mark.parametrize("beta", BAND_BETAS + (1.001, 1.02, 1.1, 1.5, 1.9, 1.999))
def test_contour_routes_match_the_series(beta, eta_series):
    # tau, phi and psi return at every t, tau(0) = 2/b - 1 and phi(0) =
    # psi(0) = 0 exactly, and each is within its own error estimate
    for t in (0.0, 1e-8, 1e-6, 1e-4, 0.01, 0.5, 2.0, 6.0, 12.0, 18.85, 20.0, 40.0):
        psi_series = eta_series(1.0, beta, t)
        tau_series = psi_series - K.rho_kernel(beta, t)
        for kv, want in ((K.tau_kernel(beta, t), tau_series),
                         (K.phi(beta, t), eta_series(0.0, beta, t)),
                         (K.psi(beta, t), psi_series)):
            assert kv.route == "contour"
            assert abs(kv.value - want) <= kv.err_estimate + 1e-12, (t, kv)


def test_psi_values_and_contract():
    assert K.psi(2.0, PI).value == pytest.approx(2.0, abs=1e-12)
    assert K.psi(1.0, 1.0).value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    for beta in (1.0, 1.3, 1.5, 1.8, 2.0):
        assert K.psi(beta, 0.0).value == 0.0 and K.psi(beta, 0.0).err_estimate == 0.0
    ts = np.linspace(0.0, 30.0, 50)
    for beta in (1.2, 1.6):
        vals = [K.psi(beta, float(t)).value for t in ts]
        assert min(vals) >= -1e-9
    # decay to 1 for beta < 2
    assert K.psi(1.5, 200.0).value == pytest.approx(1.0, abs=5e-3)


def test_psi_decomposition_identity():
    # psi = rho + tau, psi on the spectral rule and tau on the contour
    for beta in (1.25, 1.6, 1.85):
        rule = K.spectral_rule(beta)
        for t in (0.3, 2.0, 7.0):
            tau = K.tau_kernel(beta, t)
            gap = float(rule.psi_values(t)[0]) - K.rho_kernel(beta, t) - tau.value
            assert abs(gap) <= tau.err_estimate + 1e-12


def test_psi_matches_integral_of_phi():
    # definition route: direct quadrature of the contour's phi over [0, t],
    # against the spectral rule's psi
    beta = 1.5
    for t in (0.5, 2.0, 5.0):
        integral, _ = integrate(lambda s: K.phi(beta, s).value, 0.0, t)
        assert K.spectral_rule(beta).psi_values(t)[0] == pytest.approx(integral, abs=1e-6)


def test_psi_endpoint_convergence_modes():
    # uniform convergence toward 1 - e^{-t} as beta decreases to 1
    ts = np.linspace(0.0, 10.0, 60)
    sup_far = max(abs(K.psi(1.05, float(t)).value - (1.0 - math.exp(-t))) for t in ts)
    sup_near = max(abs(K.psi(1.005, float(t)).value - (1.0 - math.exp(-t))) for t in ts)
    assert sup_near < sup_far
    assert sup_near < 5e-3
    # locally uniform convergence toward 1 - cos t as beta increases to 2
    ts = np.linspace(0.0, 2.0 * PI, 60)
    sup2_far = max(abs(K.psi(1.95, float(t)).value - (1.0 - math.cos(t))) for t in ts)
    sup2_near = max(abs(K.psi(1.995, float(t)).value - (1.0 - math.cos(t))) for t in ts)
    assert sup2_near < sup2_far
    assert sup2_near < 2.5e-2


def test_psi_evaluator_agrees_with_scalar():
    for beta in (1.1, 1.5, 1.9):
        ev = K.PsiEvaluator(beta)
        ts = np.array([0.0, 0.25, 1.0, 4.0, 12.0, 30.0])
        table = ev.psi_values(ts)
        for i, t in enumerate(ts):
            assert table[i] == pytest.approx(K.psi(beta, float(t)).value, abs=1e-8)


def test_psi_values_blocks_match_scalar():
    # sizes around the Laplace-sum block of 256 rows; values must not
    # depend on how many t share a block
    ev = K.PsiEvaluator(1.5)
    for n in (1, 255, 256, 257, 2049):
        ts = np.linspace(0.0, 20.0, n)
        table = ev.psi_values(ts)
        assert np.array_equal(table, [ev.psi_values(float(t))[0] for t in ts])


def test_laplace_sum_skipping_is_exact():
    # skipping the nodes whose exp(-t d) underflows to 0 must not change a bit
    rng = np.random.default_rng(5)
    for beta in (1.02, 1.5, 1.98):
        ev = K.PsiEvaluator(beta)
        v = rng.normal(size=ev._decay.size) * ev._weights
        ts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 80.0, 700))])
        full = np.einsum("ij,j->i", np.exp(np.multiply.outer(-ts, ev._decay)), v)
        assert np.array_equal(K._laplace_sums(ts, ev._decay[None], v[None])[0], full)


@pytest.mark.parametrize("beta", (1.0, 0.5, 2.5, math.nan))
def test_scan_range_requires_beta_in_one_two(beta):
    # at b = 1 sin(pi) rounds to 1.2e-16, and the horizon to 7.7e16
    for scan in (K.scan_range, K.eta_scan_grid):
        with pytest.raises(DomainError):
            scan(beta)
    assert K.scan_range(2.0) == 3.0 * PI


def _per_row_laplace_sums(ts, d, w, order, which=None):
    # the block contract written out: the same blocks, skips and floor, each
    # weight row w (-d)^k reduced by its own "ij,ij->i" einsum
    v = [w]
    for _ in range(order):
        v.append(v[-1] * -d)
    out = np.empty((order + 1, ts.size))
    step = K._BLOCK_ROWS if which is None else K._GATHER_ROWS
    for start in range(0, ts.size, step):
        rows = ts[start : start + step]
        pick = slice(0, 1) if which is None else which[start : start + step]
        ds = d[pick]
        skip = int(np.count_nonzero(ds.min(axis=0) * rows.min() > 746.0)) // 64 * 64
        block = np.multiply(-rows[:, None], ds[:, skip:])
        np.exp(np.maximum(block, K._EXP_FLOOR, out=block), out=block)
        for row, vk in zip(out, v):
            row[start : start + step] = np.einsum("ij,ij->i", block, vk[pick, skip:])
    return out


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 2, 3]))
def test_laplace_sums_rows_match_the_per_row_reduction(seed, k):
    # every row of the one fused reduction, on one rule (a full block of 256
    # t and a short one) and gathered 16 rows at a time from three rules,
    # is the per-row einsum to the last bit, and a t alone gives the same bits
    rng = np.random.default_rng(seed)
    rules = [K.spectral_rule(float(b)) for b in rng.uniform(1.0, 2.0, 3)]
    d = np.array([rule._decay for rule in rules])
    w = rng.normal(size=d.shape) * np.array([rule._weights for rule in rules])
    ts = rng.uniform(1e-3, 60.0, 300)
    which = rng.integers(0, len(rules), ts.size)
    one = K._laplace_sums(ts, d[:1], w[:1], k - 1)
    gathered = K._laplace_sums(ts, d, w, k - 1, which)
    assert one.shape == gathered.shape == (k, ts.size)
    assert one.tobytes() == _per_row_laplace_sums(ts, d[:1], w[:1], k - 1).tobytes()
    assert gathered.tobytes() == _per_row_laplace_sums(ts, d, w, k - 1, which).tobytes()
    for r in rng.choice(ts.size, 8, replace=False):
        alone = K._laplace_sums(ts[r : r + 1], d[:1], w[:1], k - 1)
        assert alone.tobytes() == one[:, r : r + 1].tobytes()
        alone = K._laplace_sums(ts[r : r + 1], d, w, k - 1, which[r : r + 1])
        assert alone.tobytes() == gathered[:, r : r + 1].tobytes()


@pytest.mark.parametrize("beta", (1.02, 1.3, 1.5, 1.8, 1.98))
def test_psi_phi_values_match_separate_sums(beta):
    # one exp block for both sums must not change a bit of either
    ev = K.PsiEvaluator(beta)
    for n in (1, 255, 256, 257, 2049):
        ts = np.linspace(0.0, 40.0, n)
        psi, phi = ev.psi_jet(ts, 1)
        assert np.array_equal(psi, ev.psi_values(ts))
        assert np.array_equal(phi, ev.phi_values(ts))


@pytest.mark.parametrize("beta", (1.02, 1.3, 1.5, 1.8, 1.98))
def test_psi_jet_matches_written_out_psi_and_phi(beta):
    # rows 0 and 1 are the psi and phi formulas of one two-vector Laplace sum,
    # to the last bit, and a longer jet does not change them
    ev = K.PsiEvaluator(beta)
    w, d, b = ev._weights, ev._decay, beta
    for n in (1, 255, 256, 257, 2049):
        ts = np.linspace(0.0, 40.0, n)
        tau, tau_prime = (K._laplace_sums(ts, d[None], v[None])[0] for v in (w, w * d))
        psi = 1.0 + K._osc(b, ts, 0.0) + tau / (b * PI)
        phi = np.where(ts == 0.0, 0.0, K._osc(b, ts, PI / b) - tau_prime / (b * PI))
        jet = ev.psi_jet(ts, 1)
        assert jet.shape == (2, n) and np.array_equal(jet, [psi, phi])
        assert np.array_equal(ev.psi_jet(ts, 2)[:2], jet)


@pytest.mark.parametrize("beta", (1.02, 1.3, 1.5, 1.7, 1.9))
def test_psi_jet_phi_prime_matches_central_differences(beta):
    # the phi' row against (phi(t + h) - phi(t - h)) / 2h, whose own error
    # (h^2/6 times the third derivative of phi, largest at t = 0.05) stays
    # below 2.2e-8 here
    ev, h = K.PsiEvaluator(beta), 1e-5
    ts = np.concatenate([np.geomspace(0.05, 30.0, 200), np.linspace(0.05, 30.0, 200)])
    diff = (ev.phi_values(ts + h) - ev.phi_values(ts - h)) / (2.0 * h)
    assert np.max(np.abs(ev.psi_jet(ts, 2)[2] - diff)) <= 5e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), order=st.sampled_from([0, 1, 2]))
def test_psi_jets_runs_and_gathered_rows_equal_each_rule_alone(seed, order):
    # one call over a block whose row j is on rule j (rows of any length) and one
    # over the same t as gathered rows give, for each t, the bits of that
    # rule's own one-rule jet
    rng = np.random.default_rng(seed)
    betas = rng.uniform(1.0, 2.0, 5)
    decays, weights = K.rule_rows(betas)
    block = np.sort(rng.uniform(0.0, 60.0, (betas.size, rng.integers(1, 140))))
    which = np.repeat(np.arange(betas.size), block.shape[1])
    runs = K.psi_jets(betas, decays, weights, order, True)(block)
    gathered = K.psi_jets(betas, decays, weights, order)(block.ravel(), which)
    assert runs.shape == (order + 1,) + block.shape
    for j, beta in enumerate(betas):
        alone = K.PsiEvaluator(float(beta)).psi_jet(block[j], order)
        assert runs[:, j].tobytes() == alone.tobytes()
        assert gathered[:, which == j].tobytes() == alone.tobytes()


def _unit_breaks(levels):
    """The sorted [0, 1] ``_ladder`` of ``levels`` with its ends."""
    return np.array(sorted(set(K._ladder(0.0, 1.0, levels) + [0.0, 1.0])))


def _rule_values(beta, ts, levels=None, order=None):
    """psi, phi and eta at alpha 0.05, 0.5 and 1 on the spectral rule, or on
    one of another shape: numpy's order-``order`` ``leggauss`` on the panels
    of a ladder of ``levels``."""
    with pytest.MonkeyPatch.context() as mp:
        if levels:
            mp.setattr(K, "_UNIT_BREAKS", _unit_breaks(levels))
            mp.setattr(K, "_GAUSS_LEGENDRE", np.polynomial.legendre.leggauss(order))
        ev = K.PsiEvaluator(beta)
    return np.array(
        [ev.psi_values(ts), ev.phi_values(ts)] + [ev.eta_values(a, ts) for a in (0.05, 0.5, 1.0)]
    )


RULE_BETAS = (1.02, 1.1, 1.3, 1.5, 1.7, 1.9, 1.98)


def test_rule_shape():
    assert K.PsiEvaluator(1.5)._decay.size == 800


@pytest.mark.parametrize("beta", RULE_BETAS)
def test_rule_matches_fine_reference_rule(beta):
    # 50 + 30 levels of order 10 against 80 + 80 levels of order 16
    ts = np.concatenate([np.geomspace(1e-3, 60.0, 400), np.linspace(1e-3, 60.0, 400)])
    ref = _rule_values(beta, ts, (80, 80), 16)
    assert np.max(np.abs(_rule_values(beta, ts) - ref)) <= 1e-13


@pytest.mark.parametrize("beta", RULE_BETAS)
def test_rule_matches_symmetric_50_level_rule(beta):
    # dropping 20 levels toward the y -> 0 kink moves no value beyond rounding
    ts = np.concatenate([np.geomspace(1e-6, 60.0, 400), np.linspace(1e-6, 60.0, 400)])
    old = _rule_values(beta, ts, (50, 50), 10)
    assert np.max(np.abs(_rule_values(beta, ts) - old)) <= 5e-13


def _panel_rule_loop(lo, hi):
    """One order-10 Gauss-Legendre panel at a time between the sorted breaks
    of the spectral rule's ``_ladder``."""
    breaks = sorted(set(K._ladder(lo, hi, (50, 30)) + [lo, hi]))
    xg, wg = np.polynomial.legendre.leggauss(10)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        h = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + h * xg)
        weights.append(h * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def test_panel_rule_matches_panel_loop():
    # the rule on [0, hi], for a span short of and past 1
    for hi in (1.0, 3.0):
        nodes, weights = K._panel_rule(hi)
        loop_nodes, loop_weights = _panel_rule_loop(0.0, hi)
        assert np.array_equal(nodes, loop_nodes)
        assert np.array_equal(weights, loop_weights)


def test_spectral_rule_breaks_scale_the_cached_unit_ladder():
    # the rule's panels come from one held [0, 1] ladder times the span; the
    # nodes and weights equal those of the ladder written out for each span
    for beta in np.linspace(1.0005, 1.9995, 101):
        span = (2.0 - beta) * PI
        nodes, weights = K._panel_rule(span)
        loop_nodes, loop_weights = _panel_rule_loop(0.0, span)
        assert np.array_equal(nodes, loop_nodes)
        assert np.array_equal(weights, loop_weights)
    assert np.array_equal(K._UNIT_BREAKS, _unit_breaks((50, 30)))


def test_rule_rows_are_each_beta_alone_bit_for_bit():
    # a group build, in groups of 1, 7 and 32, gives every beta the rule of its
    # own scalar build written out (float sigma, c and exponent, a 1-D panel
    # rule), and PsiEvaluator holds the one-row case
    betas = np.concatenate(
        [
            np.random.default_rng(28).uniform(1.0, 2.0, 2000),
            np.linspace(1.0, 2.0, 101)[1:-1],
            [1.0 + 1e-6, 2.0 - 1e-7],
        ]
    )
    alone = []
    for beta in map(float, betas):
        sigma, c = K._consts(beta)
        w, weights = K._panel_rule((2.0 - beta) * PI)
        alone.append((np.maximum(sigma / np.tan(w) - c, 0.0) ** (1.0 / beta), weights))
    for size in (1, 7, 32):
        for start in range(0, betas.size, size):
            decays, weights = K.rule_rows(betas[start : start + size])
            assert decays.shape == weights.shape == (min(size, betas.size - start), 800)
            for j, (d, w) in enumerate(alone[start : start + size]):
                assert decays[j].tobytes() == d.tobytes() and weights[j].tobytes() == w.tobytes()
    for beta, (d, w) in zip(betas[::97], alone[::97]):
        ev = K.PsiEvaluator(float(beta))
        assert ev._decay.tobytes() == d.tobytes() and ev._weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("beta", (1.0005, 1.3, 1.5, 1.75, 1.9995))
def test_rule_values_match_written_out_formulas(beta):
    # each kernel's residue term and branch-cut sum written out in full, in
    # the same order of operations, so the values agree to the last bit
    ev = K.PsiEvaluator(beta)
    ts = np.linspace(0.0, 25.0, 101)
    b, a, w, d = beta, PI / beta, ev._weights, ev._decay
    grow, turn = np.exp(ts * math.cos(a)), ts * math.sin(a)
    tau, tau_prime = (K._laplace_sums(ts, d[None], v[None])[0] for v in (w, w * d))
    psi = 1.0 - (2.0 / b) * grow * np.cos(turn) + tau / (b * PI)
    phi = -(2.0 / b) * grow * np.cos(a + turn) - tau_prime / (b * PI)
    phi[0] = 0.0
    assert np.array_equal(ev.psi_values(ts), psi)
    assert np.array_equal(ev.phi_values(ts), phi)
    sigma, tp = -math.sin(b * PI), ts[1:]
    for alpha in (0.05, 0.3, 0.77, 1.0):
        v = w * d ** (1.0 - alpha) * (
            math.sin(PI * (b - alpha)) - d ** b * math.sin(PI * alpha)
        ) / (PI * sigma * b)
        eta = (
            tp ** (alpha - 1.0) / math.gamma(alpha)
            - (2.0 / b) * np.exp(tp * math.cos(a)) * np.cos(tp * math.sin(a) + (1.0 - alpha) * a)
            + K._laplace_sums(tp, d[None], v[None])[0]
        )
        assert np.array_equal(ev.eta_values(alpha, ts), np.concatenate([[0.0], eta]))


@pytest.mark.parametrize("beta", (1.02, 1.3, 1.5, 1.8, 1.98))
def test_phi_table_matches_adaptive_route(beta):
    # pin the spectral rule's phi to the contour, a route independent of the
    # rule's integral, at 130 points of the former phi table's knot grid
    # over [1e-8, 40]
    knots = np.concatenate(
        [np.geomspace(1e-8, 1.0, 400, endpoint=False), np.arange(1.0, 40.0 + 0.05, 0.05)]
    )
    knots = knots[knots <= 40.0]
    ts = knots[np.linspace(0, knots.size - 1, 130).round().astype(int)]
    phi_vec = K.phi_callable(beta)
    adaptive = np.array([K.phi(beta, float(t)).value for t in ts])
    assert np.max(np.abs(phi_vec(ts) - adaptive)) <= 1e-8
    assert phi_vec(0.0)[0] == 0.0


def test_phi_primary_resolves_small_t_tail():
    # the rule's r e^{-t r} peaks at r = 1/t, near w = 1.6e-9 at this point;
    # the contour agrees there
    kv = K.phi(1.98, 1.4454e-4)
    gap = abs(kv.value - K.spectral_rule(1.98).phi_values(1.4454e-4)[0])
    assert gap <= 1e-12
    assert gap <= kv.err_estimate + 1e-12


@pytest.mark.parametrize("beta", (1.02, 1.3, 1.5, 1.98))
def test_phi_alternate_at_tiny_t(beta):
    # the contour at t = 1e-8 against the spectral rule
    kv = K.phi(beta, 1e-8)
    assert abs(kv.value - K.spectral_rule(beta).phi_values(1e-8)[0]) <= 1e-9


def test_beta_cache_is_bounded():
    # one rule, of the last beta asked for
    first = K.spectral_rule(1.401)
    info = K._RULES.cache_info()
    assert info.currsize == info.maxsize == 1
    assert K.spectral_rule(1.401) is first  # a hit
    assert K._RULES.cache_info().hits == info.hits + 1
    K.spectral_rule(1.402)
    # 1.401 was dropped, so asking for it builds a new rule
    assert K.spectral_rule(1.401) is not first
    assert K._RULES.cache_info().misses == info.misses + 2
    # a build that fails keeps nothing and drops nothing
    held = K.spectral_rule(1.401)

    def broken(*args, **kwargs):
        raise MemoryError

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(K, "rule_rows", broken)
        with pytest.raises(MemoryError):
            K.spectral_rule(1.403)
    assert K._RULES.cache_info().currsize == 1 and K.spectral_rule(1.401) is held


def test_eta_alpha_one_is_psi():
    for beta, t in ((1.5, 2.0), (1.5, 6.0), (1.9, 3.0)):
        assert K.eta(1.0, beta, t).value == pytest.approx(K.psi(beta, t).value, abs=1e-6)


def test_eta_beta2_sign_pattern():
    # independent oracle for alpha = 1/2: substitute u = sqrt(2pi - s) in
    # int_0^{2pi} (2pi - s)^(-1/2) sin s ds, i.e. 2 int sin(2pi - u^2) du
    xs, ws = np.polynomial.legendre.leggauss(200)
    b = math.sqrt(2.0 * PI)
    u = 0.5 * b * xs + 0.5 * b
    oracle = 0.5 * b * float(np.sum(ws * 2.0 * np.sin(2.0 * PI - u**2))) / math.gamma(0.5)
    got = K.eta(0.5, 2.0, 2.0 * PI)
    assert got.value == pytest.approx(oracle, abs=1e-9)
    assert got.value == pytest.approx(-0.4856631098735034, abs=1e-9)
    assert K.eta(0.25, 2.0, 2.0 * PI).value < -1e-3
    assert K.eta(0.75, 2.0, 2.0 * PI).value < -1e-3
    assert K.eta(1.5, 2.0, 2.0 * PI).value > 0.0


def test_eta_grid_matches_pointwise():
    # at b = 1 and 2, eta_grid is eta at each t > 0 and 0 at t = 0
    ts = np.linspace(0.0, 4.0 * PI, 9)
    for alpha, beta in ((0.5, 1.0), (0.5, 2.0), (3.0, 1.0), (6.0, 2.0)):
        grid = K.eta_grid(alpha, beta, ts)
        assert grid[0] == 0.0
        assert grid[1:].tolist() == [K.eta(alpha, beta, t).value for t in ts[1:].tolist()]
    # general beta goes through the spectral rule
    ts = np.linspace(0.0, 8.0, 5)
    grid = K.eta_grid(0.7, 1.5, ts)
    for i, t in enumerate(ts[1:], start=1):
        assert grid[i] == pytest.approx(K.eta(0.7, 1.5, float(t)).value, abs=1e-6)


@pytest.mark.parametrize("beta", (1.0, 2.0))
def test_eta_grid_at_the_endpoints_matches_the_series(beta, eta_series):
    # the contour at each t
    ts = [1e-6, 0.01, 0.5, 2.0, 7.0, 18.0]
    for alpha in (0.01, 0.05, 0.3, 1.0, 1.5, 3.0, 6.0):
        for t, value in zip(ts, K.eta_grid(alpha, beta, ts)):
            assert abs(value - eta_series(alpha, beta, t)) <= 1e-10, (alpha, t)


def test_eta_grid_at_the_endpoints_keeps_its_shapes():
    # a scalar t, an empty t and a long t give each value as if computed alone
    assert K.eta_grid(0.5, 2.0, 1.0).shape == (1,)
    assert K.eta_grid(0.5, 2.0, []).shape == (0,)
    ts = np.linspace(0.0, 20.0, 600)
    grid = K.eta_grid(0.5, 1.0, ts)
    alone = np.concatenate([K.eta_grid(0.5, 1.0, [t]) for t in ts])
    assert grid.shape == (600,) and grid[0] == 0.0
    assert np.max(np.abs(grid - alone)) <= 1e-14


@pytest.mark.parametrize("beta", (1.0, 1.5, 2.0))
@pytest.mark.parametrize("ts", (0.7, [0.0, 0.7, 3.0], [[0.0, 0.7, 3.0], [1.0, 2.0, 9.0]]),
                         ids=("float", "1-D", "2-D"))
def test_eta_grid_keeps_the_shape_of_t(beta, ts):
    # t is read as at least 1-D at every b: a float gives (1,), a 2-D t its
    # own shape, each value that of the flattened t
    grid = K.eta_grid(0.5, beta, ts)
    assert grid.shape == np.atleast_1d(ts).shape
    assert np.array_equal(grid.ravel(), K.eta_grid(0.5, beta, np.ravel(ts)))


@pytest.mark.parametrize("beta", (1.0, 1.5, 2.0))
@pytest.mark.parametrize("ts", (0.7, [0.0, 0.7, 3.0], [[0.0, 0.7, 3.0], [1.0, 2.0, 9.0]]),
                         ids=("float", "1-D", "2-D"))
def test_phi_callable_keeps_the_shape_of_t(beta, ts):
    # as eta_grid: the closed forms and the spectral rule alike keep t's shape
    values = K.phi_callable(beta)(ts)
    assert values.shape == np.atleast_1d(ts).shape
    assert np.array_equal(values.ravel(), K.phi_callable(beta)(np.ravel(ts)))


def test_rule_values_on_a_2d_t_are_the_flat_values_reshaped():
    rule, ts = K.spectral_rule(1.5), np.array([[0.0, 0.7, 3.0], [1.0, 2.0, 9.0]])
    for values in (rule.psi_values, rule.phi_values):
        assert values(ts).tobytes() == values(ts.ravel()).reshape(ts.shape).tobytes()
    assert rule.psi_jet(ts, 2).shape == (3,) + ts.shape


def _eta_cut_integral(alpha, beta, t):
    """30-digit eta from the unsubtracted branch-cut integral and the two
    pole residues of 1/(x^a (1+x^b)); s = u^(1/(1-a)) removes s^(-a)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, t = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(t)
        c = mpmath.cos(mpmath.pi * b)
        p = 1 / (1 - a)

        def g(u):
            s = u**p
            sb = s**b
            num = mpmath.sin(mpmath.pi * a) + sb * mpmath.sin(mpmath.pi * (a + b))
            return p * mpmath.exp(-t * s) * num / (1 + 2 * c * sb + sb * sb)

        knots = [mpmath.mpf(k) for k in (1e-3, 0.1, 1, 2, 5, 20, 100, 1000)]
        if c < 0:
            knots.append((-c) ** (1 / b))
        pts = [0] + sorted(k ** (1 / p) for k in knots) + [mpmath.inf]
        cut = mpmath.quad(g, pts) / mpmath.pi
        A = mpmath.pi / b
        poles = -(2 / b) * mpmath.exp(t * mpmath.cos(A)) * mpmath.cos(t * mpmath.sin(A) + (1 - a) * A)
        return float(cut + poles)


@pytest.mark.parametrize("beta,alpha", ((1.02, 0.01), (1.3, 0.14), (1.7, 0.5), (1.98, 0.98)))
def test_eta_grid_matches_cut_integral(beta, alpha):
    ts = np.array([0.0, 0.01, 0.3, 3.7, 12.0, 40.0])
    grid = K.eta_grid(alpha, beta, ts)
    assert grid[0] == 0.0
    for t, value in zip(ts[1:], grid[1:]):
        assert abs(value - _eta_cut_integral(alpha, beta, t)) <= 1e-12


@pytest.mark.parametrize("beta", (1.02, 1.5, 1.98))
def test_eta_grid_alpha_one_is_psi(beta):
    ts = np.linspace(0.0, 30.0, 300)
    grid = K.eta_grid(1.0, beta, ts)
    assert grid[0] == 0.0
    assert np.max(np.abs(grid - K.spectral_rule(beta).psi_values(ts))) <= 1e-14


def test_eta_grid_matches_adaptive_eta():
    for beta, alpha in ((1.1, 0.05), (1.5, 0.3), (1.5, 0.7), (1.9, 0.95)):
        ts = np.array([0.0, 0.2, 1.5, 6.0, 18.0])
        grid = K.eta_grid(alpha, beta, ts)
        assert grid[0] == 0.0
        for t, value in zip(ts[1:], grid[1:]):
            kv = K.eta(alpha, beta, float(t))
            assert abs(value - kv.value) <= kv.err_estimate + 1e-9


@pytest.mark.parametrize("beta", (1.3, 1.5, 1.8))
def test_adaptive_eta_at_small_alpha_matches_grid(beta):
    # as alpha -> 0 the transform s^-a / (1+s^b) tends to phi's, so eta and
    # the grid agree down to alpha = 1e-16
    for alpha in (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16):
        for t in (0.05, 2.0, 9.0):
            kv = K.eta(alpha, beta, t)
            grid = K.eta_grid(alpha, beta, [t])[0]
            assert abs(kv.value - grid) <= kv.err_estimate + 1e-12, (alpha, t)


@pytest.mark.parametrize("beta", (1.9, 1.98, 1.999))
def test_eta_grid_small_t_floor(beta, eta_series):
    # below ETA_GRID_T_FLOOR the contour serves, the rule from there on
    for alpha in (0.05, 0.5):
        for t in (1e-8, 1e-7):
            grid = K.eta_grid(alpha, beta, [0.0, t, 1.0])
            assert grid[0] == 0.0 and grid[1] == K.eta(alpha, beta, t).value
            assert grid[2] == K.spectral_rule(beta).eta_values(alpha, [1.0])[0]
            assert abs(grid[1] - eta_series(alpha, beta, t)) <= 1e-9
        ts = np.array([1e-6, 1e-5, 1e-4, 1e-3])
        for t, value in zip(ts, K.eta_grid(alpha, beta, ts)):
            assert abs(value - eta_series(alpha, beta, t)) <= 1e-9


def test_eta_values_domain():
    # below ETA_GRID_T_FLOOR the sum cancels to noise (-27061 for eta = 6e-9 at t = 1e-8)
    rule = K.spectral_rule(1.98)
    for alpha, ts in ((0.05, [1e-8]), (0.5, [0.0, 1e-7, 1.0]), (1.5, [1.0]), (0.0, [1.0])):
        with pytest.raises(DomainError):
            rule.eta_values(alpha, ts)
    assert np.isnan(rule.eta_values(math.nan, [1.0])[0])


def test_eta_values_rejects_negative_and_nan_t():
    rule = K.spectral_rule(1.5)
    for ts in ([-1.0], [0.0, -1e-3, 1.0], [math.nan]):
        with pytest.raises(DomainError):
            rule.eta_values(0.5, ts)


@pytest.mark.parametrize("bad", (-1.0, math.nan, math.inf))
def test_every_kernel_route_rejects_negative_and_nan_t(bad):
    # a DomainError at the boundary, not an overflow warning, a quadrature
    # failure or a NaN value from the numerics
    scalar_routes = [
        lambda: K.rho_kernel(1.5, bad),
        lambda: K.tau_kernel(1.5, bad),
        lambda: K.phi(1.5, bad),
        lambda: K.phi(1.0, bad),
        lambda: K.phi(2.0, bad),
        lambda: K.psi(1.5, bad),
        lambda: K.psi(2.0, bad),
        lambda: K.eta(0.5, 1.5, bad),
    ]
    if bad != math.inf:  # kappa's t^(a-1) has a limit there
        scalar_routes.append(lambda: K.kappa(0.5, bad))
    rule = K.spectral_rule(1.5)
    array_routes = [
        lambda: K.phi_callable(1.5)([1.0, bad]),
        lambda: K.phi_callable(1.0)([bad]),
        lambda: K.phi_callable(2.0)(bad),
        lambda: rule.phi_values([bad]),
        lambda: rule.psi_values([0.0, bad]),
        lambda: K.eta_grid(0.5, 1.5, [bad]),
        lambda: K.eta_grid(0.5, 1.0, [1.0, bad]),
    ]
    for route in scalar_routes + array_routes:
        with pytest.raises(DomainError):
            route()


@pytest.mark.parametrize("beta", (1.0005, 1.1, 1.5, 1.738, 1.9, 1.9995))
def test_eta_scan_matches_rule_values(beta):
    # the shifted-block scan against the direct Laplace sums at the same t
    rule = K.spectral_rule(beta)
    ts = K.eta_scan_grid(beta)
    for alpha in (0.0, 0.001, 0.05, 0.5, 1.0):
        scan = rule.eta_scan(alpha)
        ref = rule.phi_values(ts) if alpha == 0.0 else rule.eta_values(alpha, ts)
        assert scan.shape == (4096,) and scan[0] == 0.0
        assert np.max(np.abs(scan - ref)) <= 1e-13, alpha


@pytest.mark.parametrize("beta", (1.0001, 1.2508, 1.5, 1.9999, 2.0))
def test_eta_scan_grid_is_one_fixed_grid(beta):
    # 4096 points t_k = k h on [0, 6 pi / sin(pi/b)]: linspace's points but
    # the last, which may be 1 ulp off k h (at b = 1.2508, for one); the step
    # stays far above the small-t floor of eta on the rule
    ts = K.eta_scan_grid(beta)
    t_max = 6.0 * PI / math.sin(PI / beta)
    assert ts.size == 4096 == 32 * K._SCAN_ROWS
    assert np.array_equal(ts, np.arange(4096) * (t_max / 4095))
    assert np.array_equal(ts[:-1], np.linspace(0.0, t_max, 4096)[:-1])
    assert ts[-1] == pytest.approx(t_max, rel=2.3e-16)
    assert ts[1] >= 6.0 * PI / 4095 > 4.6e-3 > K.ETA_GRID_T_FLOOR


@pytest.mark.parametrize("beta", (1.0, 1.0001, 1.5, 1.9999, 2.0))
def test_eta_at_subnormal_alpha_is_phi(beta):
    # Gamma(alpha) overflows for these alphas; 1/Gamma(alpha) rounds to alpha
    ts = np.linspace(0.5, 20.0, 40)
    phi = K.phi_callable(beta)(ts)
    for alpha in (5e-324, 2.2e-313):
        assert K.kappa(alpha, 1.0) == alpha
        assert np.max(np.abs(K.eta_grid(alpha, beta, ts) - phi)) <= 1e-13
        if 1.0 < beta < 2.0:
            rule = K.spectral_rule(beta)
            scan = rule.eta_scan(alpha)
            assert np.max(np.abs(scan - rule.eta_scan(0.0))) <= 1e-13


def _fresh_scan(beta, alpha):
    return K.PsiEvaluator(beta).eta_scan(alpha)


def test_eta_scan_held_basis_equals_fresh_evaluator():
    # each rule holds its alpha-free basis across scans; interleaved betas
    # and alphas must each give a fresh evaluator's bits
    cases = [(b, a) for b in (1.0003, 1.2, 1.5, 1.8) for a in (0.0, 0.3, 1.0)]
    expected = {case: _fresh_scan(*case).tobytes() for case in cases}
    order = np.random.default_rng(3).permutation(len(cases) * 3) % len(cases)
    for case in cases + [cases[i] for i in order]:
        beta, alpha = case
        rule = K.spectral_rule(beta)
        assert rule.eta_scan(alpha).tobytes() == expected[case], case
        assert not any(arr.flags.writeable for arr in rule._scan_basis())
    held = rule._scan_basis()
    for alpha in (0.0, 0.3, 1.0):  # a c_bounds bisection: one basis for every step
        K.spectral_rule(beta).eta_scan(alpha)
        assert K.spectral_rule(beta)._scan_basis() is held


@pytest.mark.parametrize("beta", (1.0001, 1.0003, 1.3, 1.5, 1.9, 1.9999))
def test_eta_scan_held_residue_equals_osc(beta):
    # the residue is held as -(2/b) e^{t z}, a product of per-block and per-row
    # exponentials; turned by each scan's shift, it is _osc on the whole grid
    ts = K.eta_scan_grid(beta)
    rule = K.spectral_rule(beta)
    for alpha in (0.0, 1e-9, 0.5, 1.0):
        rule.eta_scan(alpha)
        _, re, im, *_ = rule._scan_basis()
        shift = PI / beta if alpha == 0.0 else (1.0 - alpha) * (PI / beta)
        held = re * math.cos(shift) - im * math.sin(shift)
        assert np.max(np.abs(held - K._osc(beta, ts, shift))) <= 1e-14, alpha


def test_eta_scan_basis_failed_rewrite_is_not_reused():
    # a basis build that fails halfway holds no basis, so the next scan
    # builds it again and gives a fresh evaluator's bits
    rule = K.PsiEvaluator(1.6)

    def broken(*args, **kwargs):
        raise MemoryError

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "exp", broken)
        with pytest.raises(MemoryError):
            rule.eta_scan(0.3)
    assert rule._basis is None
    assert rule.eta_scan(0.3).tobytes() == _fresh_scan(1.6, 0.3).tobytes()


def test_eta_scan_threads_match_serial():
    # scans of two betas from more threads than cores contend for the one cached rule
    serial = {b: _fresh_scan(b, 0.3).tobytes() for b in (1.3, 1.7)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lambda b: K.spectral_rule(b).eta_scan(0.3), b)
                       for b in (1.3, 1.7) * 8]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [r.tobytes() for r in results] == [serial[b] for b in (1.3, 1.7) * 8]


def test_eta_scan_domain():
    rule = K.spectral_rule(1.5)
    for alpha in (-0.1, 1.5, -math.inf, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            rule.eta_scan(alpha)
    assert np.isnan(rule.eta_scan(math.nan)[1:]).all()


def _psi_max_scan_grid(beta):
    """The t grid of ``classify.psi_max``'s psi/phi scan, as it calls its jet."""
    grids = []
    real = C.psi_jets

    def psi_jets(betas, decays, weights, order, *args):
        jet = real(betas, decays, weights, order, *args)
        return lambda ts, which=None: grids.append((order, ts)) or jet(ts, which)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "psi_jets", psi_jets)
        C.psi_max(beta)
    ((_, (ts,)),) = [g for g in grids if g[0] == 1]
    return ts


@pytest.mark.parametrize("beta", RULE_BETAS)
def test_exp_floor_is_exact_on_psi_max_grid(beta):
    # the grid starts above t = 0, so its one block skips the leading nodes
    # where exp(-t d) underflows at every t: at least 192 of 800, or 128 near
    # b = 2, where sin(b pi), and with it every decay, is small; the floor still
    # acts on the rest, and the sums equal the unfloored full-block einsum
    ts = _psi_max_scan_grid(beta)
    ev = K.spectral_rule(beta)
    assert ts[0] > 0.0 and ts.size <= K._BLOCK_ROWS
    skip = np.count_nonzero(ev._decay * ts.min() > 746.0) // 64 * 64
    assert skip >= (192 if beta < 1.95 else 128)
    assert np.max(np.multiply.outer(ts, ev._decay[skip:])) > -K._EXP_FLOOR
    vs = np.array([ev._weights, ev._weights * -ev._decay])
    full = np.exp(np.multiply.outer(-ts, ev._decay))
    for v, sums in zip(vs, K._laplace_sums(ts, ev._decay[None], ev._weights[None], 1)):
        assert np.array_equal(sums, np.einsum("ij,j->i", full, v))
        assert np.array_equal(K._laplace_sums(ts, ev._decay[None], v[None])[0], sums)


def test_laplace_sum_exponents_stay_above_the_floor():
    # numpy's exp is 20-170 times slower on (-745, -707.7); no Laplace-sum
    # exponent of a psi_max or an eta scan may reach below the floor
    lowest = []
    real = np.exp

    def exp(x, *args, **kwargs):
        lowest.append(np.min(x, where=kwargs.get("where", True), initial=np.inf))
        return real(x, *args, **kwargs)

    rule = K.PsiEvaluator(1.5)  # the scan builds its held basis here
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "exp", exp)
        C.psi_max(1.5)
        rule.eta_scan(0.3)
    assert min(lowest) == K._EXP_FLOOR  # the floor was reached, and never passed


@pytest.mark.parametrize("beta", (1.0003, 1.3, 1.5, 1.9))
def test_eta_scan_one_product_matches_rule_values(beta):
    # one product of a 128-row block and 32 columns of shifts over the kept
    # nodes; at beta 1.0003 t_max is about 2e4, and 40% of the nodes
    # underflow at every t > 0 and are left out of the product
    rule = K.spectral_rule(beta)
    ts = K.eta_scan_grid(beta)
    rule.eta_scan(0.5)
    held, re, im, keep, block, cols = rule._scan_basis()
    assert block.shape == (K._SCAN_ROWS, keep.sum()) and cols.shape == (keep.sum(), 32)
    assert np.array_equal(keep, ts[1] * rule._decay <= 746.0)
    # the basis is exactly t, the residue's real and imaginary parts, the
    # kept nodes, B and E, read-only
    h, d = ts[1], rule._decay[keep]
    exps = np.multiply.outer(d, -(h * np.arange(0, 4096, K._SCAN_ROWS)))
    assert np.array_equal(held, ts)
    assert np.array_equal(block, np.exp(np.maximum(np.multiply.outer(-h * np.arange(128), d),
                                                   K._EXP_FLOOR)))
    assert np.array_equal(cols, np.where(exps >= K._EXP_FLOOR, np.exp(exps), 0.0))
    assert not any(arr.flags.writeable for arr in (held, re, im, keep, block, cols))
    if beta == 1.0003:
        assert ts[-1] > 1.9e4 and np.count_nonzero(~keep) > 0.4 * keep.size
    # the values on both sides of every column boundary
    edges = np.sort(np.concatenate([np.arange(0, 4096, 128), np.arange(127, 4096, 128)]))
    for alpha in (0.0, 0.001, 0.05, 0.5, 1.0):
        scan = rule.eta_scan(alpha)[edges]
        ref = rule.phi_values(ts[edges]) if alpha == 0.0 else rule.eta_values(alpha, ts[edges])
        assert np.max(np.abs(scan - ref)) <= 1e-13, alpha


def test_eta_grid_domain():
    with pytest.raises(DomainError):
        K.eta_grid(0.0, 1.5, [1.0])
    with pytest.raises(DomainError):
        K.eta_grid(0.5, 1.5, [-1.0])
    for beta in (2.5, 0.5, math.nan):
        for ts in ([1.0], [0.0], []):
            with pytest.raises(DomainError, match="beta"):
                K.eta_grid(0.5, beta, ts)
    # every b takes every finite alpha > 0, eta's domain: past the rule's
    # a <= 1, the contour serves
    for beta in (1.0, 1.5, 2.0):
        assert K.eta_grid(1.5, beta, [0.0])[0] == 0.0
        for alpha in (1.5, 2.5, 3.0):
            assert K.eta_grid(alpha, beta, [1.0])[0] == K.eta(alpha, beta, 1.0).value
        for alpha in (math.inf, math.nan, -1.0):
            for ts in ([0.5], [0.0], []):
                with pytest.raises(DomainError, match="alpha"):
                    K.eta_grid(alpha, beta, ts)


def test_held_gauss_legendre_table():
    # the held order-10 table is numpy's leggauss to 1 ulp (in fact bit for
    # bit), and it integrates x^k over [-1, 1] exactly for k < 20, up to rounding
    order = 10
    nodes, weights = K._GAUSS_LEGENDRE
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    assert np.all(np.abs(nodes - ref_nodes) <= np.spacing(np.abs(ref_nodes)))
    assert np.all(np.abs(weights - ref_weights) <= np.spacing(ref_weights))
    for k in range(2 * order):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(weights * nodes ** k) == pytest.approx(exact, abs=8 * np.finfo(float).eps), k


def test_import_loads_no_scipy():
    # nor numpy.polynomial: the Gauss-Legendre tables are held as constants
    scipy_loaded = (
        "sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'polynomial'])"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(K.__file__))}

    def run(code):
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout

    assert run(f"import sys, dagum; print({scipy_loaded})").strip() == "[]"
    # the benchmarked commands stay off the adaptive (scipy) routes too
    commands = [
        ["figure1", "--grid", "1:2:11"],
        ["classify", "aux-cm", "--alpha", "0.05", "--beta", "1.5"],  # eta certificate
        ["classify", "aux-cm", "--alpha", "0.3", "--beta", "1.5"],  # Undetermined
        ["classify", "dagum", "--beta", "1.5", "--gamma", "0.3"],  # derivative scan
        ["classify", "aux-lcm", "--alpha", "0.5", "--beta", "1.5"],
        ["classify", "g", "--alpha", "0.5", "--lambda", "0.5"],
        ["eval", "dagum", "--beta", "1.5", "--gamma", "0.3", "--grid", "0:5:11"],
        ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--dims", "2", "--n", "20"],
        ["search", "dagum", "--beta", "3", "--gamma", "0.2", "--trials", "4", "--n", "20"],
        ["simulate", "dagum5", "--gamma", "1", "--epsilon", "0.5", "--n", "64"],
        ["decouple", "--family", "dagum5", "--gamma", "1", "--epsilon", "0.5"],
    ]
    out = run(
        "import sys\nfrom dagum import cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        f"print(codes, {scipy_loaded})"
    )
    assert '"kind": "eta_sign"' in out and '"status": "Undetermined"' in out
    assert out.strip().splitlines()[-1] == f"{[0] * len(commands)} []"


def test_package_names_no_module():
    # each function is imported from its module, which import dagum does not
    # load; a fresh interpreter, as another test's imports add those modules
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(K.__file__))}
    code = "import dagum; print(sorted(n for n in vars(dagum) if not n.startswith('_')), dagum.__version__)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[] 0.1.0"


def test_eta_domain():
    with pytest.raises(DomainError):
        K.eta(0.0, 1.5, 1.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError, match="alpha"):
            K.eta(alpha, 1.5, 1.0)
    # s^-a overflows on the contour: an error, not a warning, a NaN or a
    # negative error estimate
    for alpha, t in ((1000.0, 10.0), (1e308, 2.0)):
        with pytest.raises(ConvergenceError):
            K.eta(alpha, 1.5, t)
    # t^(a-1) overflows where the value does: 1e600 / 2 at a = 3, t = 1e300
    with pytest.raises(ConvergenceError):
        K.eta(3.0, 1.5, 1e300)
    with pytest.raises(DomainError):
        K.eta(0.5, 1.5, 0.0)
    with pytest.raises(DomainError):
        K.eta(0.5, 2.5, 1.0)


@pytest.mark.parametrize("alpha", (1e-17, 5e-17))
def test_eta_accepts_every_positive_alpha(alpha, eta_series):
    # also below 2^-54, where alpha - 1 rounds to -1; there eta is phi_b up
    # to a t^a - 1 of about 1e-16
    for beta in (1.0, 1.5, 1.9998, 2.0):
        for t in (0.05, 2.0, 9.0):
            kv = K.eta(alpha, beta, t)
            assert abs(kv.value - eta_series(0.0, beta, t)) <= kv.err_estimate + 1e-12, (beta, t)
    assert math.isfinite(K.eta(5e-324, 1.5, 2.0).value)


@pytest.mark.parametrize("beta", (1.0, 1.0 + 1e-9, 1.5, 1.99, 2.0))
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, "1 - b", 2.0, 3.0))
def test_contour_at_tiny_t_matches_the_series(alpha, beta, eta_series):
    # s^b would overflow and s^-a go subnormal; summed in w = t s, every
    # value is finite, with no warning, and within its estimate, subnormal
    # ones too, also at a subnormal t, where 4.19/t overflows
    alpha = 1.0 - beta if alpha == "1 - b" else alpha
    for t in (5e-324, 1e-310, 1e-300, 1e-250, 1e-200, 1e-160, 1e-132, 1e-100):
        value, err = K._contour(alpha, beta, t)
        want = eta_series(alpha, beta, t)
        assert math.isfinite(value) and abs(value - want) <= err, (t, value, want, err)


@pytest.mark.parametrize("beta", (1.5, 1.9, 2.0))
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, "1 - b", 2.0))
def test_contour_at_large_t_matches_the_cut_integral(alpha, beta, eta_cut):
    # past the series' reach; at b = 2 the residues keep amplitude 1, and their
    # phase t sin(pi/b) rounds by about t eps, which the estimate holds
    alpha = 1.0 - beta if alpha == "1 - b" else alpha
    for t in (1e3, 1e6, 1e12, 1e300):
        value, err = K._contour(alpha, beta, t)
        want = eta_cut(alpha, beta, t)
        assert math.isfinite(value) and abs(value - want) <= err, (t, value, want, err)
        assert t > 1e6 or abs(value - want) <= 1e-10 * max(1.0, abs(want)), (t, value, want)


def test_contour_exponents_are_not_rounded(eta_series):
    # r^(a+b-1) and q^(a-1) with each exponent an exact pair: the rounded
    # a + b - 1 cost 1.5e-13 relative at t = 1e-300
    value, want = K._contour(1.0, 1.0001, 1e-300)[0], eta_series(1.0, 1.0001, 1e-300)
    assert abs(value - want) <= 1e-15 * want, (value, want)
    # from t = 1e50 on at (0.01, 1.5) the sum does not depend on t, so the
    # value over the exact t^(a-1) is one number; the rounded a - 1 moved it
    # by 5e-15 relative between t = 1e50 and 1e300 (the sum itself is 8.8e-13
    # off 1/Gamma(0.01), from rounding and its cut, inside err_estimate)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ratios = [mpmath.mpf(K._contour(0.01, 1.5, t)[0]) / mpmath.mpf(t) ** (mpmath.mpf(0.01) - 1)
                  for t in (1e50, 1e100, 1e200, 1e250, 1e300)]
        assert max(ratios) - min(ratios) <= 1e-15 * ratios[0], ratios


def test_contour_takes_a_bounded_number_of_nodes(monkeypatch):
    # at most about 3500 nodes at every t: the parabola that encloses the
    # poles takes about 12 t of them at b = 2 and 42 sqrt(t) at b = 1.5, and
    # the free one is summed there; 3434 is the most found, at b = 1.1681
    counts = []
    arange = np.arange
    monkeypatch.setattr(np, "arange", lambda n: counts.append(n) or arange(n))
    for beta in (1.0, 1.0 + 1e-9, 1.1681084021, 1.5, 1.9, 2.0 - 1e-9, 2.0):
        for t in (5e-324, 1e-3, 1.0, 10.0, 82.26592835, 1e3, 1e6, 1e12, 1e31, 1e300):
            K._contour(0.5, beta, t)
            assert counts[-1] <= 3500, (beta, t, counts[-1])
    assert max(counts) > 3000  # the ridge at b = 1.1681, t = 82.27


@pytest.mark.parametrize("beta", (1.0, 1.0 + 1e-9, 1.0001, 1.3, 1.5, 1.9, 1.9998, 2.0 - 1e-9, 2.0))
def test_eta_matches_the_series(beta, eta_series):
    # at b = 1 and 2 exactly as inside, for alpha > 1 too, and out to t = 80;
    # at a = 6 and 10, to t = 18, also within 1e-10 of max(1, |P|)
    for alpha in (1e-17, 0.01, 0.3, 0.8, 1.0, 1.5, 3.0, 6.0, 10.0):
        for t in (1e-6, 0.01, 0.5, 2.0, 6.0, 18.0) + ((30.0, 80.0) if alpha <= 3.0 else ()):
            kv, want = K.eta(alpha, beta, t), eta_series(alpha, beta, t)
            gap, scale = abs(kv.value - want), max(1.0, abs(want))
            assert kv.route == "contour"
            assert gap <= kv.err_estimate + 1e-12 * scale, (alpha, t)
            assert alpha <= 3.0 or gap <= 1e-10 * scale, (alpha, t)


def test_eta_is_the_oracle_where_eta_grid_fails_near_one(eta_series):
    # the spectral rule gave 1.305 at this point; the contour is within its
    # own error estimate of the series, with no slack
    beta, alpha, t = 1.0 + 1e-9, 0.01, 1e-6
    kv, want = K.eta(alpha, beta, t), eta_series(alpha, beta, t)
    assert want == pytest.approx(0.876, abs=1e-3)
    assert abs(kv.value - want) <= kv.err_estimate


# One fixed sweep across the route rule's bounds: b = 1.0001 and 1.9999,
# a = 1 and t = ETA_GRID_T_FLOOR, with b at and near both ends, t to 1e-300
SWEEP_BETAS = (1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.00005, 1.0001, 1.02, 1.5, 1.98, 2.0 - 1e-9, 2.0)
SWEEP_TS = (0.0, 1e-300, 1e-12, 1e-8, 1e-6, 1e-3, 0.5, 7.0, 18.0, 60.0)


@pytest.mark.parametrize("beta", SWEEP_BETAS)
def test_grid_kernels_are_their_scalar_kernels_at_every_beta(beta):
    # each grid value within the scalar kernel's error estimate plus
    # 1.2e-10 max(1, |value|), the rule's measured gap to the contour
    def check(grid, kernel, alpha=None):
        for t, value in zip(SWEEP_TS[1:], grid[1:]):
            kv = kernel(t)
            assert abs(value - kv.value) <= kv.err_estimate + 1.2e-10 * max(1.0, abs(kv.value)), (alpha, t)

    ts = np.array(SWEEP_TS)
    phi = K.phi_callable(beta)(ts)
    assert phi[0] == K.phi(beta, 0.0).value
    check(phi, lambda t: K.phi(beta, t))
    for alpha in (1e-12, 0.01, 0.3, 1.0, 1.5, 3.0, 6.0):
        grid = K.eta_grid(alpha, beta, ts)
        assert grid[0] == 0.0
        check(grid, lambda t: K.eta(alpha, beta, t), alpha)


def test_grid_kernels_at_the_points_the_rule_missed(eta_series):
    # the rule gave 1.305 (eta 0.876) and 0.487 (phi 1.01e-6) here
    assert K.eta_grid(0.01, 1.0 + 1e-9, [1e-6])[0] == pytest.approx(0.8759, abs=1e-4)
    assert K.phi_callable(1.02)([1e-300])[0] == pytest.approx(1.0113e-6, rel=1e-4)
    # and 6e-10 and 3e-8 off here, at t near 1e-6 within 1e-8 of b = 2
    for beta, alpha, t in ((2.0 - 1e-9, 0.9, 1.81e-6), (2.0 - 1e-12, 0.85, 1.35e-6)):
        assert abs(K.eta_grid(alpha, beta, [t])[0] - eta_series(alpha, beta, t)) <= 1e-12


def test_eta_is_independent_of_the_scans():
    # it builds no spectral rule and loads no scipy module (a fresh
    # interpreter, as other tests load scipy for ``laplace_check``)
    code = (
        "import sys; from dagum import kernels as K; K._RULES.cache_clear(); "
        "[K.eta(a, b, t) for a in (0.05, 0.5, 1.0, 2.0) for b in (1.0, 1.02, 1.5, 1.98, 2.0)"
        " for t in (0.3, 7.0, 40.0)]; "
        "print(K._RULES.cache_info().currsize,"
        " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(K.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "0 []"


def test_laplace_spot_checks():
    assert K.laplace_check("phi", 1.5, 2.0) <= 1e-6
    assert K.laplace_check("psi", 1.25, 1.0) <= 1e-6
    # closed-form cases are essentially exact
    assert K.laplace_check("phi", 1.0, 2.0) <= 1e-9
    assert K.laplace_check("psi", 2.0, 1.0) <= 1e-9
    assert K.laplace_check("eta", 2.0, 1.0, alpha=0.5) <= 1e-6
    with pytest.raises(DomainError):
        K.laplace_check("phi", 1.5, 0.0)
    with pytest.raises(DomainError):
        K.laplace_check("eta", 1.5, 1.0)


@pytest.mark.parametrize("kernel", ("phi", "psi", "eta"))
def test_laplace_check_rejects_nan_x(kernel):
    # at the boundary, not after a failed quadrature on a NaN integrand
    with pytest.raises(DomainError):
        K.laplace_check(kernel, 1.5, math.nan, alpha=0.5)


def test_kernel_value_contract():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            K.KernelValue(1.0, bad, "closed_form")
