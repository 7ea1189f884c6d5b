import copy
import math
import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagum import classify as C
from dagum import cli
from dagum import fields as F
from dagum import kernels as K
from dagum import models as M
from dagum import numerics as N
from dagum.errors import DomainError, NotPermissibleError, NumericOverflowError


def test_gram_two_points_squared_distance():
    ps = F.PointSet(1, np.array([[0.0], [1.0]]), "pair")
    g = F.gram_matrix("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    assert np.allclose(g, [[1.0, 0.5], [0.5, 1.0]])
    report = F.psd_check("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    assert report.verdict == "psd"
    assert report.min_eigenvalue == pytest.approx(0.5, abs=1e-12)
    assert report.max_eigenvalue == pytest.approx(1.5, abs=1e-12)


def test_gram_single_point():
    ps = F.PointSet(2, np.array([[3.0, 4.0]]), "solo")
    g = F.gram_matrix("cauchy", {"theta": 1.0, "eta": 1.0}, ps, "plain_distance")
    assert g.shape == (1, 1) and g[0, 0] == 1.0


def test_gram_three_points_plain_distance():
    ps = F.PointSet(1, np.array([[0.0], [1.0], [2.0]]), "triple")
    g = F.gram_matrix("cauchy", {"theta": 1.0, "eta": 1.0}, ps, "plain_distance")
    expected = np.array(
        [[1.0, 0.5, 1.0 / 3.0], [0.5, 1.0, 0.5], [1.0 / 3.0, 0.5, 1.0]]
    )
    assert np.allclose(g, expected, atol=1e-14)


def test_gram_permutation_equivariance():
    ps = F.random_point_set(3, 24, seed=5)
    g = F.gram_matrix("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    perm = np.random.Generator(np.random.Philox(key=[1, 2])).permutation(24)
    ps2 = F.PointSet(3, ps.points[perm], "permuted")
    g2 = F.gram_matrix("dagum", {"beta": 0.5, "gamma": 1.0}, ps2, "squared_distance")
    assert np.allclose(g2, g[np.ix_(perm, perm)], atol=1e-14)
    assert np.allclose(np.linalg.eigvalsh(g), np.linalg.eigvalsh(g2), atol=1e-10)


def test_conventions_differ():
    ps = F.PointSet(1, np.array([[0.0], [2.0]]), "pair")
    sq = F.gram_matrix("cauchy", {"theta": 1.0, "eta": 1.0}, ps, "squared_distance")
    pl = F.gram_matrix("cauchy", {"theta": 1.0, "eta": 1.0}, ps, "plain_distance")
    assert sq[0, 1] == pytest.approx(0.2)  # rho(4)
    assert pl[0, 1] == pytest.approx(1.0 / 3.0)  # rho(2)
    with pytest.raises(DomainError):
        F.gram_matrix("cauchy", {"theta": 1.0, "eta": 1.0}, ps, "euclid")


def test_proven_cm_models_pass_psd_on_random_sets():
    proven_cm = [
        ("dagum", {"beta": 0.5, "gamma": 1.0}),
        ("dagum", {"beta": 1.2, "gamma": 0.1}),
        ("dagum5", {"gamma": 1.0, "epsilon": 0.5}),
        ("aux", {"alpha": 0.0, "beta": 0.7}),
    ]
    for model, params in proven_cm:
        for d in (1, 3):
            for trial in range(3):
                ps = F.random_point_set(d, 60, seed=11, trial=trial)
                report = F.psd_check(model, params, ps, "squared_distance")
                assert report.verdict == "psd", (model, params, d, trial)


# (model, params, dims, n, sets, convention): 14 sets in chunks of 3, the last
# of 2; 14 in chunks of 9 and 5; 40 in chunks of 17, 17 and 6
PSD_LANE_CASES = (
    ("cauchy", {"theta": 1.5, "eta": 0.7}, (1, 3), 200, 7, "squared_distance"),
    ("cauchy", {"theta": 1.5, "eta": 0.7}, (1, 3), 60, 7, "squared_distance"),
    ("dagum5", {"gamma": 1.0, "epsilon": 0.5}, (1, 3), 30, 20, "plain_distance"),
)


@pytest.mark.parametrize("case", PSD_LANE_CASES, ids=("n200", "n60", "n30"))
def test_psd_checks_are_the_same_on_any_number_of_lanes(monkeypatch, case):
    # each set's report is psd_check's on that set, in (dimension, set) order;
    # 3 lanes is more threads than a 2-CPU host has, and a short switch
    # interval interleaves the lanes
    model_id, params, dims, n, sets, convention = case
    want = cli.psd_reports_to_csv([
        F.psd_check(model_id, params, F.random_point_set(d, n, 5, k), convention)
        for d in dims for k in range(sets)
    ])
    chunks = -(-len(dims) * sets // (500 // n + 1))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    real, started = N.threading.Thread, []
    monkeypatch.setattr(N.threading, "Thread", lambda *a, **k: started.append(1) or real(*a, **k))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lanes in (1, 2, 3):
            monkeypatch.setattr(N, "CPUS", lanes)
            started.clear()
            got = F.psd_checks(model_id, params, dims, n, sets, 5, convention)
            assert cli.psd_reports_to_csv(got) == want, lanes
            assert len(started) == min(lanes, chunks) - 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "cpus, env, lanes",
    (
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
        (6, {}, 1),
        (6, {"OPENBLAS_NUM_THREADS": "6"}, 1),
        (6, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        (6, {"OMP_NUM_THREADS": "6"}, 1),
        (6, {"OPENBLAS_NUM_THREADS": "x"}, 1),
        (6, {"OPENBLAS_NUM_THREADS": "2"}, 3),
        (6, {"OMP_NUM_THREADS": "3"}, 2),
        (6, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"}, 4),
        (6, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "3"}, 2),
        (6, {"GOTO_NUM_THREADS": "2"}, 3),
        (6, {"GOTO_NUM_THREADS": "6"}, 1),
        (6, {"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "6"}, 4),
        (6, {"GOTO_NUM_THREADS": "0", "OMP_NUM_THREADS": "3"}, 2),
        (6, {"OPENBLAS_NUM_THREADS": "3", "GOTO_NUM_THREADS": "1"}, 2),
    ),
)
def test_psd_checks_take_the_cpus_the_blas_leaves_free(monkeypatch, cpus, env, lanes):
    # BLAS threads: OPENBLAS_NUM_THREADS, else GOTO_NUM_THREADS, else
    # OMP_NUM_THREADS, else one per CPU, OpenBLAS's order; lanes: CPUs // BLAS
    # threads, at most the 4 chunks, and at least one, which starts no thread
    monkeypatch.setattr(N, "CPUS", cpus)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    real, started = N.threading.Thread, []

    def thread(*args, **kwargs):
        if lanes == 1:
            pytest.fail("a thread started")
        started.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(N.threading, "Thread", thread)
    reports = F.psd_checks("dagum", {"beta": 0.5, "gamma": 1.0}, (1, 2, 3), 30, 20, seed=1)
    assert [r.point_set_id for r in reports] == [
        f"uniform-d{d}-n30-s1-t{k}" for d in (1, 2, 3) for k in range(20)
    ]
    assert len(started) == lanes - 1


@pytest.mark.parametrize("lanes", (2, 3))
def test_psd_checks_raise_the_first_error_in_set_order(monkeypatch, lanes):
    # chunks of 3 sets: every set past the first chunk raises, naming itself;
    # the second chunk's first set is raised (the first and second chunks
    # always run, each first on its lane), after every lane has ended, though
    # the threads' chunks raise last
    monkeypatch.setattr(N, "CPUS", lanes)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    real, built = F.gram_matrix, []

    def gram(model_id, params, ps, convention):
        built.append(ps.id)
        if not ps.id.endswith(("-t0", "-t1", "-t2")):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            raise ValueError(ps.id)
        return real(model_id, params, ps, convention)

    monkeypatch.setattr(F, "gram_matrix", gram)
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        F.psd_checks("dagum", {"beta": 0.5, "gamma": 1.0}, (1,), 200, 12)
    assert threading.active_count() == before
    assert len(built) == 3 + lanes and raised.value.args == ("uniform-d1-n200-s0-t3",)


def test_psd_checks_reject_empty_budgets():
    for dims, n, sets in (((), 5, 1), ((0, 1), 5, 1), ((1,), 1, 1), ((1,), 5, 0)):
        with pytest.raises(DomainError, match="^need dims >= 1, n >= 2, sets >= 1$"):
            F.psd_checks("dagum", {"beta": 0.5, "gamma": 1.0}, dims, n, sets)


def test_nonpsd_search_proven_cm_finds_nothing():
    res = F.nonpsd_search(
        "dagum", {"beta": 0.5, "gamma": 1.0}, d_max=3, n_points=40, n_trials=12, seed=0
    )
    assert res is None


def test_nonpsd_search_beta_above_two_reported_honestly():
    # beta > 2 breaks positive definiteness in *some* dimension, but the
    # violation is not visible on small random sets; honest None.
    res = F.nonpsd_search(
        "dagum", {"beta": 3.0, "gamma": 0.2}, d_max=5, n_points=60, n_trials=40, seed=0
    )
    assert res is None


def test_nonpsd_search_unbounded_family_probe():
    # unit-diagonal convention with correlations above 1: heuristic witness
    res = F.nonpsd_search(
        "g", {"alpha": 0.5, "lambda": 0.5}, d_max=5, n_points=60, n_trials=40, seed=0
    )
    assert res is not None
    ps, report = res
    assert report.verdict == "indefinite"
    assert report.min_eigenvalue < -F.EIG_TOL * report.max_eigenvalue
    # determinism of the reported configuration
    res2 = F.nonpsd_search(
        "g", {"alpha": 0.5, "lambda": 0.5}, d_max=5, n_points=60, n_trials=40, seed=0
    )
    assert np.array_equal(res2[0].points, ps.points)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(F, name)

    def counted(*args):
        calls.append(fn(*args))
        return calls[-1]

    monkeypatch.setattr(F, name, counted)
    return calls


def test_nonpsd_search_equals_eigen_solving_every_trial(
    monkeypatch, search_cases, search_written_out
):
    # the CSV of each report: test_cli.test_search_csv_equals_eigen_solving_every_trial
    screened = _count_calls(monkeypatch, "_cholesky_completes")
    solved = _count_calls(monkeypatch, "_psd_report")
    late_witnesses = rejected_psd = exhausted = 0
    for args in search_cases:
        screened.clear()
        solved.clear()
        found, expected = F.nonpsd_search(*args), search_written_out(*args)
        rejected_psd += sum(r.verdict == "psd" for r in solved)
        if expected is None:
            assert found is None, args
            exhausted += 1
            continue
        (ps, report), (ref_ps, ref_report) = found, expected
        assert ps.id == ref_ps.id and ps.points.tobytes() == ref_ps.points.tobytes(), args
        assert report == ref_report, args
        late_witnesses += any(screened[:-1])
    # both branches of the screen, before a witness and in used-up budgets
    assert late_witnesses >= 5 and rejected_psd >= 20 and exhausted >= 40


def test_nonpsd_search_eigen_solves_only_the_trials_the_screen_rejects(monkeypatch):
    screened = _count_calls(monkeypatch, "_cholesky_completes")
    solved = _count_calls(monkeypatch, "_psd_report")
    # completely monotonic on squared distances: every factorization completes
    assert F.nonpsd_search("dagum", {"beta": 0.5, "gamma": 1.0}, 3, 100, 8, 0) is None
    assert screened == [True] * 8 and solved == []
    # smooth in 1-D: every factorization fails, every eigen-solve says psd
    screened.clear()
    params = {"theta": 2.0, "eta": 1.0}
    assert F.nonpsd_search("cauchy", params, 1, 100, 4, 0, "plain_distance") is None
    assert screened == [False] * 4 and [r.verdict for r in solved] == ["psd"] * 4
    # the screen's size limit: n (n + 1) 2^-53 <= EIG_TOL / 100 holds up to n = 948
    solved.clear()
    screened.clear()
    F.nonpsd_search("dagum", {"beta": 0.5, "gamma": 1.0}, 1, 948, 1, 0)
    assert screened == [True] and solved == []
    screened.clear()
    F.nonpsd_search("dagum", {"beta": 0.5, "gamma": 1.0}, 1, 949, 1, 0)
    assert screened == [] and [r.verdict for r in solved] == ["psd"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 948),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.floats(-18.0, -6.0),
    n_negative=st.integers(1, 3),
)
# two that the factorization accepts with a computed lambda_min below 0
@example(n=948, seed=1, exponent=-18.0, n_negative=1)
@example(n=300, seed=2, exponent=-18.0, n_negative=1)
def test_cholesky_screen_never_accepts_what_the_rule_calls_indefinite(
    n, seed, exponent, n_negative
):
    # A symmetric matrix with a prescribed spectrum: lambda_max = 1, n_negative
    # eigenvalues at -10^exponent (from rounding level to past -EIG_TOL), the
    # rest uniform in [0, 1].  A completed factorization bounds lambda_min below
    # by about -n (n + 1) 2^-53, which is at most EIG_TOL / 100 here.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0, n)
    lam[0] = 1.0
    lam[1 : 1 + n_negative] = -(10.0**exponent)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * lam) @ q.T
    g = (g + g.T) / 2.0
    eigs = np.linalg.eigvalsh(g)
    if F._cholesky_completes(g):
        assert eigs[0] >= -F.EIG_TOL * eigs[-1], (n, exponent, eigs[0], eigs[-1])
    if exponent > -9.0:  # ten times past the backward error a completed factorization allows
        assert not F._cholesky_completes(g)


def test_non_finite_gram_is_rejected_before_any_solve():
    # x^200 overflows past x = 34.8, and inf/inf is NaN; the pytest configuration
    # turns any RuntimeWarning into an error
    params = {"beta": 200.0, "gamma": 0.5}
    ps = F.PointSet(1, np.array([[0.0], [0.5], [10.0]]), "far")
    for call in (F.gram_matrix, F.psd_check):
        with pytest.raises(NumericOverflowError, match="^dagum leaves the float range$"):
            call("dagum", params, ps, "squared_distance")
    with pytest.raises(NumericOverflowError):
        F.nonpsd_search("dagum", params, 1, 20, 3, 0)
    # simulate's circulant embedding, before the FFT: an overflow, not an
    # embedding that stays indefinite
    with pytest.raises(NumericOverflowError, match="^dagum leaves the float range$"):
        F.simulate_profile("dagum", params, 8, 10.0, seed=1)
    # x^alpha underflows to 0 under g's reciprocal: an infinite entry
    tiny = F.PointSet(1, np.array([[0.0], [1e-150]]), "tiny")
    with pytest.raises(NumericOverflowError, match="^g leaves the float range$"):
        F.gram_matrix("g", {"alpha": 2.0, "lambda": 1.0}, tiny, "squared_distance")


def test_simulate_two_point_correlation_monte_carlo():
    total = 0.0
    n_seeds = 10_000
    for seed in range(n_seeds):
        p = F.simulate_profile("cauchy", {"theta": 1.0, "eta": 1.0}, 2, 1.0, seed)
        total += p.values[0] * p.values[1]
    assert total / n_seeds == pytest.approx(0.5, abs=0.02)


def test_simulate_profile_variance_monte_carlo():
    variances = [
        np.var(F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 512, 1.0, s).values)
        for s in range(100)
    ]
    assert float(np.mean(variances)) == pytest.approx(1.0, abs=0.15)


def test_simulate_not_permissible_at_resolution():
    with pytest.raises(NotPermissibleError, match="smallest eigenvalue") as exc:
        F.simulate_profile("g", {"alpha": 0.5, "lambda": 0.5}, 8, 0.1, seed=0)
    # the eigenvalue is printed as a float repr and is negative past the tolerance
    assert float(str(exc.value).rsplit(" ", 1)[1]) < -F.EIG_TOL


@pytest.mark.parametrize(
    "model_id, params, n, spacing, doublings",
    (
        ("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 256, 1.0, 0),
        ("cauchy", {"theta": 2.0, "eta": 0.5}, 1024, 0.05, 3),
    ),
    ids=("dagum5-minimal", "cauchy-doubled"),
)
def test_simulate_sample_autocovariance_within_4_standard_errors(
    model_id, params, n, spacing, doublings
):
    row, _ = _embedding_written_out(model_id, params, n, spacing)
    assert len(row) == 2 * (n - 1) << doublings
    rho = M.correlation(model_id, params)
    r = np.array([1.0] + [rho(k * spacing) for k in range(1, n)])
    seeds = range(200)
    # The estimate at lag k is S_k / L averaged over the seeds, S_k = sum_i x_i x_(i+k)
    # over L = n - k pairs.  For a zero-mean Gaussian, Var S_k = sum_(i,j) r(i-j)^2
    # + r(i-j-k) r(i-j+k), and d = i - j occurs L - |d| times: the bound is fixed here.
    bounds = []
    for k in range(4):
        L, d = n - k, np.arange(-(n - k - 1), n - k)
        var_s = np.sum((L - np.abs(d)) * (r[np.abs(d)] ** 2 + r[np.abs(d - k)] * r[np.abs(d + k)]))
        bounds.append(4.0 * math.sqrt(var_s / len(seeds)) / L)
    draws = np.array([F.simulate_profile(model_id, params, n, spacing, s).values for s in seeds])
    for k, bound in enumerate(bounds):
        estimate = float(np.mean(np.sum(draws[:, : n - k] * draws[:, k:], axis=1))) / (n - k)
        assert abs(estimate - r[k]) <= bound, (k, estimate, r[k], bound)


def test_local_exponents_analytic():
    assert F.estimate_local_exponent("cauchy", {"theta": 1.0, "eta": 1.0}) == pytest.approx(
        1.0, abs=0.02
    )
    assert F.estimate_local_exponent(
        "dagum5", {"gamma": 1.0, "epsilon": 0.5}
    ) == pytest.approx(0.5, abs=0.02)
    assert F.estimate_local_exponent(
        "dagum5", {"gamma": 2.0, "epsilon": 1.0}
    ) == pytest.approx(1.0, abs=0.02)


def test_tail_exponents_analytic():
    assert F.estimate_hurst_exponent("cauchy", {"theta": 1.0, "eta": 0.5}) == pytest.approx(
        -0.5, abs=0.02
    )
    assert F.estimate_hurst_exponent("cauchy", {"theta": 2.0, "eta": 1.0}) == pytest.approx(
        -1.0, abs=0.02
    )
    # dagum tail decays with the shape parameter gamma, not epsilon
    assert F.estimate_hurst_exponent(
        "dagum5", {"gamma": 1.0, "epsilon": 0.5}
    ) == pytest.approx(-1.0, abs=0.02)
    assert F.estimate_hurst_exponent(
        "dagum5", {"gamma": 0.8, "epsilon": 0.3}
    ) == pytest.approx(-0.8, abs=0.02)


def test_decoupling_local_exponent_invariant_to_tail_parameter():
    slopes = [
        F.estimate_local_exponent("dagum5", {"gamma": g5, "epsilon": 0.5})
        for g5 in (0.8, 1.2, 1.6)
    ]
    assert max(slopes) - min(slopes) <= 0.03
    assert all(s == pytest.approx(0.5, abs=0.02) for s in slopes)


def _raises_at_gram(ps, match):
    # gram_matrix checks the points, so psd_check, psd and search do too, before
    # the convention and the model
    for call in (F.gram_matrix, F.psd_check):
        with pytest.raises(DomainError, match=match):
            call("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    with pytest.raises(DomainError, match=match):
        F.gram_matrix("nope", {}, ps, "euclid")


def test_point_set_validation():
    _raises_at_gram(F.PointSet(2, np.array([[0.0, 0.0], [0.0, 0.0]]), "dup"), "^points must be distinct$")
    _raises_at_gram(F.PointSet(3, np.array([[0.0, 1.0]]), "shape"), "^points must be an")
    _raises_at_gram(F.PointSet(0, np.zeros((2, 0)), "empty"), "^points must be an")
    _raises_at_gram(F.PointSet(1, np.array([0.0, 1.0]), "flat"), "^points must be an")


def test_point_set_distinct_means_positive_squared_distance():
    # 1e-170 squared underflows to 0, so the pair is as good as a duplicate
    _raises_at_gram(F.PointSet(1, np.array([[0.0], [1e-170]]), "underflow"), "distinct")
    # a duplicate that is not the neighbouring row
    pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
    _raises_at_gram(F.PointSet(3, pts, "dup-far"), "distinct")
    tiny = F.PointSet(1, np.array([[0.0], [1e-150]]), "tiny")
    assert tiny.n_points == 2
    assert F.psd_check("cauchy", {"theta": 1.0, "eta": 1.0}, tiny, "plain_distance").n_points == 2


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_point_set_rejects_non_finite(bad):
    # checked before the distances, so no Gram matrix is built from a NaN
    _raises_at_gram(F.PointSet(2, np.array([[0.0, 1.0], [bad, 2.0]]), "bad"), "^points must be finite$")
    _raises_at_gram(F.PointSet(2, np.array([[bad, 1.0]]), "solo"), "^points must be finite$")


def _fresh_twins(ps, points):
    # _replace and _make build a set without any check of their own
    yield ps._replace(points=points)
    yield F.PointSet._make((ps.dimension, points, ps.id))


def test_replaced_point_set_gives_the_gram_matrix_of_a_fresh_set():
    cauchy = ("cauchy", {"theta": 1.0, "eta": 1.0})
    ps = F.PointSet(1, np.array([[0.0], [1.0]]), "pair")
    for twin in _fresh_twins(ps, np.array([[0.0], [3.0]])):
        g = F.gram_matrix(*cauchy, twin, "plain_distance")
        assert g[0, 1] == g[1, 0] == 0.25  # rho(3), not rho(1) = 0.5
        fresh = F.PointSet(1, np.array([[0.0], [3.0]]), "pair")
        for convention in F.CONVENTIONS:
            want = F.gram_matrix(*cauchy, fresh, convention)
            assert F.gram_matrix(*cauchy, twin, convention).tobytes() == want.tobytes()
            assert F.psd_check(*cauchy, twin, convention) == F.psd_check(*cauchy, fresh, convention)
    big = F.random_point_set(3, 20, seed=4)
    moved = big.points[::-1] * 0.5
    for twin in _fresh_twins(big, moved):
        want = F.gram_matrix(*cauchy, F.PointSet(3, moved, big.id), "squared_distance")
        assert F.gram_matrix(*cauchy, twin, "squared_distance").tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "points, match",
    (
        ([[0.0], [0.0]], "^points must be distinct$"),
        ([[0.0], [math.nan]], "^points must be finite$"),
        ([[0.0, 1.0], [2.0, 3.0]], "^points must be an"),
        ([[0.0], [1e200]], "^squared distances must be finite"),
    ),
    ids=("duplicate", "nan", "misshapen", "far"),
)
def test_replaced_point_set_is_checked_at_gram(points, match):
    ps = F.PointSet(1, np.array([[0.0], [1.0]]), "pair")
    for twin in _fresh_twins(ps, np.array(points)):
        _raises_at_gram(twin, match)
    # a list of points is checked the same way
    _raises_at_gram(ps._replace(points=points), match)


def _same(a, b):
    # equal values of the same types, arrays by dtype, shape and bytes
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_records_round_trip_copy_and_pickle():
    certificate = C.Certificate("eta_sign", 7.25, None, -1e-3)
    params = {"gamma": 1.0, "epsilon": 0.5}
    ps = F.random_point_set(2, 5, seed=1)
    records = (
        certificate,
        C.Verdict("ProvenNotCM", "numeric certificate", certificate, "a note"),
        C.ThresholdTable(np.linspace(1.0, 2.0, 11), np.arange(11.0), np.arange(11.0) / 2, 1.738),
        K.phi(1.5, 2.0),
        ps,
        F.psd_check("dagum5", params, ps, "squared_distance"),
        F.simulate_profile("dagum5", params, 8, 0.5, seed=1),
    )
    assert {type(r).__name__ for r in records} == {
        "Certificate", "Verdict", "ThresholdTable", "KernelValue", "PointSet", "PsdReport", "Profile"
    }
    for r in records:
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert _same(twin, r), type(r).__name__


# The closed forms on arrays, written out independently of dagum.models.
def _dagum_ref(beta, gamma, d):
    u = d ** beta
    return 1.0 - (u / (1.0 + u)) ** gamma


GRAM_REFERENCE = {
    "dagum": ({"beta": 0.7, "gamma": 1.3}, lambda d: _dagum_ref(0.7, 1.3, d)),
    "dagum5": ({"gamma": 1.5, "epsilon": 0.6}, lambda d: _dagum_ref(1.5, 0.6 / 1.5, d)),
    "cauchy": ({"theta": 1.2, "eta": 0.8}, lambda d: (1.0 + d ** 1.2) ** (-0.8 / 1.2)),
    "aux": ({"alpha": 0.3, "beta": 1.5}, lambda d: 1.0 / (d ** 0.3 * (1.0 + d ** 1.5))),
    "g": ({"alpha": 0.4, "lambda": 0.6}, lambda d: 1.0 / (d ** 0.4 * (1.0 + d * d) ** 0.6)),
}


@pytest.mark.parametrize("model_id", sorted(GRAM_REFERENCE))
@pytest.mark.parametrize("convention", F.CONVENTIONS)
def test_gram_entries_are_the_model_evaluator(model_id, convention):
    params, ref = GRAM_REFERENCE[model_id]
    rho = M.correlation(model_id, params)
    for d in (1, 3):
        ps = F.random_point_set(d, 30, seed=9)
        g = F.gram_matrix(model_id, params, ps, convention)
        arg = F._sq_distances(ps.points)  # the pairs of the strict lower triangle
        if convention == "plain_distance":
            arg = np.sqrt(arg)
        lower = np.tri(30, k=-1, dtype=bool)
        assert np.array_equal(g[lower], ref(arg)) and np.array_equal(g.T[lower], ref(arg))
        assert np.all(np.diag(g) == 1.0)
        # the scalar path agrees up to the last bit of numpy's array power
        scalar = [rho(float(x)) for x in arg]
        assert np.allclose(g[lower], scalar, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spacing", (math.nan, math.inf, 0.0, -1.0))
def test_simulate_rejects_bad_spacing(spacing):
    with pytest.raises(DomainError, match="spacing"):
        F.simulate_profile("cauchy", {"theta": 1.0, "eta": 1.0}, 4, spacing, seed=0)


@pytest.mark.parametrize("model_id", sorted(GRAM_REFERENCE))
@pytest.mark.parametrize("convention", F.CONVENTIONS)
def test_gram_is_exactly_symmetric_with_unit_diagonal(model_id, convention):
    params = GRAM_REFERENCE[model_id][0]
    for d in (1, 2, 3, 5):
        g = F.gram_matrix(model_id, params, F.random_point_set(d, 41, seed=5), convention)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) == 1.0)


def _embedding_written_out(model_id, params, n, spacing):
    # Circulant of size m = 2(n-1) 2^k, k <= 4, the first that has no eigenvalue
    # below -1e-8 times the largest: row[k] = rho(k * spacing) for 0 < k <= m/2,
    # row[0] = 1, and row[m - k] = row[k].
    p, evaluator = M.make_model(model_id, params)
    for k in range(5):
        m = 2 * (n - 1) * 2**k
        half = np.concatenate(([1.0], evaluator(p, np.arange(1, m // 2 + 1) * spacing)))
        row = np.concatenate((half, half[1:-1][::-1]))
        lam = np.fft.rfft(row).real
        if lam.min() >= -1e-8 * lam.max():
            return row, lam
    raise AssertionError("no embedding up to 16 times the minimal size")


SIMULATE_CASES = (
    ("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 0.5, 0),
    ("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 1024, 0.5, 0),
    ("cauchy", {"theta": 2.0, "eta": 0.5}, 1024, 0.0625, 3),
)
SIMULATE_IDS = ("dagum5-64", "dagum5-1024", "cauchy-1024-doubled")


@pytest.mark.parametrize(
    "model_id, params, n, spacing, doublings", SIMULATE_CASES, ids=SIMULATE_IDS
)
def test_simulate_profile_is_fft_draw_of_circulant_embedding(
    model_id, params, n, spacing, doublings
):
    seed = 11
    row, lam = _embedding_written_out(model_id, params, n, spacing)
    m = len(row)
    assert m == 2 * (n - 1) << doublings
    # the profile stream: Philox keyed by (seed, stream tag 2024 << 32)
    z = np.random.Generator(np.random.Philox(key=[seed, 2024 << 32])).standard_normal(m)
    expected = np.fft.irfft(np.sqrt(np.maximum(lam, 0.0)) * np.fft.rfft(z), m)[:n]
    profile = F.simulate_profile(model_id, params, n, spacing, seed)
    assert profile.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "model_id, params, n, spacing, doublings", SIMULATE_CASES, ids=SIMULATE_IDS
)
def test_circulant_embedding_leading_block_is_the_gram_matrix(
    model_id, params, n, spacing, doublings
):
    # Dyadic spacings keep i * h - j * h = (i - j) * h exact, so the grid's Gram
    # matrix is Toeplitz to the last bit; at h = 0.05 it is not.
    row, _ = _embedding_written_out(model_id, params, n, spacing)
    ps = F.PointSet(1, (np.arange(n) * spacing)[:, None], "grid")
    gram = F.gram_matrix(model_id, params, ps, "plain_distance")
    i = np.arange(n)
    block = row[(i[None, :] - i[:, None]) % len(row)]
    assert block.tobytes() == gram.tobytes()


def _sq_distances_written_out(pts):
    # per coordinate squares; even coordinates summed in order, odd ones in
    # order, then the two sums added
    sq = [(c[:, None] - c[None, :]) * (c[:, None] - c[None, :]) for c in pts.T]
    even, odd = sq[0], np.zeros_like(sq[0])
    for s in sq[2::2]:
        even = even + s
    if len(sq) > 1:
        odd = sq[1]
        for s in sq[3::2]:
            odd = odd + s
    return even + odd


@pytest.mark.parametrize("d", range(1, 10))
def test_sq_distances_sum_even_and_odd_coordinates_apart(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        pts = rng.uniform(-10.0, 10.0, (37, d)) * rng.uniform(1e-3, 1e3, d)
        lower = np.tri(len(pts), k=-1, dtype=bool)
        want = _sq_distances_written_out(pts)
        assert F._sq_distances(pts).tobytes() == want[lower].tobytes()


@pytest.mark.parametrize(
    "pts",
    (
        [[0.0], [1e200]],
        [[-1e308], [1e308]],  # the difference itself overflows
        [[0.0, 0.0], [1.2e154, 1.2e154]],  # each square is finite, the sum is not
    ),
)
def test_point_set_rejects_overflowing_squared_distances(pts):
    pts = np.array(pts)
    _raises_at_gram(F.PointSet(pts.shape[1], pts, "far"), "^squared distances must be finite")


def test_simulate_rejects_overflowing_spacing():
    with pytest.raises(DomainError, match="squared distances must be finite"):
        F.simulate_profile("dagum", {"beta": 1.0, "gamma": 0.5}, 3, 1e200, seed=1)


def test_gram_working_set_is_small():
    # gram_matrix computes one squared distance per pair; the model's
    # temporaries and the distances go before the n x n output.  simulate
    # builds no Gram matrix: its working set is a few vectors of the
    # embedding's size 2(n-1).
    params = {"gamma": 1.0, "epsilon": 0.5}
    F.simulate_profile("dagum5", params, 16, 0.5, seed=1)
    n = 512
    tracemalloc.start()
    try:
        F.simulate_profile("dagum5", params, n, 0.5, seed=1)
        sim_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        F.psd_check("dagum5", params, F.random_point_set(5, n, seed=1), "squared_distance")
        psd_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim_peak < 16 * 8 * n  # about 12 n doubles: the row, its spectrum, z, FFT temporaries
    assert psd_peak < 4 * 8 * n * n  # 6 n^2 doubles with an (n, n, d) difference array
