import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagum import fields as F
from dagum import models as M
from dagum.errors import DomainError, NotPermissibleError


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


def test_simulate_profile_determinism():
    a = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=7)
    b = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=7)
    assert F.profile_to_csv(a) == F.profile_to_csv(b)
    c = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=8)
    assert not np.array_equal(a.values, c.values)


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


def test_point_set_validation():
    with pytest.raises(DomainError):
        F.PointSet(2, np.array([[0.0, 0.0], [0.0, 0.0]]), "dup")
    with pytest.raises(DomainError):
        F.PointSet(3, np.array([[0.0, 1.0]]), "shape")


def test_point_set_distinct_means_positive_squared_distance():
    # 1e-170 squared underflows to 0, so the pair is as good as a duplicate
    with pytest.raises(DomainError, match="distinct"):
        F.PointSet(1, np.array([[0.0], [1e-170]]), "underflow")
    # a duplicate that is not the neighbouring row
    pts = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
    with pytest.raises(DomainError, match="distinct"):
        F.PointSet(3, pts, "dup-far")
    assert F.PointSet(1, np.array([[0.0], [1e-150]]), "tiny").n_points == 2


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_point_set_rejects_non_finite(bad):
    # checked before the distances, so no Gram matrix is built from a NaN
    with pytest.raises(DomainError, match="finite"):
        F.PointSet(2, np.array([[0.0, 1.0], [bad, 2.0]]), "bad")


def test_profile_csv_and_psd_csv_shapes():
    p = F.simulate_profile("cauchy", {"theta": 1.0, "eta": 1.0}, 4, 0.5, seed=3)
    text = F.profile_to_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == F.PROFILE_CSV_HEADER
    assert len(lines) == 5
    assert text.endswith("\n")
    ps = F.PointSet(1, np.array([[0.0], [1.0]]), "pair")
    rep = F.psd_check("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    text = F.psd_reports_to_csv([rep])
    assert text.startswith(F.PSD_CSV_HEADER)
    assert "psd" in text.strip().split("\n")[1]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    params=st.dictionaries(st.sampled_from(["alpha", "beta", "lambda"]), FINITE, min_size=1),
    mn=FINITE,
    mx=FINITE,
)
def test_psd_csv_floats_round_trip(params, mn, mx):
    rep = F.PsdReport(
        model_id="g",
        params=params,
        point_set_id="d3-n7-s0-t0",
        convention="plain_distance",
        n_points=7,
        dimension=3,
        min_eigenvalue=mn,
        max_eigenvalue=mx,
        verdict="psd",
    )
    (row,) = csv.DictReader(io.StringIO(F.psd_reports_to_csv([rep])))
    parsed = dict(item.split("=") for item in row["params"].split(";"))
    # hex() tells -0.0 from 0.0 and compares every bit
    assert {k: float(v).hex() for k, v in parsed.items()} == {
        k: v.hex() for k, v in params.items()
    }
    assert float(row["min_eigenvalue"]).hex() == mn.hex()
    assert float(row["max_eigenvalue"]).hex() == mx.hex()


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
        arg = F._sq_distances(ps.points)
        if convention == "plain_distance":
            arg = np.sqrt(arg)
        off = ~np.eye(30, dtype=bool)
        assert np.array_equal(g[off], ref(arg[off]))
        assert np.all(np.diag(g) == 1.0)
        # the scalar path agrees up to the last bit of numpy's array power
        scalar = [rho(float(x)) for x in arg[off]]
        assert np.allclose(g[off], scalar, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("spacing", (math.nan, math.inf, 0.0, -1.0))
def test_simulate_rejects_bad_spacing(spacing):
    with pytest.raises(DomainError, match="spacing"):
        F.simulate_profile("cauchy", {"theta": 1.0, "eta": 1.0}, 4, spacing, seed=0)
    with pytest.raises(DomainError, match="spacing"):
        F.Profile(spacing, np.zeros(4), 0, "cauchy", {"theta": 1.0, "eta": 1.0})


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
        d2 = F._sq_distances(pts)
        assert d2.tobytes() == _sq_distances_written_out(pts).tobytes()
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)


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
    with pytest.raises(DomainError, match="squared distances must be finite"):
        F.PointSet(pts.shape[1], pts, "far")


def test_simulate_rejects_overflowing_spacing():
    with pytest.raises(DomainError, match="squared distances must be finite"):
        F.simulate_profile("dagum", {"beta": 1.0, "gamma": 0.5}, 3, 1e200, seed=1)


def test_gram_working_set_is_small():
    # Point sets keep one squared distance per pair; the model's temporaries
    # and the distances go before the n x n output.  simulate builds no Gram
    # matrix: its working set is a few vectors of the embedding's size 2(n-1).
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
