import math

import numpy as np
import pytest

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
    with pytest.raises(NotPermissibleError):
        F.simulate_profile("g", {"alpha": 0.5, "lambda": 0.5}, 8, 0.1, seed=0)


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
