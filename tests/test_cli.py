import csv
import io
import json

import pytest

from dagum import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rejoin(text: str) -> str:
    """Re-read a CSV document and re-emit it; fields carry no quoting."""
    rows = list(csv.reader(io.StringIO(text)))
    return "\n".join(",".join(row) for row in rows) + "\n"


def test_eval_single_point(capsys):
    code, out, _ = run(["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5)


def test_eval_rejects_bad_params(capsys):
    code, out, err = run(["eval", "dagum", "--beta", "-1", "--gamma", "1", "--x", "1"], capsys)
    assert code == 2
    assert "invalid parameters" in err
    code, _, _ = run(["eval", "dagum", "--beta", "1", "--gamma", "1"], capsys)
    assert code == 2
    code, _, _ = run(
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "1", "--grid", "0:1:5"],
        capsys,
    )
    assert code == 2


def test_eval_grid_row_count(capsys):
    code, out, _ = run(
        ["eval", "cauchy", "--theta", "1", "--eta", "1", "--grid", "0:10:11"], capsys
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 12  # header + 11
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0)


def test_eval_csv_round_trip(capsys):
    code, out, _ = run(
        ["eval", "dagum5", "--gamma", "1", "--epsilon", "0.5", "--grid", "0:5:7"], capsys
    )
    assert code == 0
    assert rejoin(out) == out


def test_unknown_model_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "matern", "--x", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classify_dagum_cm(capsys):
    code, out, _ = run(["classify", "dagum", "--beta", "0.5", "--gamma", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ProvenCM"
    assert payload["basis"] == "Theorem 9(i)"


def test_classify_dagum_product_slightly_above_one(capsys):
    code, out, _ = run(["classify", "dagum", "--beta", "1.5", "--gamma", "0.6667"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "ProvenNotCM"


def test_classify_g_not_cm(capsys):
    code, out, _ = run(["classify", "g", "--alpha", "0.5", "--lambda", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ProvenNotCM"
    assert payload["basis"] == "Remark 4(v)"


def test_classify_requires_family_params(capsys):
    code, _, err = run(["classify", "dagum", "--beta", "0.5"], capsys)
    assert code == 2
    code, _, err = run(
        ["classify", "g", "--alpha", "0.5", "--lambda", "0.5", "--beta", "1"], capsys
    )
    assert code == 2


def test_classify_rejects_nan(capsys):
    code, out, err = run(["classify", "aux-cm", "--alpha", "nan", "--beta", "1.5"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid parameters" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["eval", "aux", "--alpha", "nan", "--beta", "1.5", "--x", "1"],
        ["eval", "dagum", "--beta", "inf", "--gamma", "0.5", "--x", "1"],
        ["eval", "cauchy", "--theta", "1", "--eta", "inf", "--x", "1"],
        ["eval", "g", "--alpha", "1", "--lambda", "nan", "--x", "1"],
        ["eval", "dagum5", "--gamma", "1", "--epsilon", "nan", "--x", "1"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "nan"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "inf"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--grid", "0:inf:5"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--grid", "nan:1:5"],
    ),
)
def test_eval_rejects_non_finite(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_figure1_small_grid(tmp_path, capsys):
    out_path = tmp_path / "fig1.csv"
    code, _, _ = run(["figure1", "--grid", "1:2:11", "-o", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "beta,psi_max,one_plus_inv_beta,l_beta"
    assert len(lines) == 13  # header + 11 rows + beta_star line
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, abs=1e-6)
    assert float(first[3]) == pytest.approx(0.0, abs=1e-6)
    last_row = lines[11].split(",")
    assert float(last_row[1]) == pytest.approx(2.0, abs=1e-6)
    assert float(last_row[3]) == pytest.approx(2.0, abs=1e-6)
    assert lines[12].startswith("# beta_star,")
    star = float(lines[12].split(",")[1])
    assert 1.70 <= star <= 1.78


def test_figure1_nonconvergence_keeps_partial_file(tmp_path, monkeypatch, capsys):
    from dagum import classify
    from dagum.errors import ConvergenceError

    real_psi_max = classify.psi_max

    def flaky(beta, tol=1e-9):
        if beta > 1.35:
            raise ConvergenceError("forced for the exit-code contract")
        return real_psi_max(beta, tol)

    monkeypatch.setattr(cli.C, "psi_max", flaky)
    out_path = tmp_path / "partial.csv"
    code = cli.main(["figure1", "--grid", "1:2:11", "-o", str(out_path)])
    capsys.readouterr()
    assert code == 3
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "beta,psi_max,one_plus_inv_beta,l_beta"
    assert lines[-1].startswith("# error,non-convergence")
    assert len(lines) > 2  # rows before the failure were retained


def test_figure1_rejects_small_grid(capsys):
    code, _, _ = run(["figure1", "--grid", "1:2:5"], capsys)
    assert code == 2
    code, _, _ = run(["figure1", "--grid", "nonsense"], capsys)
    assert code == 2


def test_psd_command(capsys):
    code, out, _ = run(
        [
            "psd", "dagum", "--beta", "0.5", "--gamma", "1",
            "--dims", "1,2", "--n", "20", "--sets", "2", "--seed", "7",
        ],
        capsys,
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 5  # header + 2 dims x 2 sets
    assert all(row.endswith(",psd") for row in rows[1:])
    assert rejoin(out) == out


def test_search_deterministic_files(tmp_path, capsys):
    args = [
        "search", "g", "--alpha", "0.5", "--lambda", "0.5",
        "--dmax", "3", "--n", "30", "--trials", "10", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_search_reports_absence(capsys):
    code, out, _ = run(
        [
            "search", "dagum", "--beta", "0.5", "--gamma", "1",
            "--dmax", "2", "--n", "20", "--trials", "4", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    assert "# none" in out
    assert "proves nothing" in out


def test_simulate_deterministic_and_permissibility(tmp_path, capsys):
    args = [
        "simulate", "dagum5", "--gamma", "1", "--epsilon", "0.5",
        "--n", "64", "--spacing", "1.0", "--seed", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    code, _, err = run(
        [
            "simulate", "g", "--alpha", "0.5", "--lambda", "0.5",
            "--n", "8", "--spacing", "0.1", "--seed", "0",
        ],
        capsys,
    )
    assert code == 4


SEEDED_COMMANDS = (
    ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--dims", "2", "--n", "5", "--sets", "1"],
    ["search", "cauchy", "--theta", "1.5", "--eta", "1", "--n", "10", "--trials", "2"],
    ["simulate", "dagum", "--beta", "0.5", "--gamma", "1", "--n", "3"],
)


@pytest.mark.parametrize("seed", (2**63, 2**64 - 1, 2**64, -(2**63) - 1))
@pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=lambda argv: argv[0])
def test_seed_outside_int64_exits_2(argv, seed, capsys):
    code, out, err = run(argv + ["--seed", str(seed)], capsys)
    assert code == 2 and out == ""
    assert "seed" in err


def test_negative_seed_streams_unchanged(capsys):
    psd, _, simulate = SEEDED_COMMANDS
    code, out, _ = run(simulate + ["--seed", "-1"], capsys)
    assert code == 0
    assert out == (
        "index,position,value\n0,0.0,-1.3371172351174143\n"
        "1,1.0,-0.1780716017561138\n2,2.0,-0.08390854411819658\n"
    )
    code, out, _ = run(psd + ["--seed", "-1"], capsys)
    assert code == 0
    assert out.split("\n")[1].endswith(",0.7754881372545294,1.5600839029589055,psd")
    code, _, _ = run(simulate + ["--seed", str(-(2**63))], capsys)
    assert code == 0


def test_decouple_command(capsys):
    code, out, _ = run(
        ["decouple", "--family", "dagum5", "--gamma", "1", "--epsilon", "0.5"], capsys
    )
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "family,params,local_exponent,tail_exponent"
    fields = rows[1].split(",")
    assert float(fields[2]) == pytest.approx(0.5, abs=0.02)
    assert float(fields[3]) == pytest.approx(-1.0, abs=0.02)


@pytest.mark.parametrize("tol", ("nan", "inf", "0", "-1e-6"))
@pytest.mark.parametrize(
    "argv",
    (
        ["figure1", "--grid", "1:2:11"],
        ["classify", "aux-lcm", "--alpha", "0.3", "--beta", "1.5"],
        ["classify", "dagum", "--beta", "1.5", "--gamma", "0.5"],
        ["classify", "aux-cm", "--alpha", "0.3", "--beta", "1.5"],
    ),
)
def test_tol_must_be_finite_and_positive(argv, tol, capsys):
    code, out, err = run(argv + [f"--tol={tol}"], capsys)
    assert code == 2
    assert out == ""
    assert "--tol must be finite and > 0" in err


@pytest.mark.parametrize("spacing", ("nan", "inf", "0"))
def test_simulate_rejects_bad_spacing(spacing, capsys):
    code, out, err = run(
        ["simulate", "cauchy", "--theta", "1", "--eta", "1", "--n", "4", "--spacing", spacing],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "spacing must be finite and > 0" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["decouple", "--family", "aux", "--alpha", "0.5", "--beta", "1.5"],
        ["decouple", "--family", "g", "--alpha", "0.5", "--lambda", "0.5"],
    ),
)
def test_decouple_degenerate_fit_exits_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("dagum: degenerate exponent fit:")
    assert err.count("\n") == 1


def test_eval_aux_constant_at_zero(capsys):
    code, out, _ = run(
        ["eval", "aux", "--alpha", "0", "--beta", "0", "--grid", "0:2:3"], capsys
    )
    assert code == 0
    assert out == "x,value\n0.0,0.5\n1.0,0.5\n2.0,0.5\n"


@pytest.mark.parametrize(
    "argv,local",
    (
        (["decouple", "--family", "g", "--alpha", "0", "--lambda", "0.6"], 2.0),
        (["decouple", "--family", "aux", "--alpha", "0", "--beta", "1.5"], 1.5),
    ),
)
def test_decouple_alpha_zero_local_exponent(argv, local, capsys):
    # 1 - rho near 0 in closed form, not by cancellation
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[2]) == pytest.approx(local, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    (
        ["classify", "aux-cm", "--alpha", "0.3", "--beta", "1.5"],
        ["classify", "g", "--alpha", "0.5", "--lambda", "0.5"],
    ),
)
def test_tol_rejected_where_classifier_takes_none(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    code, out, err = run(argv + ["--tol", "5"], capsys)
    assert code == 2
    assert out == ""
    assert "takes no --tol" in err
