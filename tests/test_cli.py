import csv
import io
import json
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagum import classify as C
from dagum import cli
from dagum import fields as F
from dagum import kernels as K
from dagum import models as M

import stdout_ops


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


def test_eval_dagum5_is_dagum_at_derived_params(capsys):
    # dagum5 (gamma5, epsilon) is dagum (beta = gamma5, gamma = epsilon/gamma5)
    for g, e in ((1.0, 0.5), (1.7, 0.3), (0.6, 0.45)):
        code5, out5, _ = run(
            ["eval", "dagum5", "--gamma", repr(g), "--epsilon", repr(e), "--grid", "0:20:2001"],
            capsys,
        )
        code, out, _ = run(
            ["eval", "dagum", "--beta", repr(g), "--gamma", repr(e / g), "--grid", "0:20:2001"],
            capsys,
        )
        assert code5 == code == 0
        assert out5 == out


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


def test_figure1_nonconvergence_exits_3_without_output(tmp_path, monkeypatch, capsys):
    from dagum.errors import ConvergenceError

    real_psi_max = cli.C.psi_max

    def flaky(beta):
        if np.max(beta) > 1.35:
            raise ConvergenceError("forced for the exit-code contract")
        return real_psi_max(beta)

    monkeypatch.setattr(cli.C, "psi_max", flaky)
    out_path = tmp_path / "figure1.csv"
    code = cli.main(["figure1", "--grid", "1:2:11", "-o", str(out_path)])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file


def test_figure1_rejects_small_grid(capsys):
    code, _, _ = run(["figure1", "--grid", "1:2:5"], capsys)
    assert code == 2
    code, _, _ = run(["figure1", "--grid", "nonsense"], capsys)
    assert code == 2
    code, out, err = run(["figure1", "--grid", "0.5:2:11"], capsys)
    assert (code, out) == (2, "")
    assert err == "dagum: invalid parameters: figure1 grid must lie within [1, 2]\n"


@pytest.mark.parametrize(
    "dims,msg",
    (
        ("x", "--dims must be comma-separated integers, got 'x'"),
        ("0", "need dims >= 1, n >= 2, sets >= 1"),
    ),
    ids=("x", "0"),
)
def test_psd_rejects_bad_dims(dims, msg, capsys):
    argv = ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--n", "5", "--sets", "1"]
    code, out, err = run(argv + ["--dims", dims], capsys)
    assert (code, out) == (2, "")
    assert err == f"dagum: invalid parameters: {msg}\n"


def test_tol_widens_the_undetermined_band(capsys):
    # alpha = 0.4503 lies 6.9e-6 above l(1.5) = 0.450293093: past the default
    # band of 1e-6, within one of 1e-5
    argv = ["classify", "aux-lcm", "--alpha", "0.4503", "--beta", "1.5"]
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["status"] == "ProvenLCM"
    code, out, _ = run(argv + ["--tol", "1e-5"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "Undetermined"
    assert verdict["notes"] == "alpha within +/-1e-05 of the numeric threshold l(1.5) = 0.450293093"


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


def test_simulate_stdout_does_not_depend_on_the_blas_thread_count():
    # n = 1024, the size of the benchmark's simulations: large enough that
    # OpenBLAS splits a dense factorization or product across threads
    commands = [
        ["simulate", "dagum5", "--gamma", "1", "--epsilon", "0.5", "--n", "1024",
         "--spacing", "0.5", "--seed", str(seed)]
        for seed in (1, 2)
    ] + [
        ["simulate", "cauchy", "--theta", "1.5", "--eta", "1", "--n", "1024",
         "--spacing", "0.3", "--seed", "3"],
        ["simulate", "cauchy", "--theta", "2", "--eta", "0.5", "--n", "1024",
         "--spacing", "0.05", "--seed", "4"],  # an embedding that needs doublings
    ]
    code = f"from dagum import cli\nfor argv in {commands!r}:\n    assert cli.main(argv) == 0\n"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True, timeout=300,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0].count(b"\n") == len(commands) * 1025
    assert outs[0] == outs[1]


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
        "index,position,value\n0,0.0,-1.339846721828821\n"
        "1,1.0,0.09540598225375241\n2,2.0,-0.0643048017199972\n"
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


def test_figure1_takes_no_tol(capsys):
    # beta* is solved to float spacing; no tolerance is left to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure1", "--grid", "1:2:11", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ("nan", "inf", "0", "-1e-6"))
@pytest.mark.parametrize(
    "argv",
    (
        ["classify", "g", "--alpha", "0.3", "--lambda", "0.5"],
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


def test_main_builds_a_parser_for_each_line_argparse_reads(monkeypatch, capsys):
    # canonical lines build no parser; each line argparse reads (an error,
    # a --flag=value line, --help) builds its own
    builds = []

    def counting_build(real=cli.build_parser):
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    for argv in (
        ["classify", "dagum", "--beta", "0.5", "--gamma", "1"],
        ["classify", "g", "--alpha", "0.5", "--lambda", "0.5"],
        ["eval", "dagum", "--beta", "1", "--gamma", "1", "--x", "1"],
    ):
        assert run(argv, capsys)[0] == 0
    assert builds == []
    with pytest.raises(SystemExit):
        cli.main(["classify", "matern"])
    capsys.readouterr()
    assert len(builds) == 1
    assert run(["classify", "g", "--alpha=0.5", "--lambda=0.5"], capsys)[0] == 0
    assert len(builds) == 2
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    with pytest.raises(SystemExit):
        cli.main(["psd", "--help"])
    capsys.readouterr()
    assert len(builds) == 4
    monkeypatch.undo()
    assert cli.build_parser() is not cli.build_parser()


def test_a_command_loads_only_the_modules_it_runs(capsys):
    # a fresh interpreter: the package loads no module of its own, dagum.cli
    # neither fields nor dataclasses nor argparse, and a psd line loads fields
    # and prints what a process that loaded fields up front prints
    argv = ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--dims", "2", "--n", "5", "--sets", "1"]
    code = (
        "import contextlib, io, sys\n"
        "import dagum\n"
        "print(sorted(m for m in sys.modules if m.startswith('dagum.')))\n"
        "from dagum import cli\n"
        "print([m for m in ('dagum.fields', 'dataclasses', 'argparse') if m in sys.modules])\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(rc, 'dagum.fields' in sys.modules, 'argparse' in sys.modules)\n"
        "sys.stdout.write(out.getvalue())\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=60)
    package, command, ran, psd = proc.stdout.split("\n", 3)
    assert (package, command, ran) == ("[]", "[]", "0 True False")
    assert run(argv, capsys) == (0, psd, "")


_PARSER = cli.build_parser()


def _parsed(argv):
    """The attributes of argparse's namespace for argv, in its order, as repr
    (so that NaN equals NaN)."""
    return repr(vars(_PARSER.parse_args(argv)))


def test_reader_is_argparse_on_every_stdout_op():
    # the bench's certify and fields seeds 1-10 and figure1, and CI's op list
    ops = stdout_ops.OPS + stdout_ops.bench_ops("certify", range(4, 11))
    ops += stdout_ops.bench_ops("fields", range(4, 11))
    for argv in ops:
        ns = cli._read_canonical(argv)
        if argv in stdout_ops.NOT_CANONICAL:
            assert ns is None, argv
        else:
            assert repr(vars(ns)) == _parsed(argv), argv


def _canonical_line(draw):
    """A canonical command line drawn from cli._COMMANDS: its command, its
    positional, then some of its flags once each in any order, every
    required one among them, each with a value of its type and choices."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    cmd = cli._COMMANDS[name]
    argv = [name] + ([draw(st.sampled_from(cmd.choices))] if cmd.positional else [])
    flags, k = draw(st.permutations(cmd.flags)), draw(st.integers(0, len(cmd.flags)))
    for f in flags[:k] + [f for f in flags[k:] if f.required]:
        if f.choices is not None:
            value = st.sampled_from(f.choices)
        elif f.type is float:
            value = st.one_of(st.floats(min_value=0.0).map(repr),
                              st.sampled_from(["nan", "inf", "1_0", " 2", "1e-3 ", "+0.5"]))
        elif f.type is int:
            value = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["1_0", " 2", "+3"]))
        else:
            value = st.text(max_size=12).filter(lambda s: not s.startswith("-"))
        argv += [f"--{f.name}", draw(value)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_reader_is_argparse_on_canonical_lines(data):
    argv = _canonical_line(data.draw)
    ns = cli._read_canonical(argv)
    assert ns is not None and repr(vars(ns)) == _parsed(argv)


@pytest.mark.parametrize("argv", [
    *stdout_ops.NOT_CANONICAL,
    [], ["--help"], ["-h"], ["classify", "--help"], ["classify", "dagum", "-h"],
    ["classify", "dagum", "--beta", "0.5", "--gamma", "1", "-o", "out.json"],
    ["classify", "dagum", "--beta", "0.5", "--bogus", "1"],
    ["classify", "dagum", "--beta", "x"], ["psd", "dagum", "--n", "1.5"],
    ["psd", "cauchy", "--convention", "nope"], ["classify", "matern"], ["matern"],
    ["classify"], ["classify", "--beta", "0.5"], ["figure1", "extra"],
    ["decouple", "--alpha", "0.5"], ["decouple", "--family", "nope"],
    ["classify", "dagum", "--beta"], ["classify", "dagum", "--beta", "--gamma", "1"],
    ["classify", "dagum", "--beta", "-1"], ["classify", "dagum", "--", "--beta", "1"],
    ["eval", "dagum", "--grid", "-1:1:3"],
])
def test_reader_hands_other_lines_to_argparse(argv):
    assert cli._read_canonical(argv) is None


def test_no_state_carries_between_calls(tmp_path, capsys):
    good = ["classify", "aux-cm", "--alpha", "1.2", "--beta", "1.5"]
    first = run(good, capsys)
    assert first[0] == 0 and first[2] == ""
    with pytest.raises(SystemExit) as exc:  # argparse rejects the family
        cli.main(["classify", "matern", "--beta", "1.5", "--tol", "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(good + ["--tol", "1e-3"], capsys)  # aux-cm takes no --tol
    assert (code, out) == (2, "") and "takes no --tol" in err
    path = tmp_path / "verdict.json"
    assert run(good + ["--output", str(path)], capsys) == (0, "", "")
    assert path.read_text() == first[1]
    assert run(good, capsys) == first


def test_concurrent_main_calls_match_serial(tmp_path):
    queries = [
        ["classify", "aux-cm", "--alpha", "1.2", "--beta", "1.5"],
        ["classify", "dagum", "--beta", "0.5", "--gamma", "1"],
        ["classify", "g", "--alpha", "0.5", "--lambda", "0.5"],
        ["classify", "aux-lcm", "--alpha", "0.1", "--beta", "0.7"],
    ]
    serial = []
    for k, argv in enumerate(queries):
        assert cli.main(argv + ["--output", str(tmp_path / f"serial{k}.json")]) == 0
        serial.append((tmp_path / f"serial{k}.json").read_text())

    def work(k):  # -o is argparse's, --output the canonical reader's
        return [
            cli.main(queries[k] + ["-o" if r % 2 else "--output", str(tmp_path / f"thread{k}_{r}.json")])
            for r in range(5)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            codes = list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert codes == [[0] * 5] * 4
    for k in range(4):
        for r in range(5):
            assert (tmp_path / f"thread{k}_{r}.json").read_text() == serial[k]


EVAL_PARAMS = {
    "dagum": {"beta": 1.3, "gamma": 0.7},
    "dagum5": {"gamma": 1.5, "epsilon": 0.6},
    "cauchy": {"theta": 1.2, "eta": 0.8},
    "aux": {"alpha": 0.3, "beta": 1.5},
    "g": {"alpha": 0.4, "lambda": 0.6},
}


def _non_finite_cases():
    """Every eval model and classify family, each parameter NaN or infinite in turn."""
    commands = [(["eval", m, "--x", "1"], m) for m in sorted(M.MODELS)]
    commands += [(["classify", f], C.CLASSIFIERS[f][1]) for f in sorted(C.CLASSIFIERS)]
    for head, model in commands:
        for name in M.MODELS[model].names:
            for bad in ("nan", "inf", "-inf"):
                flags = [f"--{k}={bad if k == name else repr(v)}" for k, v in EVAL_PARAMS[model].items()]
                yield pytest.param(head + flags, name, id=f"{head[0]}-{head[1]}-{name}-{bad}")


@pytest.mark.parametrize("argv,flag", _non_finite_cases())
def test_non_finite_parameter_exits_2_naming_its_flag(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"dagum: invalid parameters: {flag} must be finite\n"


def _eval_argv(model, params, grid):
    flags = [a for k, v in params.items() for a in (f"--{k}", repr(v))]
    return ["eval", model, *flags, f"--grid={grid}"]


def _scalar_rows(model, params, grid):
    """The rows of one scalar model call per point, as eval printed them."""
    rho = M.correlation(model, params)
    lo, hi, n = grid.split(":")
    xs = np.linspace(float(lo), float(hi), int(n)).tolist()
    return "x,value\n" + "".join(f"{x!r},{rho(x)!r}\n" for x in xs)


@pytest.mark.parametrize("model", sorted(M.MODELS))
@pytest.mark.parametrize("grid", ("0:7.3:301", "0.25:7:301", "1e-3:4e3:97", "2.5:2.5:1", "0:0:1"))
def test_eval_grid_rows_are_the_scalar_rows(model, grid, capsys):
    params = dict(EVAL_PARAMS[model])
    if model in ("aux", "g") and grid.startswith("0:"):
        params["alpha"] = 0.0  # only defined at 0 without the x^-alpha factor
    code, out, err = run(_eval_argv(model, params, grid), capsys)
    assert (code, err) == (0, "")
    assert out == _scalar_rows(model, params, grid)


@pytest.mark.parametrize(
    "model,params",
    (("dagum", {"beta": 1.37, "gamma": 0.61}), ("cauchy", {"theta": 0.83, "eta": 1.74})),
)
def test_eval_bench_size_grid_is_the_scalar_rows(model, params, capsys):
    grid = "0:23.71:50001"
    xs = np.linspace(0.0, 23.71, 50001)
    power = next(iter(params.values()))
    # eval's object array of Python floats takes the scalar pow at each point,
    # whichever float64 power kernel numpy dispatches (the AVX-512 one differs
    # from pow at about 8% of these points, the AVX2 and baseline ones nowhere)
    objects = np.array(xs.tolist(), dtype=object) ** power
    assert np.array(objects.tolist()).tobytes() == np.array([x**power for x in xs.tolist()]).tobytes()
    code, out, _ = run(_eval_argv(model, params, grid), capsys)
    assert code == 0
    assert out == _scalar_rows(model, params, grid)


@pytest.mark.parametrize(
    "argv,err",
    (
        (["aux", "--alpha", "0.5", "--beta", "1.2", "--grid", "0:3:7"],
         "aux diverges at x = 0 for alpha > 0; need x > 0"),
        (["g", "--alpha", "0.5", "--lambda", "1.2", "--grid", "0:3:7"],
         "g diverges at x = 0 for alpha > 0; need x > 0"),
        (["dagum", "--beta", "1", "--gamma", "1", "--grid=-1:3:7"], "x must be >= 0"),
        (["cauchy", "--theta", "1", "--eta", "1", "--grid=-1:3:7"], "t must be >= 0"),
    ),
)
def test_eval_grid_domain_errors_unchanged(argv, err, capsys):
    code, out, stderr = run(["eval", *argv], capsys)
    assert (code, out) == (2, "")
    assert stderr == f"dagum: invalid parameters: {err}\n"


OVERFLOWS = (
    # (model and parameters, --x, a grid whose points after the first fail)
    (["dagum", "--beta", "2", "--gamma", "1"], "1e200", "1:1e200:3"),
    (["cauchy", "--theta", "2", "--eta", "1"], "1e200", "1:1e200:3"),
    # x^alpha underflows to 0 and the reciprocal divides by zero
    (["aux", "--alpha", "2", "--beta", "1"], "1e-200", "1e-200:1:3"),
    (["g", "--alpha", "2", "--lambda", "1"], "1e-200", "1e-200:1:3"),
)


@pytest.mark.parametrize("model_args,x,grid", OVERFLOWS, ids=[o[0][0] for o in OVERFLOWS])
@pytest.mark.parametrize("where", ("x", "grid"))
def test_eval_float_overflow_exits_3(model_args, x, grid, where, tmp_path, capsys):
    point = ["--x", x] if where == "x" else [f"--grid={grid}"]
    code, out, err = run(["eval", *model_args, *point], capsys)
    assert (code, out) == (3, "")
    assert err == f"dagum: numeric overflow: {model_args[0]} leaves the float range\n"
    target = tmp_path / "out.csv"
    assert cli.main(["eval", *model_args, *point, "-o", str(target)]) == 3
    assert list(tmp_path.iterdir()) == []


PRODUCT_OVERFLOWS = (
    # x * x and x^a (1 + x^b) overflow to inf on Python floats without an
    # exception; the reciprocal of inf was printed as 0.0 after a RuntimeWarning
    ["eval", "g", "--alpha", "0", "--lambda", "0.5", "--x", "1e200"],
    ["eval", "aux", "--alpha", "1", "--beta", "1.5", "--grid", "1e150:1e200:3"],
)


@pytest.mark.parametrize("argv", PRODUCT_OVERFLOWS, ids=lambda argv: argv[1])
def test_eval_product_overflow_exits_3(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert (code, out, caught) == (3, "", [])
    assert err == f"dagum: numeric overflow: {argv[1]} leaves the float range\n"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dagum.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)
    # below the float range the value is printed as before
    assert run(["eval", "g", "--alpha", "0", "--lambda", "0.5", "--x", "1e100"], capsys)[:2] == (
        0, "x,value\n1e+100,1e-100\n")


NON_FINITE_GRAMS = (
    # x^200 overflows past x = 34.8 and inf/inf is NaN, on which LAPACK's
    # eigen-solve raises "Eigenvalues did not converge" or returns NaN, and
    # the circulant embedding's spectrum is NaN
    ["psd", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "20", "--sets", "1", "--dims", "1"],
    ["search", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "20", "--trials", "3"],
    ["simulate", "dagum", "--beta", "200", "--gamma", "0.5", "--n", "8", "--spacing", "10"],
)


@pytest.mark.parametrize("argv", NON_FINITE_GRAMS, ids=lambda argv: argv[0])
def test_non_finite_gram_exits_3(argv, tmp_path, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "dagum: numeric overflow: dagum leaves the float range\n"
    assert cli.main([*argv, "-o", str(tmp_path / "out.csv")]) == 3
    assert list(tmp_path.iterdir()) == []
    # no warning reaches the stderr of a plain interpreter either
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "dagum.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_simulate_overflowing_spacing_exits_2(capsys):
    argv = ["simulate", "dagum", "--beta", "1", "--gamma", "0.5", "--n", "3",
            "--spacing", "1e200", "--seed", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("dagum: invalid parameters: squared distances must be finite")


# -- one output path: each command returns its text, main writes it ----------

ONE_OF_EACH = (
    ["eval", "cauchy", "--theta", "1", "--eta", "1", "--grid", "0:10:11"],
    ["classify", "aux-cm", "--alpha", "1.2", "--beta", "1.5"],
    ["figure1", "--grid", "1:2:11"],
    ["psd", "dagum", "--beta", "0.5", "--gamma", "1", "--dims", "1,2", "--n", "20", "--sets", "2"],
    ["search", "g", "--alpha", "0.5", "--lambda", "0.5", "--dmax", "3", "--n", "30", "--trials", "10"],
    ["simulate", "dagum5", "--gamma", "1", "--epsilon", "0.5", "--n", "16", "--seed", "1"],
    ["decouple", "--family", "dagum5", "--gamma", "1", "--epsilon", "0.5"],
)


def test_one_of_each_covers_every_command():
    assert sorted(argv[0] for argv in ONE_OF_EACH) == sorted(cli._COMMANDS)


def test_commands_run_without_scipy(capsys):
    # numpy is the only runtime dependency: a fresh interpreter whose import
    # system refuses scipy runs one canonical line of each command, plus an
    # eta sign scan, prints what an in-process run prints, and has loaded
    # neither dataclasses nor argparse
    lines = [*ONE_OF_EACH, ["classify", "aux-cm", "--alpha", "0.05", "--beta", "1.5"]]
    assert all(cli._read_canonical(argv) is not None for argv in lines)
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from dagum import cli\n"
        f"print([cli.main(argv) for argv in {lines!r}], file=sys.stderr)\n"
        "print([m for m in ('dataclasses', 'argparse') if m in sys.modules], file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == f"{[0] * len(lines)}\n[]\n"
    assert proc.stdout == "".join(run(argv, capsys)[1] for argv in lines)


@pytest.mark.parametrize("argv", ONE_OF_EACH, ids=lambda argv: argv[0])
def test_output_file_holds_the_bytes_stdout_would(argv, tmp_path, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "") and out
    target = tmp_path / "out.txt"
    assert run([*argv, "-o", str(target)], capsys) == (0, "", "")
    assert target.read_bytes() == out.encode()
    assert list(tmp_path.iterdir()) == [target]  # no temp file left behind


@pytest.mark.parametrize("flag", ("--output", "-o"))
def test_unwritable_output_exits_2_without_a_temp_file(flag, tmp_path, capsys):
    # a missing directory, and a directory given as the path; --output is the
    # canonical reader's, -o argparse's
    argv = ["classify", "g", "--alpha", "1", "--lambda", "0.5", flag]
    assert (cli._read_canonical(argv + ["x"]) is None) == (flag == "-o")
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(argv + [str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"dagum: invalid parameters: cannot write --output {target}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def test_a_command_builds_at_most_one_spectral_rule(capsys):
    # an eta certificate or a c_bounds bracket asks the rule cache for its one
    # beta; psi_max (lcm, dagum_open, figure1) builds its own rules, and a
    # theorem label none
    builds = {}
    for op in stdout_ops.workloads.build("certify", 1) + stdout_ops.workloads.build("figure1", 1):
        K._RULES.cache_clear()
        assert cli.main(list(op["argv"])) == 0
        builds.setdefault(op["kind"], set()).add(K._RULES.cache_info().misses)
    capsys.readouterr()
    assert builds == {"eta_cert": {1}, "undetermined": {1}, "label": {0}, "lcm": {0},
                      "dagum_open": {0}, "figure1": {0}}


@pytest.mark.parametrize("beta", ("1.000000001", "1.000000000001", "1.0000000000000002"))
def test_classify_aux_cm_just_above_beta_one(beta, capsys):
    # the eta scan keeps no node of the rule there (see test_classify)
    code, out, err = run(["classify", "aux-cm", "--alpha", "0.3", "--beta", beta], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "Undetermined"


def test_simulate_profile_determinism():
    a = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=7)
    b = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=7)
    assert cli.profile_to_csv(a) == cli.profile_to_csv(b)
    c = F.simulate_profile("dagum5", {"gamma": 1.0, "epsilon": 0.5}, 64, 1.0, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_search_csv_equals_eigen_solving_every_trial(search_cases, search_written_out, capsys):
    # what search prints is the CSV of the report the written-out search finds
    for model_id, params, d_max, n_points, n_trials, seed, convention in search_cases:
        flags = [a for k, v in params.items() for a in (f"--{k}", repr(v))]
        code, out, _ = run(
            ["search", model_id, *flags, "--dmax", str(d_max), "--n", str(n_points),
             "--trials", str(n_trials), "--seed", str(seed), "--convention", convention],
            capsys,
        )
        assert code == 0
        expected = search_written_out(model_id, params, d_max, n_points, n_trials, seed, convention)
        if expected is None:
            assert out.startswith(cli.PSD_CSV_HEADER + "\n# none,"), (model_id, params)
        else:
            assert out == cli.psd_reports_to_csv([expected[1]]), (model_id, params)


def test_profile_csv_and_psd_csv_shapes():
    p = F.simulate_profile("cauchy", {"theta": 1.0, "eta": 1.0}, 4, 0.5, seed=3)
    text = cli.profile_to_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == cli.PROFILE_CSV_HEADER
    assert len(lines) == 5
    assert text.endswith("\n")
    ps = F.PointSet(1, np.array([[0.0], [1.0]]), "pair")
    rep = F.psd_check("dagum", {"beta": 0.5, "gamma": 1.0}, ps, "squared_distance")
    text = cli.psd_reports_to_csv([rep])
    assert text.startswith(cli.PSD_CSV_HEADER)
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
    (row,) = csv.DictReader(io.StringIO(cli.psd_reports_to_csv([rep])))
    parsed = dict(item.split("=") for item in row["params"].split(";"))
    # hex() tells -0.0 from 0.0 and compares every bit
    assert {k: float(v).hex() for k, v in parsed.items()} == {
        k: v.hex() for k, v in params.items()
    }
    assert float(row["min_eigenvalue"]).hex() == mn.hex()
    assert float(row["max_eigenvalue"]).hex() == mx.hex()
