"""Output checks, one per operation kind.

``check(op, result)`` returns ``None`` when the output is right, else a
reason.  The checks use only facts fixed by how the inputs were drawn and
by the paper, never the seed.  Sign certificates are confirmed afterwards,
outside every timed section, by ``confirm``: eta-sign witnesses with the
adaptive `dagum.kernels.eta` route, derivative-sign witnesses with mpmath.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

EIG_TOL = 1e-8
NUMERIC = "numeric certificate"


class Bad(Exception):
    pass


def need(cond, reason: str) -> None:
    if not cond:
        raise Bad(reason)


def round_trips(text: str) -> float:
    """A CSV float must re-emit to the same bytes."""
    v = float(text)
    need(repr(v) == text, f"float {text!r} does not round-trip")
    return v


def check(op: dict, result: dict):
    try:
        need(result["rc"] == 0, f"exit code {result['rc']}: {result['err'][-300:]}")
        CHECKS[op["kind"]](op, result["out"], op["expect"])
    except Bad as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return None


# -- figure1 --------------------------------------------------------------------


def _figure1(op, out, expect):
    lines = out.splitlines()
    need(out.endswith("\n"), "missing final newline")
    need(lines[0] == "beta,psi_max,one_plus_inv_beta,l_beta", "bad header")
    rows = [line.split(",") for line in lines[1:-1]]
    need(len(rows) == 101, f"{len(rows)} rows, expected 101")
    betas = np.linspace(1.0, 2.0, 101)
    for (b, psi, inv, ell), want in zip(rows, betas):
        b, psi, inv, ell = (round_trips(v) for v in (b, psi, inv, ell))
        need(b == float(want), f"grid point {b!r} is off the 1:2:101 grid")
        need(inv == 1.0 + 1.0 / b, f"1 + 1/beta wrong at beta={b!r}")
        need(ell == b * (psi - 1.0), f"l != b (Psi - 1) at beta={b!r}")
        need(1.0 <= psi <= 2.0, f"Psi({b!r}) = {psi!r} outside [1, 2]")
    need(float(rows[0][1]) == 1.0, "Psi(1) != 1")
    need(float(rows[-1][1]) == 2.0, "Psi(2) != 2")
    tag, star = lines[-1].split(",")
    need(tag == "# beta_star", "missing beta_star line")
    need(1.70 <= round_trips(star) <= 1.78, f"beta* = {star} outside [1.70, 1.78]")


# -- certify --------------------------------------------------------------------


def _reject_constant(name):
    raise Bad(f"non-strict JSON constant {name}")


def _verdict(out):
    v = json.loads(out, parse_constant=_reject_constant)
    need(set(v) == {"status", "basis", "certificate", "notes"}, f"verdict keys {sorted(v)}")
    cert = v["certificate"]
    if cert is not None:
        need(math.isfinite(cert["value"]) and cert["value"] < 0.0,
             f"certificate value {cert['value']!r} is not finite and negative")
        need(math.isfinite(cert["location"]), "certificate location not finite")
    return v


def _number_after(pattern: str, notes: str) -> float:
    m = re.search(pattern + r"\s*=?\s*(-?[0-9.]+(?:e-?[0-9]+)?)", notes)
    need(m is not None, f"notes lack {pattern!r}: {notes!r}")
    return float(m.group(1))


def _label(op, out, e):
    v = _verdict(out)
    need((v["status"], v["basis"]) == (e["status"], e["basis"]),
         f"got {v['status']} / {v['basis']}, region implies {e['status']} / {e['basis']}")
    need(v["certificate"] is None, "theorem verdict carries a certificate")


def _lcm(op, out, e):
    v = _verdict(out)
    need(v["basis"] == "Eq. (4.2)", f"aux-lcm with 1 < beta < 2 cites {v['basis']!r}")
    ell = _number_after(r"l\([^)]*\)", v["notes"])
    need(0.0 < ell < e["beta"], f"l(beta) = {ell} outside (0, beta)")
    want = "ProvenLCM" if e["alpha"] >= ell else "ProvenNotLCM"
    need(v["status"] == want, f"{v['status']} but alpha={e['alpha']} vs l={ell}")


def _dagum_open(op, out, e):
    v = _verdict(out)
    if v["basis"] == "Theorem 9(iii)":
        need(v["status"] == "ProvenCM", "Theorem 9(iii) must give ProvenCM")
        # The sufficient condition needs l(beta) < 1, that is beta < beta*.
        need(e["beta"] < 1.78, f"Theorem 9(iii) cited at beta={e['beta']} > beta*")
        cap = _number_after(r"\(beta \+ l\)", v["notes"])
        need(e["gamma"] <= cap, f"gamma={e['gamma']} above the bound {cap}")
        return
    need(v["basis"] == NUMERIC, f"open-region dagum cites {v['basis']!r}")
    if v["status"] == "ProvenNotCM":
        need(v["certificate"] and v["certificate"]["kind"] == "derivative_sign",
             "refutation without a derivative_sign certificate")
    else:
        need(v["status"] == "Undetermined" and v["certificate"] is None,
             f"open-region dagum gave {v['status']}")


def _eta_cert(op, out, e):
    v = _verdict(out)
    need(v["status"] == "ProvenNotCM" and v["basis"] == NUMERIC,
         f"alpha well below c(beta) gave {v['status']} / {v['basis']}")
    need(v["certificate"] and v["certificate"]["kind"] == "eta_sign",
         "refutation without an eta_sign certificate")


def _undetermined(op, out, e):
    v = _verdict(out)
    need(v["status"] == "Undetermined" and v["basis"] == NUMERIC,
         f"alpha above c(beta) gave {v['status']} / {v['basis']}")
    m = re.search(r"bracketed in \[([0-9.e-]+), ([0-9.e-]+)\]", v["notes"])
    need(m is not None, "Undetermined aux-cm verdict lacks a c bracket")
    lo, hi = float(m.group(1)), float(m.group(2))
    need(0.0 <= lo <= hi <= e["beta"] / 2.0 + 1e-4, f"c bracket [{lo}, {hi}] is not in [0, beta/2]")


# -- fields ---------------------------------------------------------------------

PSD_HEADER = ("model,params,point_set_id,convention,n_points,dimension,"
              "min_eigenvalue,max_eigenvalue,verdict")


def _psd_row(row: str) -> tuple:
    cols = row.split(",")
    need(len(cols) == 9, f"psd row has {len(cols)} columns")
    mn, mx = round_trips(cols[6]), round_trips(cols[7])
    rule = "indefinite" if mn < -EIG_TOL * mx else "psd"
    need(cols[8] == rule, f"verdict {cols[8]} but min={mn!r}, max={mx!r}")
    return int(cols[4]), int(cols[5]), cols[8]


def _psd(op, out, e):
    lines = out.splitlines()
    need(lines[0] == PSD_HEADER, "bad psd header")
    rows = [_psd_row(r) for r in lines[1:]]
    need(len(rows) == len(e["dims"]) * e["sets"], f"{len(rows)} psd rows")
    need(sorted({d for _, d, _ in rows}) == e["dims"], "dimensions differ from --dims")
    need(all(n == e["n"] for n, _, _ in rows), "n_points differs from --n")
    if e["all_psd"]:
        need(all(v == "psd" for _, _, v in rows), "a CM model gave an indefinite Gram matrix")


def _search(op, out, e):
    lines = out.splitlines()
    need(lines[0] == PSD_HEADER and len(lines) == 2, "search prints a header and one line")
    if lines[1].startswith("# none,"):
        return
    need(not e["must_be_none"], "indefinite witness for a completely monotonic model")
    need(_psd_row(lines[1])[2] == "indefinite", "search reported a psd configuration")


def _simulate(op, out, e):
    lines = out.splitlines()
    need(lines[0] == "index,position,value", "bad simulate header")
    need(len(lines) == e["n"] + 1, f"{len(lines) - 1} samples, expected {e['n']}")
    for i, row in enumerate(lines[1:]):
        idx, pos, val = row.split(",")
        need(idx == str(i) and pos == repr(i * e["spacing"]), f"bad position on row {i}")
        need(math.isfinite(round_trips(val)), f"non-finite sample on row {i}")


def _eval(op, out, e):
    lines = out.splitlines()
    need(lines[0] == "x,value", "bad eval header")
    need(len(lines) == e["n"] + 1, f"{len(lines) - 1} rows, expected {e['n']}")
    xs, vals = zip(*(row.split(",") for row in lines[1:]))
    x = np.array([round_trips(s) for s in xs])
    y = np.array([round_trips(s) for s in vals])
    need(np.array_equal(x, np.linspace(0.0, e["hi"], e["n"])), "x grid differs from linspace")
    p = e["params"]
    with np.errstate(divide="ignore"):
        if e["model"] == "dagum":
            u = x ** p["beta"]
            ref = 1.0 - (u / (1.0 + u)) ** p["gamma"]
        else:
            ref = (1.0 + x ** p["theta"]) ** (-p["eta"] / p["theta"])
    need(np.allclose(y, ref, rtol=1e-12, atol=1e-15), "values differ from the closed form")


CHECKS = {
    "figure1": _figure1,
    "label": _label,
    "lcm": _lcm,
    "dagum_open": _dagum_open,
    "eta_cert": _eta_cert,
    "undetermined": _undetermined,
    "psd": _psd,
    "search": _search,
    "simulate": _simulate,
    "eval": _eval,
}


# -- independent confirmation of sign certificates ------------------------------


def confirm(op: dict, out: str):
    """Re-derive a certificate's sign by an independent evaluation; returns
    ``None`` when confirmed (or when the output has no certificate)."""
    if op["kind"] not in ("eta_cert", "dagum_open"):
        return None
    cert = json.loads(out)["certificate"]
    if cert is None:
        return None
    e = op["expect"]
    if cert["kind"] == "eta_sign":
        from dagum.kernels import eta

        kv = eta(e["alpha"], e["beta"], cert["location"])
        if not (math.isfinite(kv.value) and kv.value + kv.err_estimate < 0.0):
            return f"adaptive eta at t={cert['location']!r} is {kv.value!r} +/- {kv.err_estimate!r}"
        return None
    import mpmath

    b, g, n = e["beta"], e["gamma"], cert["order"]
    with mpmath.workdps(40):
        f = lambda x: x ** (b * g - 1) / (1 + x ** b) ** (g + 1)  # noqa: E731
        signed = (-1) ** n * mpmath.diff(f, mpmath.mpf(cert["location"]), n)
        if not signed < 0 or abs(signed - cert["value"]) > 1e-6 * abs(signed):
            return f"mpmath gives (-1)^n f^(n) = {mpmath.nstr(signed, 12)}, certificate {cert['value']!r}"
    return None
