"""Seeded operation streams for the three benchmark workloads.

An operation is one `dagum` command line (``argv``) plus the facts its
checker needs (``expect``).  Every expectation follows from how the inputs
were drawn, never from the program's own answer, so the checks do not
depend on the seed.

Each stream is a fixed mix of strata: the number of operations of each
kind is constant and only the parameters inside a stratum are random.  That
keeps the work per batch, the median operation and the tail operation in
the same stratum whatever the seed is.
"""

from __future__ import annotations

import random

WORKLOADS = ("figure1", "certify", "fields")

# Batches per run at this commit's speed, for a run of --seconds seconds:
# round(seconds / NOMINAL_BATCH_S), at least MIN_BATCHES.  The count depends
# only on --seconds, so a parent and a change measure the same work.
NOMINAL_BATCH_S = {"figure1": 5.0, "certify": 7.0, "fields": 2.5}
MIN_BATCHES = 2


def batches_for(workload: str, seconds: int) -> int:
    return max(MIN_BATCHES, round(seconds / NOMINAL_BATCH_S[workload]))


def _op(kind: str, argv: list, **expect) -> dict:
    return {"kind": kind, "argv": argv, "expect": expect}


def _spread(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k draws, one from each of k equal slices of (lo, hi), shuffled."""
    width = (hi - lo) / k
    out = [lo + (i + rng.uniform(0.02, 0.98)) * width for i in range(k)]
    rng.shuffle(out)
    return out


def figure1(seed: int) -> list:
    """One `dagum figure1` on the default 101-point grid; it takes no seed."""
    del seed
    return [_op("figure1", ["figure1"])]


def _c_guess(beta: float) -> float:
    # Rough upper estimate of the CM threshold c(beta) (measured brackets:
    # c(1.3) in [0.12, 0.16], c(1.5) in [0.28, 0.33], c(1.7) in [0.50, 0.53]).
    return (beta - 1.0) ** 2 + 0.08


def certify(seed: int) -> list:
    """40 `dagum classify` queries in three latency strata.

    - 12 theorem-branch queries (a few ms, mostly argparse and formatting);
    - 16 queries through psi_max (aux-lcm, open-region dagum);
    - 12 aux-cm queries below beta/2 on the eta scan: 6 well below c(beta),
      which end on an eta-sign certificate, and 6 above it, which end
      Undetermined with a c_bounds bracket.

    Betas are continuous draws, so no two queries share a per-beta table.
    The median operation falls in the middle stratum and the tail in the
    last, whatever the seed.
    """
    rng = random.Random(seed)
    ops = []
    for b in _spread(rng, 1.0, 2.0, 3):
        a = rng.uniform(b / 2.0, b)
        ops.append(_op("label", ["classify", "aux-cm", "--alpha", repr(a), "--beta", repr(b)],
                       status="ProvenCM", basis="Theorem 3(ii)"))
    for b in _spread(rng, 1.0, 2.0, 3):
        g = rng.uniform(1.05, 3.0) / b
        ops.append(_op("label", ["classify", "dagum", "--beta", repr(b), "--gamma", repr(g)],
                       status="ProvenNotCM", basis="Theorem 9 necessity"))
    for _ in range(2):
        lam = rng.uniform(0.05, 1.0)
        a = rng.uniform(2.0 * lam + 0.01, 2.0 * lam + 1.0)
        ops.append(_op("label", ["classify", "g", "--alpha", repr(a), "--lambda", repr(lam)],
                       status="ProvenCM", basis="Remark 4(ii)"))
        lam = rng.uniform(1.0, 2.0)
        a = rng.uniform(lam, 2.0 * lam - 0.01)
        ops.append(_op("label", ["classify", "g", "--alpha", repr(a), "--lambda", repr(lam)],
                       status="ProvenCM", basis="Remark 4(i)"))
        lam = rng.uniform(0.2, 2.0)
        a = rng.uniform(0.0, lam - 0.01)
        ops.append(_op("label", ["classify", "g", "--alpha", repr(a), "--lambda", repr(lam)],
                       status="ProvenNotCM", basis="Remark 4(iv)"))

    for b in _spread(rng, 1.02, 1.98, 8):
        a = rng.uniform(0.0, b)
        ops.append(_op("lcm", ["classify", "aux-lcm", "--alpha", repr(a), "--beta", repr(b)],
                       alpha=a, beta=b))
    for b in _spread(rng, 1.02, 1.98, 8):
        g = rng.uniform(0.02, 0.98) / b
        ops.append(_op("dagum_open", ["classify", "dagum", "--beta", repr(b), "--gamma", repr(g)],
                       beta=b, gamma=g))

    for b in _spread(rng, 1.3, 1.98, 6):
        a = rng.uniform(0.15, 0.6) * (b - 1.0) ** 2
        ops.append(_op("eta_cert", ["classify", "aux-cm", "--alpha", repr(a), "--beta", repr(b)],
                       alpha=a, beta=b))
    for b in _spread(rng, 1.2, 1.8, 6):
        cg = _c_guess(b)
        a = cg + rng.uniform(0.3, 0.9) * (b / 2.0 - cg)
        ops.append(_op("undetermined", ["classify", "aux-cm", "--alpha", repr(a), "--beta", repr(b)],
                       alpha=a, beta=b))

    rng.shuffle(ops)
    return ops


def fields(seed: int) -> list:
    """Ten `psd`, `search`, `simulate` and `eval` commands.

    - 4 psd runs of 40 eigen-solves each at n = 200 in dimensions 1, 2, 3
      and 5 (the same cost whatever the seed); the first two use
      models that are completely monotonic, applied to squared distances,
      so every verdict must be psd;
    - 2 searches: one on a Cauchy model with theta > 1 on squared distances,
      which is not positive definite (a witness exists), and one on a
      completely monotonic Dagum model, which must use up its 120 trials;
    - 2 simulations at n = 1024, where the dense Cholesky is about half the
      time (at n = 2048 one memory-bound simulation was the slowest
      operation and its time wandered by 10-15% between runs whatever the
      host-speed scaling);
    - 2 evaluations on 50001-point grids through the scalar model path.
    """
    rng = random.Random(seed)
    u = rng.uniform

    def dagum5() -> dict:
        gamma = u(0.5, 2.0)
        return {"gamma": gamma, "epsilon": gamma * u(0.2, 0.8)}

    ops = []
    psd = (
        # (model, params, convention, completely monotonic in that convention)
        ("dagum", {"beta": u(0.3, 1.0), "gamma": u(0.1, 0.9)}, "squared_distance", True),
        ("cauchy", {"theta": u(0.3, 1.0), "eta": u(0.2, 2.0)}, "squared_distance", True),
        ("dagum5", dagum5(), "plain_distance", False),
        ("cauchy", {"theta": u(1.0, 2.0), "eta": u(0.2, 2.0)}, "plain_distance", False),
    )
    for model, params, conv, cm in psd:
        dims = [1, 2, 3, 5]
        argv = ["psd", model, *_flags(params), "--dims", "1,2,3,5",
                "--n", "200", "--sets", "10", "--seed", str(rng.randrange(1 << 16)),
                "--convention", conv]
        ops.append(_op("psd", argv, dims=dims, n=200, sets=10, all_psd=cm))

    params = {"theta": u(1.2, 2.0), "eta": u(0.2, 2.0)}
    argv = ["search", "cauchy", *_flags(params), "--n", "60", "--trials", "40",
            "--seed", str(rng.randrange(1 << 16))]
    ops.append(_op("search", argv, must_be_none=False))
    params = {"beta": u(0.3, 1.0), "gamma": u(0.1, 0.9)}
    argv = ["search", "dagum", *_flags(params), "--n", "100", "--trials", "120",
            "--seed", str(rng.randrange(1 << 16))]
    ops.append(_op("search", argv, must_be_none=True))

    for model, params in (("dagum5", dagum5()),
                          ("cauchy", {"theta": u(0.5, 2.0), "eta": u(0.2, 2.0)})):
        spacing = u(0.05, 2.0)
        argv = ["simulate", model, *_flags(params), "--n", "1024",
                "--spacing", repr(spacing), "--seed", str(rng.randrange(1 << 16))]
        ops.append(_op("simulate", argv, n=1024, spacing=spacing))

    for model, params in (("dagum", {"beta": u(0.3, 2.0), "gamma": u(0.1, 2.0)}),
                          ("cauchy", {"theta": u(0.3, 2.0), "eta": u(0.2, 2.0)})):
        hi = u(5.0, 50.0)
        argv = ["eval", model, *_flags(params), "--grid", f"0:{hi!r}:50001"]
        ops.append(_op("eval", argv, model=model, params=params, hi=hi, n=50001))

    rng.shuffle(ops)
    return ops


def _flags(params: dict) -> list:
    out = []
    for k, v in params.items():
        out += [f"--{k}", repr(float(v))]
    return out


def build(workload: str, seed: int) -> list:
    return {"figure1": figure1, "certify": certify, "fields": fields}[workload](seed)
