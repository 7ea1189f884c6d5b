"""Two-tier comparison of two outputs of ``tests/stdout_ops.py``: exit codes,
statuses, bases, certificate kinds and all other text must be equal, and the
worst relative deviation of each numeric field is printed as a Markdown table,
after a line that counts the ops whose bytes differ.

    python tests/compare_stdout.py base.txt run.txt

exits 1 if an op differs beyond its numbers or the op counts differ.  CI runs
it on the default run against runs under other numpy and OpenBLAS CPU kernels,
and on the parent commit's run against this commit's.
"""

from __future__ import annotations

import collections
import itertools
import json
import re
import sys

NUM = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def main(base_path: str, run_path: str) -> int:
    # each op is "argv -> exit code", its stdout and its stderr, and ends in a NUL
    base, run = (open(path).read().split("\0")[:-1] for path in (base_path, run_path))
    worst, bad = collections.defaultdict(float), []

    def agree(field, a, b):
        """a and b agree but for their numbers, whose relative deviation goes to field."""
        if NUM.sub("#", a) != NUM.sub("#", b):
            return False
        for x, y in zip(map(float, NUM.findall(a)), map(float, NUM.findall(b))):
            worst[field] = max(worst[field], 0.0 if x == y else abs(x - y) / max(abs(x), abs(y)))
        return True

    for a, b in itertools.zip_longest(base, run, fillvalue=""):
        (head, _, a), (head_b, _, b) = a.partition("\n"), b.partition("\n")
        command = head.split("'")[1] if "'" in head else head
        if head != head_b:  # the argv or the exit code
            same = False
        elif a.startswith("{"):  # a verdict: status, basis and certificate kind exactly
            a, b = json.loads(a), json.loads(b)
            ca, cb = a["certificate"] or {}, b["certificate"] or {}
            same = [a["status"], a["basis"], ca.get("kind"), ca.get("order")] == \
                   [b["status"], b["basis"], cb.get("kind"), cb.get("order")]
            same = same and agree("classify notes", a["notes"], b["notes"])
            for key in ("location", "value"):
                same = same and (key not in ca or agree(f"classify certificate {key}", repr(ca[key]), repr(cb[key])))
        else:  # CSV, named by its header, or a message on stderr
            rows_a, rows_b = [r.split(",") for r in a.splitlines()], [r.split(",") for r in b.splitlines()]
            same = [len(r) for r in rows_a] == [len(r) for r in rows_b]
            names = rows_a[0] if rows_a and head.endswith("-> 0") else None
            for ra, rb in zip(rows_a, rows_b) if same else ():
                for j, (x, y) in enumerate(zip(ra, rb)):
                    name = ra[0] if ra[0].startswith("#") else names[j] if names else "message"
                    same = agree(f"{command} {name}", x, y) and same
        if not same:
            bad.append(head)

    differ = sum(a != b for a, b in itertools.zip_longest(base, run))
    print(f"Ops whose bytes differ: {differ} of {len(run)}\n")
    print("| field | worst relative deviation |\n| --- | --- |")
    for field in sorted(worst):
        print(f"| {field} | {worst[field]:.2e} |")
    for head in bad:
        print(f"DIFFERS beyond numbers: {head}")
        print(f"DIFFERS beyond numbers: {head}", file=sys.stderr)
    return int(bool(bad) or len(base) != len(run))


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
