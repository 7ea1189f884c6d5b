"""Which statements of ``dagum`` the op list of ``tests/stdout_ops.py`` runs,
and which public functions no op enters, by the stdlib ``trace`` module.

    PYTHONPATH=src python tests/command_coverage.py >> summary.md

writes Markdown: per module, the statements the ops run out of the total,
then the public functions and methods that no op enters.  The ops' own
output is discarded.  A statement is a line that holds bytecode; a function
is entered if the first statement of its body runs.  The README sorts every
function that no op enters into its lists of code only tests reach.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
import trace
import types
from pathlib import Path

import stdout_ops


def statement_lines(path: Path) -> set:
    """The lines of ``path`` that hold bytecode, nested code objects included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0: a code object's entry
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def public_functions(path: Path):
    """(qualified name, first body line) of each public module-level function
    and each public method of a public class; a docstring is not a statement."""
    for node in ast.parse(path.read_text()).body:
        members = [(None, node)]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            members = [(node.name, item) for item in node.body]
        for owner, fn in members:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
                yield (f"{owner}.{fn.name}" if owner else fn.name), body[0].lineno


def main() -> int:
    # no ``ignoredirs``: ``trace`` keeps its ignore decision per bare module name,
    # so an ignored ``numpy/__init__.py`` would drop ``dagum/__init__.py`` too
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)  # psi_max's and psd's lanes
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracer.runfunc(stdout_ops.main)
    threading.settrace(None)
    counts = tracer.results().counts
    package = Path(sys.modules["dagum"].__file__).resolve().parent
    ran_lines = {}
    for name, line in counts:
        ran_lines.setdefault(Path(name).resolve(), set()).add(line)
    print("| module | statements run | statements |\n| --- | --- | --- |")
    unentered = []
    for path in sorted(package.glob("*.py")):
        ran = ran_lines.get(path, set())
        lines = statement_lines(path)
        print(f"| `dagum.{path.stem}` | {len(lines & ran)} | {len(lines)} |")
        unentered += [f"`{path.stem}.{name}`" for name, line in public_functions(path) if line not in ran]
    print(f"\nPublic functions that no op enters ({len(unentered)}): {', '.join(unentered)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
