"""List the statements of src/offload_planner that the test suite never runs.

    python tools/uncovered.py [pytest arguments]

Runs pytest in this process under a line tracer (sys.settrace, and
threading.settrace for threads the tests start) that records only lines
of files under src/offload_planner, then parses each of those files with
ast and prints ``path:line`` for every statement, docstrings excepted,
of which no line ran, and their count last. Code the tests run in a
subprocess is not traced. Standard library only; tracing makes the suite
several times slower, so it is not part of the test suite. The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "offload_planner"


def trace_lines(run) -> tuple:
    """(run()'s result, {path: set of line numbers that ran}) for the
    package's files."""
    ran: dict = {}
    prefix = str(PACKAGE)
    tracers: dict = {}  # code object -> its frames' line tracer, or None

    def tracer(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            path = code.co_filename
            tracers[code] = (tracer(ran.setdefault(path, set()))
                             if path.startswith(prefix) else None)
        return tracers[code]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(tree: ast.Module):
    """(first line, the lines any of which runs it) of each statement but
    docstrings. A compound statement runs on its header: its decorators,
    the lines before its first nested statement; a try has no header code
    of its own and runs with its first statement."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or is_docstring(node):
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, ast.Try):
            last = body[0].end_lineno
        elif isinstance(body, list) and body:
            last = max(first, body[0].lineno - 1)
        else:
            last = node.end_lineno
        yield node.lineno, range(first, last + 1)


def uncovered(ran: dict) -> list:
    """``path:line`` of each package statement of which no line ran."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = ran.get(str(path), set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        missed = sorted(first for first, span in statements(tree)
                        if lines.isdisjoint(span))
        out += [f"{path.relative_to(ROOT)}:{line}" for line in missed]
    return out


def main(argv: list) -> int:
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    code, ran = trace_lines(lambda: pytest.main(args))
    missed = uncovered(ran)
    print("\n".join(missed))
    print(f"{len(missed)} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
