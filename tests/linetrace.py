"""List the statements of ``src/condrand`` that no Tier-1 test runs.

    python tests/linetrace.py [pytest arguments, by default the tests directory]

The script runs the Tier-1 suite in this process, under a line tracer
installed with ``sys.settrace`` and ``threading.settrace`` before condrand
is imported.  It then prints each package statement whose first line never
ran, as ``path:line  source``, and their count; a statement counts when
the compiler gives its first line code, so docstrings and ``pass`` do not.
It exits with pytest's status.  Pytest does not collect this file.

Blind spot: only this process is traced.  A statement reached only in a
forked replicate child (``streams._run_child``) or in a command that a test
starts with ``subprocess`` is listed as unrun.  Tracing slows the package's
Python lines, so Hypothesis deadlines are lifted for the run.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "condrand").glob("*.py"))


def _code_lines(code: types.CodeType) -> set[int]:
    """Every line that ``code`` or a code object nested in it gives code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[int]:
    """The first lines of the statements of ``path`` that compile to code."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    firsts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return sorted(firsts & code_lines)


def main(argv: list[str]) -> int:
    # one flag per line, sized up front: a test that counts its allocations
    # with tracemalloc must not see the tracer's own
    ran = {str(path): bytearray(len(path.read_text().splitlines()) + 1) for path in SOURCES}

    def local_tracer(lines: bytearray):
        def trace(frame, event, arg):
            if event == "line":
                lines[frame.f_lineno] = 1
            return trace

        return trace

    tracers = {name: local_tracer(lines) for name, lines in ran.items()}
    known: dict[str, object] = {}

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = tracers.get(str(Path(name).resolve()))
        return known[name]

    sys.path.insert(0, str(ROOT / "src"))
    import hypothesis
    import pytest

    hypothesis.settings.register_profile("linetrace", deadline=None)
    hypothesis.settings.load_profile("linetrace")
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--rootdir", str(ROOT), *(argv or [str(ROOT / "tests")])]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for path in SOURCES:
        text = path.read_text().splitlines()
        for line in statements(path):
            total += 1
            if not ran[str(path)][line]:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}  {text[line - 1].strip()}")
    print(f"{unrun} of {total} statements in src/condrand never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
