"""Checks on the repository's own files: the demos run, the package
raises its numerical guards explicitly instead of with ``assert``, which
``python -O`` strips, every public name has a caller outside the tests,
and each committed ``BENCH_*.json`` summarises its own per-run values."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "condrand").glob("*.py"))
BENCHES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def _used_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_export_has_a_caller_outside_the_tests():
    # test-only code belongs in tests/oracles.py, not in the package
    init = ROOT / "src" / "condrand" / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [p for p in SOURCES if p != init]
    callers += sorted((ROOT / "bench").glob("*.py")) + DEMOS
    used = set().union(*map(_used_names, callers))
    readme = (ROOT / "README.md").read_text()
    unused = sorted(
        name for name in exported
        if name not in used and not re.search(rf"\b{name}\b", readme)
    )
    assert exported and not unused, unused


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_bench_file_agrees_with_its_runs(path):
    bench = json.loads(path.read_text())
    assert bench["workloads"]
    for name, workload in bench["workloads"].items():
        assert workload["pairs"] == len(workload["seeds"]), name
        for metric, m in workload["metrics"].items():
            where = (name, metric)
            parent, change = m["parent_values"], m["change_values"]
            assert len(parent) == len(change) == workload["pairs"], where
            for side, values in (("parent", parent), ("change", change)):
                q1, median, q3 = np.percentile(values, [25, 50, 75])
                want = {"median": median, "q1": q1, "q3": q3}
                assert m[side] == pytest.approx(want, rel=1e-12), where
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            assert m["change_wins"] == wins, where
            ratio = m["change"]["median"] / m["parent"]["median"]
            assert m["median_ratio"] == pytest.approx(ratio, rel=1e-12), where


def test_a_bench_file_is_committed():
    assert BENCHES
