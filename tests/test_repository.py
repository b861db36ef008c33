"""Checks on the repository's own files: the demos run, the package
raises its numerical guards explicitly instead of with ``assert``, which
``python -O`` strips, importing it leaves ``multiprocessing`` unloaded,
every public name has a caller outside the tests, every option of a
public function is set by some caller, and each committed
``BENCH_*.json`` summarises its own per-run values."""

import ast
import json
import math
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


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_env_with_src(),
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


def test_import_leaves_multiprocessing_unloaded():
    # the replicate workers import it on first use, so set-up does not pay for it
    code = "import sys, condrand; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


# Options that no call sets but that stay, each with its reason.
UNSET_OPTIONS_KEPT = {
    # the seam through which an exact-boundary oracle hands in its fractions
    "estimate_boundaries(info_fractions)",
    # the interim count N1(j) of a prefix; the callers so far want N1(n)
    "TreatmentSequence.count(upto)",
    # raw scores at a look, as every other scoring function takes them
    "interim_statistic(kind)",
    # inputs of the sample-size formula; the demo plans at their defaults
    "mc_sample_size(rel_error)",
    "mc_sample_size(confidence)",
}
STUDIES = ("sample_size_grid", "tail_estimate_repeatability", "monitored_trial_type_i_error")


def _defaulted_parameters(fn: ast.FunctionDef, method: bool):
    """(name, position) of each parameter with a default; keyword-only
    parameters have position None, and a method's positions skip self
    (the package defines no static methods)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - method) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_option_is_set_by_some_caller():
    # an option that every caller leaves at its default is a constant
    init = ROOT / "src" / "condrand" / "__init__.py"
    owners = {
        alias.asname or alias.name: node.module
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    owners.update(dict.fromkeys(STUDIES, "experiments"))
    options = []  # (label, name the call uses, parameter, position)
    for name, module in owners.items():
        for node in ast.parse((ROOT / "src" / "condrand" / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                options += [(name, name, *p) for p in _defaulted_parameters(node, False)]
            if isinstance(node, ast.ClassDef) and node.name == name:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        callee = name if fn.name == "__init__" else fn.name
                        label = f"{name}.{fn.name}"
                        options += [(label, callee, *p) for p in _defaulted_parameters(fn, True)]
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in SOURCES + sorted((ROOT / "bench").glob("*.py")) + DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                callee = getattr(node.func, "id", None) or node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                # a ** argument shows up as a keyword named None
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(callee, []).append(
                    (math.inf if starred else len(node.args), keywords)
                )
    unset = {
        f"{label}({param})"
        for label, callee, param, position in options
        if not any(
            param in keywords or None in keywords or position is not None and count > position
            for count, keywords in calls.get(callee, [])
        )
    }
    assert options and unset == UNSET_OPTIONS_KEPT, unset ^ UNSET_OPTIONS_KEPT


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
