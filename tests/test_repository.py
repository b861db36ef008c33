"""Checks on the repository's own files: the demos run, the package
raises its numerical guards explicitly instead of with ``assert``, which
``python -O`` strips, importing it leaves ``multiprocessing`` and every
``scipy`` module unloaded, no module imports scipy at module level, each
CLI command loads only the scipy modules it evaluates, every public name,
every top-level function or class and every public method of the package
has a caller in the package, the bench or the demos, the package's public
names are those pinned here, the bench tracer finds every name it
wraps but its one known absentee, every option of a public function is set by some caller, and
each committed ``BENCH_*.json`` summarises its own per-run values."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
import types
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


def test_import_leaves_multiprocessing_and_scipy_unloaded():
    # each is imported where it is first used, so set-up does not pay for it
    code = (
        "import sys, condrand\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


def _outside_functions(node: ast.AST):
    """The nodes that run when their module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _outside_functions(child)


def test_no_module_imports_scipy_at_module_level():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in _outside_functions(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]
    assert SOURCES and not found, found


GOLDEN = ROOT / "tests" / "golden"
LOOKS = (
    "--schedule", str(GOLDEN / "schedule60.json"),
    "--responses", str(GOLDEN / "responses60.csv"),
)
BCD = ("--design", "bcd:0.75")
OBSERVED = (
    "--responses", str(GOLDEN / "responses40.csv"),
    "--assignments", str(GOLDEN / "assignments40.txt"),
)
# the 40 golden subjects as two strata, written by _write_strata
STRATA = ("--responses", "{tmp}/strata.csv", "--assignments", "{tmp}/strata.txt")
SEED = ("--seed", "1")
NO_SCIPY: tuple[str, ...] = ()
COMMAND_SCIPY_MODULES = {
    "dist": (("dist", *BCD, "--n", "60"), NO_SCIPY),
    "dist_exact": (("dist", *BCD, "--n", "24", "--backend", "exact"), NO_SCIPY),
    "sample_schedule": (("sample", *BCD, "--schedule", LOOKS[1], *SEED), NO_SCIPY),
    "pvalue_direct": (("pvalue", *BCD, *OBSERVED, "--reps", "200", *SEED), NO_SCIPY),
    "pvalue_rejection": (
        ("pvalue", *BCD, *OBSERVED, "--method", "rejection", "--reps", "200", *SEED), NO_SCIPY,
    ),
    "pvalue_exact": (("pvalue", *BCD, *OBSERVED, "--exact", *SEED), NO_SCIPY),
    "pvalue_stratified": (
        ("pvalue", *BCD, *STRATA, "--stratified", "--reps", "200", *SEED), NO_SCIPY,
    ),
    "info_interim": (("info", *BCD, *LOOKS, "--bootstrap", "3", *SEED), NO_SCIPY),
    "info_full": (("info", *BCD, *LOOKS, "--mode", "full", *SEED), NO_SCIPY),
    "tables_2": (("tables", "--which", "2", "--runs", "2", "--reps", "100", *SEED), NO_SCIPY),
    "boundaries_pocock_ecdf": (
        (
            "boundaries", *BCD, *LOOKS, "--spending", "pocock", "--quantile", "ecdf",
            "--reps", "200", *SEED,
        ),
        NO_SCIPY,
    ),
    "boundaries": (
        ("boundaries", *BCD, *LOOKS, "--reps", "200", *SEED), ("scipy", "scipy.special"),
    ),
}


def _write_strata(tmp_path: Path) -> None:
    values = (GOLDEN / "responses40.csv").read_text().split()
    seq = (GOLDEN / "assignments40.txt").read_text().strip()
    (tmp_path / "strata.csv").write_text(
        "".join(f"{v},{'A' if i < 24 else 'B'}\n" for i, v in enumerate(values))
    )
    (tmp_path / "strata.txt").write_text(f"{seq[:24]}\n{seq[24:]}\n")


@pytest.mark.parametrize("name", sorted(COMMAND_SCIPY_MODULES))
def test_command_loads_only_the_scipy_it_evaluates(name, tmp_path):
    argv, loaded = COMMAND_SCIPY_MODULES[name]
    _write_strata(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code = (
        "import sys\n"
        "from condrand.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *(m for m in ('scipy', 'scipy.special', 'scipy.stats') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
        env=_env_with_src(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", *loaded], done.stderr


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
    defined = {
        node.name
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # public methods and properties of the package's classes
    defined |= {
        fn.name
        for path in SOURCES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    }
    # a mention in the README is no caller: the demos show the API in use
    callers = [p for p in SOURCES if p != init]
    callers += sorted((ROOT / "bench").glob("*.py")) + DEMOS
    used = set().union(*map(_used_names, callers))
    unused = sorted((exported | defined) - used)
    assert exported and defined and not unused, unused


# the package's public names; a change to the API is an edit of this set
PUBLIC_NAMES = {
    # laws and exact tests
    "conditional_pmf", "exact_conditional_pvalue", "exact_statistic_distribution",
    "pmf_table", "unconditional_pmf",
    # designs, sequences and sampling
    "DesignSpec", "Look", "LookSchedule", "MultilookSampler", "TreatmentSequence",
    "sample_multilook", "simulate_unconditional", "substream",
    # scores and statistics
    "ScoreVector", "StratifiedData", "Stratum", "centered_scores", "interim_statistic",
    "linear_rank_statistic", "stratified_statistic",
    # Monte Carlo tests
    "PValueEstimate", "estimate_pvalue_conditional", "estimate_pvalue_rejection",
    "estimate_pvalue_stratified", "k_percentile", "mc_sample_size",
    "negative_binomial_quantile",
    # monitoring
    "BoundaryResult", "MonitoringDecision", "SpendingFunction", "estimate_boundaries",
    "incremental_alpha", "nonparametric_quantile", "sequential_decision", "spend",
    # covariances and information fractions
    "InformationFraction", "covariance_multilook", "information_at_look",
    "interpolate_scores",
    # errors
    "CondrandError", "DegenerateScoresError", "InfeasibleError",
    "InsufficientAcceptancesError", "NumericalError", "UnderSampleError",
}


def test_public_names_are_pinned():
    import condrand

    public = {
        name
        for name, value in vars(condrand).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES, public ^ PUBLIC_NAMES


def _load_tracing():
    """The bench tracer, loaded by path as the bench loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_finds_its_names():
    # a name the tracer cannot find reads 0 in the bench's per-layer metrics
    tracing = _load_tracing()
    absent = {path for path, _, _ in tracing.TARGETS if tracing._resolve(path) is None}
    # the one known absentee: covariance reaches the table only through the chain
    assert absent == {"condrand.covariance.backward_log_table"}
    # the bench recounts retained shares through the monitoring module's
    # sampler, and counts walk steps from the sampler's horizon
    from condrand import DesignSpec, LookSchedule
    from condrand.monitoring import MultilookSampler

    assert isinstance(MultilookSampler, type)
    sampler = MultilookSampler(DesignSpec.bcd(0.75), LookSchedule.single(10, 5))
    out = sampler.accumulate_statistics(1, 3, [np.zeros(10)])
    assert tracing._walk_steps((sampler, 1, 3), {}, out) == 3 * 10 == 3 * sampler.n


# Options that no call sets but that stay, each with its reason.
UNSET_OPTIONS_KEPT = {
    # the seam through which an exact-boundary oracle hands in its fractions
    "estimate_boundaries(info_fractions)",
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
