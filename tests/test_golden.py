"""Seeded CLI runs whose output must stay byte-identical.

Each case runs one small ``condrand`` command on the inputs in
``tests/golden/`` and compares its whole output with
``tests/golden/<case>.out``.  After a change that is meant to alter the
output, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

import condrand.bruteforce as bruteforce
import condrand.covariance as covariance
import condrand.distributions as distributions
import condrand.sampling as sampling
import condrand.scores as scores
from condrand.cli import main
from oracles import compensated_sum

GOLDEN = Path(__file__).parent / "golden"
SCHEDULE = str(GOLDEN / "schedule60.json")
RESPONSES = str(GOLDEN / "responses60.csv")
SEED = ("--seed", "2012")

CASES = {
    "sample_schedule": (
        "sample", "--design", "bcd:0.75", "--schedule", SCHEDULE, "--count", "6", *SEED,
    ),
    "boundaries_interim": (
        "boundaries", "--design", "bcd:0.75", "--schedule", SCHEDULE,
        "--responses", RESPONSES, "--info", "interim", "--bootstrap", "5",
        "--reps", "400", *SEED,
    ),
    "boundaries_full_raw": (
        "boundaries", "--design", "bcd:0.75", "--schedule", SCHEDULE,
        "--responses", RESPONSES, "--info", "full", "--scores", "raw",
        "--reps", "400", *SEED,
    ),
    "info": (
        "info", "--design", "bcd:0.75", "--schedule", SCHEDULE,
        "--responses", RESPONSES, "--bootstrap", "5", *SEED,
    ),
    "pvalue_direct": (
        "pvalue", "--design", "bcd:0.75", "--responses", str(GOLDEN / "responses40.csv"),
        "--assignments", str(GOLDEN / "assignments40.txt"), "--reps", "2000", *SEED,
    ),
    "dist_table": ("dist", "--design", "bcd:0.75", "--n", "500"),
    "dist_given": ("dist", "--design", "bcd:0.75", "--n", "350", "--given", "250:126"),
    "dist_exact": ("dist", "--design", "bcd:0.75", "--n", "24", "--backend", "exact"),
    "dist_exact_given": (
        "dist", "--design", "bcd:0.75", "--n", "24", "--given", "10:4", "--backend", "exact",
    ),
    "dist_exact_target": (
        "dist", "--design", "bcd:0.6", "--n", "40", "--given", "15:6", "--target", "20",
        "--backend", "exact",
    ),
    "pvalue_exact": (
        "pvalue", "--design", "bcd:0.75", "--responses", str(GOLDEN / "responses40.csv"),
        "--assignments", str(GOLDEN / "assignments40.txt"), "--exact", *SEED,
    ),
    "tables_1": ("tables", "--which", "1", "--reps", "2500", *SEED),
    "tables_2": ("tables", "--which", "2", "--runs", "2", "--reps", "200", *SEED),
    "tables_3": (
        "tables", "--which", "3", "--n", "70", "--runs", "3", "--reps", "200", *SEED,
    ),
}


def run_case(name: str, out: Path) -> int:
    return main([*CASES[name], "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.out"
    assert run_case(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["dist_given", "tables_1"])
def test_output_holds_under_a_compensated_sum(name, tmp_path, monkeypatch, empty_memo):
    # Python 3.12's builtin sum compensates its rounding; these outputs
    # moved under it while the closed forms summed with it.  The empty
    # memo makes the laws be priced under the patched sum
    for module in (distributions, scores):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    out = tmp_path / f"{name}.out"
    assert run_case(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()


def test_output_holds_with_the_memo_cold_and_warm(tmp_path, monkeypatch, empty_memo):
    # a warm run takes every float law, chain table and covariance block
    # from the memo, pricing, building and sweeping none
    sweeps, builds, laws = [], [], []
    inner, build = covariance._block_moments_float, sampling.backward_log_table
    monkeypatch.setattr(
        covariance, "_block_moments_float", lambda *a: sweeps.append(a) or inner(*a)
    )
    monkeypatch.setattr(sampling, "backward_log_table", lambda *a: builds.append(a) or build(*a))
    for pricer in ("_eval_series_float", "_eval_pure_float", "conditional_pmf"):
        price = getattr(distributions, pricer)
        monkeypatch.setattr(
            distributions, pricer, lambda *a, _f=price: laws.append(a) or _f(*a)
        )
    sweeping = ("info", "boundaries_interim", "boundaries_full_raw", "tables_3")
    building = (*sweeping, "tables_2")
    pricing = ("dist_table", "dist_given")
    for name in (*building, *pricing):
        empty_memo.clear()
        for warm in (False, True):
            sweeps.clear()
            builds.clear()
            laws.clear()
            out = tmp_path / f"{name}-{warm}.out"
            assert run_case(name, out) == 0
            assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes(), (name, warm)
            assert bool(sweeps) == (name in sweeping and not warm), (name, warm)
            assert bool(builds) == (name in building and not warm), (name, warm)
            if name in pricing:
                assert bool(laws) != warm, (name, warm)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_holds_with_nothing_kept(name, tmp_path, monkeypatch, empty_memo):
    # under a budget of no bytes every float law, chain table and covariance
    # block is built where it is asked for and handed back unkept
    monkeypatch.setattr(distributions, "MEMO_BYTES", 0)
    out = tmp_path / f"{name}.out"
    assert run_case(name, out) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
    assert not empty_memo


def test_exact_dp_unpacks_one_count_per_pvalue(tmp_path, monkeypatch):
    # each exact p-value's DP is given its count and unpacks that law alone
    forwards, unpacks = [], []
    forward, unpack = bruteforce._forward, bruteforce._unpack
    monkeypatch.setattr(
        bruteforce, "_forward", lambda *a, **k: forwards.append(k) or forward(*a, **k)
    )
    monkeypatch.setattr(bruteforce, "_unpack", lambda *a: unpacks.append(1) or unpack(*a))
    # table 2 prices its four rows with n <= 40 exactly, once each
    for name, pvalues in (("pvalue_exact", 1), ("tables_2", 4)):
        forwards.clear()
        unpacks.clear()
        out = tmp_path / f"{name}.out"
        assert run_case(name, out) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
        assert len(forwards) == len(unpacks) == pvalues, name
        assert all(k["n1"] is not None for k in forwards)


if __name__ == "__main__":
    for case in sorted(CASES):
        if run_case(case, GOLDEN / f"{case}.out") != 0:
            sys.exit(f"{case} failed")
