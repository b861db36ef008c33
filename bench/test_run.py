"""A run ends, and prints its result, however the program fails.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import argparse
import json
import sys
import types

import pytest

import run


class Broken:
    """A workload whose every op raises, as a broken program would."""

    name = "broken"

    def __init__(self, seed: int) -> None:
        self.recorder = types.SimpleNamespace(skipped=0)
        self.finished = False

    def warmup(self) -> None:
        raise RuntimeError("broken program")

    def round(self, k: int) -> list:
        def op():
            raise RuntimeError("broken program")

        return [(op, lambda out: None), (op, lambda out: None)]

    def finish(self) -> None:
        self.finished = True


@pytest.fixture
def broken(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "workloads", types.SimpleNamespace(WORKLOADS={"broken": Broken}))
    monkeypatch.setattr(run, "OUT", tmp_path)

    def setup(args, probes, setups, imports):
        setups.extend([1.0] * probes)
        imports.extend([900.0] * probes)

    monkeypatch.setattr(run, "measure_setup", setup)


def test_a_run_whose_ops_all_raise_ends_with_its_result(broken, capsys):
    args = argparse.Namespace(workload="broken", seed=1, seconds=0.2, trace=0)
    result = run.run_workload(args)
    json.dumps(result)
    assert result["failed"] == result["attempted"] > 0
    assert result["attempted"] % 2 == 0  # whole rounds only
    assert result["correct"] is True  # no op returned, so none was wrong
    assert "ops failed" in capsys.readouterr().err


def test_a_check_that_raises_anything_is_a_failed_check():
    class Wrong(Broken):
        def round(self, k):
            return [(lambda: [], lambda out: 1 / len(out))]

        def finish(self):
            {}["missing"]

    args = argparse.Namespace(seconds=0.05)
    loop = run.timed_loop(args, Wrong(1), None, None)
    assert loop["failed"] == 0 and loop["attempted"] > 0
    assert loop["correct"] is False
    assert not run.guarded(Wrong(1).finish)
    assert run.guarded(Broken(1).finish)
