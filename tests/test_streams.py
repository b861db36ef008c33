"""Replicates in forked workers: the same bytes at any CPU count, every
child joined, and a child's failure raised in the caller."""

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import condrand.streams as streams
from condrand.experiments import monitored_trial_type_i_error


@pytest.fixture
def deadline():
    """Fail a test that has not returned within 30 s instead of hanging."""

    def expire(*_):
        raise TimeoutError("the call did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


def cpus(monkeypatch, count):
    monkeypatch.setattr(streams, "_cpu_count", lambda: count)


def pids(lo, hi):
    return np.full(hi - lo, os.getpid(), dtype=np.int64)


@pytest.mark.parametrize("replications", [1, 2, 5])
def test_study_is_the_same_bytes_at_any_cpu_count(monkeypatch, deadline, replications):
    outputs = set()
    for count in (1, 2, 3):
        cpus(monkeypatch, count)
        out = monitored_trial_type_i_error(
            n=60, look_positions=(40, 50, 60), n_c=300, replications=replications,
            seed=11, bootstrap=5,
        )
        outputs.add(json.dumps(out, sort_keys=True))
    assert len(outputs) == 1
    assert multiprocessing.active_children() == []


def test_slices_run_in_children_and_come_back_in_order(monkeypatch, deadline):
    cpus(monkeypatch, 3)
    assert np.array_equal(streams.map_replicates(lambda lo, hi: np.arange(lo, hi), 10), np.arange(10))
    owners = streams.map_replicates(pids, 10)
    # slices 0..2, 3..5 and 6..9; this process computes the first
    assert (owners[:3] == os.getpid()).all()
    assert len({owners[0], owners[3], owners[6]}) == 3
    assert (owners[3:6] == owners[3]).all() and (owners[6:] == owners[6]).all()
    assert multiprocessing.active_children() == []


def test_one_cpu_or_no_fork_runs_inline(monkeypatch):
    cpus(monkeypatch, 1)
    assert (streams.map_replicates(pids, 4) == os.getpid()).all()
    cpus(monkeypatch, 4)
    assert (streams.map_replicates(pids, 1) == os.getpid()).all()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert (streams.map_replicates(pids, 4) == os.getpid()).all()


def test_child_exception_is_raised_here(monkeypatch, deadline):
    cpus(monkeypatch, 2)

    def fails_late(lo, hi):
        if lo > 0:
            raise ValueError(f"bad replicate {lo}")
        return np.zeros(hi - lo)

    with pytest.raises(ValueError, match="bad replicate 3"):
        streams.map_replicates(fails_late, 6)
    assert multiprocessing.active_children() == []


def test_child_that_exits_without_a_result(monkeypatch, deadline):
    cpus(monkeypatch, 3)

    def dies(lo, hi):
        if lo > 0:
            os._exit(1)
        return np.zeros(hi - lo)

    with pytest.raises(RuntimeError, match=r"replicates 2\.\.3 exited with code 1 and no result"):
        streams.map_replicates(dies, 6)
    assert multiprocessing.active_children() == []


def test_failure_here_stops_the_children(monkeypatch, deadline):
    cpus(monkeypatch, 2)

    def slow_children(lo, hi):
        if lo > 0:
            time.sleep(60)
        raise KeyError("this slice")

    start = time.monotonic()
    with pytest.raises(KeyError):
        streams.map_replicates(slow_children, 4)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
