"""The tracer's spans, self times, absent names and restore.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
import time
import types

import numpy as np
import pytest

import tracing


@pytest.fixture
def fake_module(monkeypatch):
    """A stand-in module with a caller, a callee and a class."""
    mod = types.ModuleType("fakeprog")

    def leaf(x):
        time.sleep(0.002)
        return x

    def outer(x):
        time.sleep(0.002)
        return mod.leaf(x) + mod.leaf(x)

    class Walker:
        n = 7

        def walk(self, size):
            return np.zeros((size, 2))

    mod.leaf, mod.outer, mod.Walker = leaf, outer, Walker
    monkeypatch.setitem(sys.modules, "fakeprog", mod)
    return mod


def test_spans_nest_and_self_times_add_up(fake_module):
    tracer = tracing.Tracer()
    tracer.install((
        ("fakeprog.outer", "monitoring.outer", None),
        ("fakeprog.leaf", "scores.rank", None),
    ))
    with tracer.span("op.request"):
        assert fake_module.outer(2) == 4
    tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names == ["op.request", "monitoring.outer", "scores.rank", "scores.rank"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1]
    out = tracer.summary(ops=1)
    assert out["scores.rank_calls"] == 2
    total = (tracer.spans[0][2] - tracer.spans[0][1]) * 1e3
    layers = out["monitoring.self_ms"] + out["scores.self_ms"] + out["untraced.self_ms"]
    assert layers == pytest.approx(total, rel=1e-9)
    assert out["scores.rank_ms"] == pytest.approx(out["scores.self_ms"], rel=1e-9)


def test_nested_spans_of_one_name_count_once(fake_module):
    tracer = tracing.Tracer()
    # both functions report as closed forms: only the outer call counts
    tracer.install((
        ("fakeprog.outer", "distributions.closed_form", None),
        ("fakeprog.leaf", "distributions.closed_form", None),
    ))
    fake_module.outer(1)
    fake_module.leaf(1)
    tracer.uninstall()
    out = tracer.summary(ops=2)
    assert out["distributions.closed_form_values"] == 1.0  # 2 outermost spans / 2 ops


def test_methods_are_wrapped_on_the_class_with_a_work_count(fake_module):
    tracer = tracing.Tracer()
    tracer.install((("fakeprog.Walker.walk", "sampling.walk", tracing._walk_steps),))
    fake_module.Walker().walk(5)
    tracer.uninstall()
    out = tracer.summary(ops=1)
    assert out["sampling.walk_steps"] == 35
    assert out["sampling.walk_ns_per_step"] > 0


def test_absent_names_are_listed_not_raised(fake_module):
    tracer = tracing.Tracer()
    tracer.install((
        ("fakeprog.gone", "scores.rank", None),
        ("fakeprog.Walker.gone", "sampling.walk", None),
        ("fakeprog.Nothing.walk", "sampling.walk", None),
        ("notamodule.x", "sampling.walk", None),
    ))
    assert tracer.absent == [
        "fakeprog.gone", "fakeprog.Walker.gone", "fakeprog.Nothing.walk", "notamodule.x",
    ]
    assert tracer.summary(ops=1)["sampling.walk_ms"] == 0.0


def test_uninstall_restores_every_name(fake_module):
    leaf, walk = fake_module.leaf, fake_module.Walker.__dict__["walk"]
    tracer = tracing.Tracer()
    tracer.install((
        ("fakeprog.leaf", "scores.rank", None),
        ("fakeprog.Walker.walk", "sampling.walk", None),
    ))
    assert fake_module.leaf is not leaf
    tracer.uninstall()
    assert fake_module.leaf is leaf
    assert fake_module.Walker.__dict__["walk"] is walk


def test_wrapper_cost_is_small():
    assert 0.0 < tracing.wrapper_cost_ns(rounds=3, calls=2000) < 50_000
