"""In-memory spans around condrand's layers, installed from outside.

The tracer replaces each traced function at the name its caller looks it
up by (``condrand.monitoring.information_at_look``, a method of
``condrand.sampling.MultilookSampler``, ...) with a wrapper that records
a span: name, start, end, parent span and an optional work count.  Spans
stay in memory until the run ends.  A name that no longer exists is
listed as absent, and the metrics that depend on it read 0.

Span names are ``<layer>.<step>``, the layer being the condrand module
that does the work; a layer's self time is the time its spans cover
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _walk_steps(args, kwargs, out) -> int:
    """Element-steps of one walk: sequences drawn times the horizon."""
    return int(out.shape[0]) * int(args[0].n)


# (where the caller looks the name up, span name, work count or None).
# A work count is computed from (args, kwargs, result).
TARGETS = (
    ("condrand.experiments.monitored_trial_type_i_error", "experiments.study", None),
    ("condrand.experiments.substream", "streams.substream", None),
    ("condrand.experiments.estimate_boundaries", "monitoring.boundaries", None),
    ("condrand.monitoring.estimate_boundaries", "monitoring.boundaries", None),
    ("condrand.monitoring.nonparametric_quantile", "monitoring.quantile", None),
    ("condrand.monitoring.information_at_look", "covariance.info", None),
    ("condrand.covariance.covariance_multilook", "covariance.multilook", None),
    ("condrand.covariance._block_moments_float", "covariance.block", None),
    ("condrand.experiments.centered_scores", "scores.rank", None),
    ("condrand.monitoring.centered_scores", "scores.rank", None),
    ("condrand.covariance.centered_scores", "scores.rank", None),
    ("condrand.scores.centered_scores", "scores.rank", None),
    ("condrand.sampling.MultilookSampler.__init__", "sampling.build", None),
    ("condrand.sampling.MultilookSampler.accumulate_statistics", "sampling.walk", _walk_steps),
    ("condrand.sampling.MultilookSampler.draw_batch", "sampling.walk", _walk_steps),
    ("condrand.sampling.sample_multilook", "sampling.sample", None),
    ("condrand.sampling.backward_log_table", "distributions.backward", None),
    ("condrand.covariance.backward_log_table", "distributions.backward", None),
    ("condrand.distributions.pmf_table", "distributions.pmf_table", None),
    ("condrand.distributions.unconditional_pmf", "distributions.closed_form", None),
    ("condrand.distributions.conditional_pmf", "distributions.closed_form", None),
    ("condrand.covariance.conditional_pmf", "distributions.closed_form", None),
    ("condrand.montecarlo.estimate_pvalue_conditional", "montecarlo.pvalue", None),
    ("condrand.bruteforce.exact_conditional_pvalue", "bruteforce.exact", None),
)

# Per-op metrics: name -> (span name, "ms" for time or "count"/"qty").
# Times and counts are summed over the outermost spans of that name only,
# so a closed form calling another closed form counts once.
INCLUSIVE = {
    "sampling.walk_ms": ("sampling.walk", "ms"),
    "sampling.walk_steps": ("sampling.walk", "qty"),
    "sampling.build_ms": ("sampling.build", "ms"),
    "sampling.build_calls": ("sampling.build", "count"),
    "distributions.backward_ms": ("distributions.backward", "ms"),
    "distributions.backward_calls": ("distributions.backward", "count"),
    "distributions.closed_form_ms": ("distributions.closed_form", "ms"),
    "distributions.closed_form_values": ("distributions.closed_form", "count"),
    "covariance.multilook_ms": ("covariance.multilook", "ms"),
    "covariance.blocks": ("covariance.block", "count"),
    "covariance.info_ms": ("covariance.info", "ms"),
    "scores.rank_ms": ("scores.rank", "ms"),
    "scores.rank_calls": ("scores.rank", "count"),
    "monitoring.quantile_ms": ("monitoring.quantile", "ms"),
    "bruteforce.exact_ms": ("bruteforce.exact", "ms"),
    "streams.substream_ms": ("streams.substream", "ms"),
}
# Layer self times, per op: metric name -> layer.
SELF = {
    "sampling.self_ms": "sampling",
    "distributions.self_ms": "distributions",
    "covariance.self_ms": "covariance",
    "scores.self_ms": "scores",
    "monitoring.self_ms": "monitoring",
    "montecarlo.pvalue_self_ms": "montecarlo",
    "bruteforce.self_ms": "bruteforce",
    "streams.self_ms": "streams",
    "experiments.self_ms": "experiments",
    # time inside an op that no traced layer covers
    "untraced.self_ms": "op",
}


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        present = parts[-1] in vars(owner) if isinstance(owner, type) else hasattr(owner, parts[-1])
        if not present:
            return None
        return owner, parts[-1]
    return None


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores the names."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, qty]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def _wrap(self, fn, name: str, qty):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if qty is not None:
                try:
                    rec[4] = qty(args, kwargs, out)
                except (AttributeError, IndexError, TypeError):
                    rec[4] = 0
            return out

        return traced

    def install(self, targets=TARGETS) -> None:
        for path, name, qty in targets:
            found = _resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr = found
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            # one wrapper per function, whichever name reaches it
            wrapped = self._wrapped.get(id(fn))
            if wrapped is None:
                wrapped = self._wrap(fn, name, qty)
                self._wrapped[id(fn)] = wrapped
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics from the recorded spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        self_ms: dict[str, float] = {}
        inclusive: dict[str, list[float]] = {}
        for i, (name, start, end, parent, qty) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_ms[layer] = self_ms.get(layer, 0.0) + (end - start - child_time[i]) * 1e3
            outer = True
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    outer = False
                    break
                p = spans[p][3]
            if outer:
                acc = inclusive.setdefault(name, [0.0, 0, 0])
                acc[0] += (end - start) * 1e3
                acc[1] += 1
                acc[2] += qty
        out: dict[str, float] = {}
        for metric, (name, kind) in INCLUSIVE.items():
            total_ms, count, qty = inclusive.get(name, (0.0, 0, 0))
            value = {"ms": total_ms, "count": count, "qty": qty}[kind]
            out[metric] = value / ops
        for metric, layer in SELF.items():
            out[metric] = self_ms.get(layer, 0.0) / ops
        steps = out["sampling.walk_steps"]
        out["sampling.walk_ns_per_step"] = out["sampling.walk_ms"] * 1e6 / steps if steps else 0.0
        return out

    def dump(self) -> dict:
        """Spans and absent names, for the trace file."""
        return {
            "columns": ["name", "start_s", "end_s", "parent", "qty"],
            "spans": self.spans,
            "absent": self.absent,
        }


def wrapper_cost_ns(rounds: int = 7, calls: int = 20000) -> float:
    """Cost of one traced call over an untraced one, median of ``rounds``."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "trace.noop", None)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls * 1e9)
    costs.sort()
    return costs[len(costs) // 2]
