"""Run one benchmark workload against the condrand checkout this file sits in.

    python3 bench/run.py --workload type1_study --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory, never from
elsewhere; without it the run exits with code 2 and prints no result.

A run warms up, then attempts whole rounds of the workload's ops, one at
a time in this process (a closed loop), until the ops have taken
``--seconds``; it measures set-up in fresh interpreters, half before the
timed phase and half after it.  Every op's output is checked (see
``checks.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
layers are wrapped (see ``tracing.py``) and the metrics are per-layer,
per op.  Results and traces are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is the median of this many fresh interpreters, half of them
# before the timed phase and half after it, so that neither one slow import
# nor one slow phase of the host (README.md, "Host noise") decides it.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# Op times are scaled to a reference host speed.  A fixed kernel of the
# benchmark's own work is timed every KERNEL_EVERY_S of wall time through
# the timed phase, inside ops too (from a timer signal, its time taken out
# of the op's).  Each op time is multiplied by REFERENCE_KERNEL_MS over the
# mean kernel time within KERNEL_EVERY_S of the op.  On a shared host whose
# speed drifts by up to 1.8x as co-tenants come and go, this removes most
# of the drift (README.md, "Host noise"); raw figures stay in the result
# file.
REFERENCE_KERNEL_MS = 10.0
KERNEL_EVERY_S = 0.5
# A run's timed phase ends after this many times --seconds of wall time
# even when its ops have not taken --seconds (ops that fail at once).
WALL_LIMIT = 2.0


def import_program() -> float:
    """Import condrand from ``src/`` of this checkout; returns import ms."""
    src = ROOT / "src"
    if not (src / "condrand" / "__init__.py").is_file():
        raise ImportError(f"no condrand package under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import condrand

    elapsed = (time.perf_counter() - start) * 1e3
    origin = Path(condrand.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"condrand imported from {origin}, not from {src}")
    return elapsed


def probe(args, import_ms: float) -> int:
    """Set-up in a fresh interpreter: import, inputs, first round built."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).round(0)
    print(json.dumps({"ready": time.monotonic(), "import_ms": import_ms}))
    return 0


def measure_setup(args, probes: int, setups: list[float], imports: list[float]) -> None:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--probe",
    ]
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(report["ready"] - start)
        imports.append(report["import_ms"])


def host_kernel_ms() -> float:
    """Time of a fixed piece of the benchmark's own work, no condrand in it."""
    import checks

    start = time.perf_counter()
    checks.forward_law(0.75, 300)
    total = 0
    for i in range(60_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class HostKernel:
    """Times ``host_kernel_ms`` on entry, on exit and every KERNEL_EVERY_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(host_kernel_ms())
        self.spans.append((start, time.perf_counter()))

    def within(self, start: float, end: float) -> float:
        """Kernel seconds that fell between ``start`` and ``end``."""
        total = 0.0
        for a, b in reversed(self.spans):
            if b <= start:
                break
            total += max(0.0, min(b, end) - max(a, start))
        return total

    def __enter__(self) -> "HostKernel":
        host_kernel_ms()  # its first call runs cold
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def guarded(check, *args) -> bool:
    """Runs one check; False, with the reason on standard error, if it does not pass.

    A check that raises anything else (a missing key, an empty array) is
    taken as not passed too: it means the output was not what it should be.
    """
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - any error in a check is a failed check
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def timed_loop(args, workload, tracer, host) -> dict:
    """Whole rounds of ops until they have taken ``args.seconds``.

    Failed ops count toward that time, and the loop also ends after
    WALL_LIMIT times ``args.seconds`` of wall time, so a run ends however
    the program fails.
    """
    attempted = failed = 0
    correct = True
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []
    busy = 0.0
    k = 0
    limit = time.perf_counter() + WALL_LIMIT * args.seconds
    while busy < args.seconds and time.perf_counter() < limit:
        for run, check in workload.round(k):
            attempted += 1
            start = time.perf_counter()
            try:
                with tracer.span("op.request") if tracer else nullcontext():
                    start = time.perf_counter()
                    out = run()
                    end = time.perf_counter()
            except Exception:  # an op that raises counts as failed; the run goes on
                end = time.perf_counter()
                busy += end - start - (host.within(start, end) if host else 0.0)
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                continue
            elapsed = end - start - (host.within(start, end) if host else 0.0)
            busy += elapsed
            latencies.append(elapsed * 1e3)
            spans.append((start, end))
            correct &= guarded(check, out)
        k += 1
    correct &= guarded(workload.finish)
    if failed:
        print(f"{failed} of {attempted} ops failed", file=sys.stderr)
    return {
        "correct": correct, "attempted": attempted, "failed": failed, "rounds": k,
        "busy_s": busy, "latencies_ms": latencies, "op_spans": spans,
    }


def scaled_latencies(loop: dict) -> list[float]:
    """Op times (ms) at the reference host speed, from the kernel samples near each op."""
    kernel = loop["kernel_ms"]
    when = [(a + b) / 2 for a, b in loop["kernel_spans"]]
    out = []
    for (start, end), lat in zip(loop["op_spans"], loop["latencies_ms"]):
        near = [k for k, t in zip(kernel, when) if start - KERNEL_EVERY_S <= t <= end + KERNEL_EVERY_S]
        if not near:
            mid = (start + end) / 2
            near = [min(zip(kernel, when), key=lambda kt: abs(kt[1] - mid))[0]]
        out.append(lat * REFERENCE_KERNEL_MS / statistics.fmean(near))
    return out


def end_to_end(loop: dict, setups: list[float]) -> dict:
    lat = scaled_latencies(loop)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) * 1e3 / sum(lat) if lat else 0.0, "1/s"),
        "latency_p50_ms": (percentile(lat, 0.5) if lat else 0.0, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) if lat else 0.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, workload, loop: dict, imports: list[float]) -> dict:
    ops = max(len(loop["latencies_ms"]), 1)
    values = tracer.summary(ops)
    gen = workload.n_generated
    values["monitoring.retained_ratio"] = workload.n_used / gen if gen else 0.0
    values["monitoring.generated"] = gen / ops
    values["condrand.import_ms"] = statistics.median(imports)
    # Tracing overhead: the traced-minus-untraced cost of one call, measured
    # on an empty function, times the spans recorded per op; its base is
    # the traced op time.
    values["trace.spans"] = len(tracer.spans) / ops
    values["trace.op_ms"] = loop["busy_s"] * 1e3 / ops
    values["trace.overhead_ms"] = values["trace.spans"] * tracing.wrapper_cost_ns() / 1e6
    values["trace.overhead_share"] = values["trace.overhead_ms"] / values["trace.op_ms"]
    return {name: (v, unit_of(name)) for name, v in values.items()}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ns_per_step"):
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def write(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(payload, fh)


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    setups: list[float] = []
    imports: list[float] = []
    measure_setup(args, SETUP_PROBES // 2, setups, imports)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warmup()
    except Exception:  # the timed ops will fail too, and be counted
        traceback.print_exc()
    tracer = None
    if args.trace:
        # no host kernel here: its time would land inside the spans
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop = timed_loop(args, workload, tracer, None)
        finally:
            tracer.uninstall()
    else:
        with HostKernel() as host:
            loop = timed_loop(args, workload, None, host)
        loop["kernel_ms"] = host.samples
        loop["kernel_spans"] = host.spans
    measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2, setups, imports)
    if tracer is not None:
        metrics = per_layer(tracer, workload, loop, imports)
    else:
        metrics = end_to_end(loop, setups)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result = {k: loop[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    name = f"{args.workload}-{args.seed}"
    if tracer is not None:
        write(f"trace-{name}.json", {**tracer.dump(), "metrics": metrics})
    write(
        f"result-{name}-trace{args.trace}.json",
        {**loop, **result, "setups_s": setups, "recount_skipped": workload.recorder.skipped},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_ms = import_program()
    except ImportError as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args, import_ms)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
