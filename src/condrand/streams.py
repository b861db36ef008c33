"""Reproducible random streams.

A single 64-bit seed is expanded into independent named substreams
through ``numpy.random.SeedSequence`` spawn keys.  Substream identity
depends only on the seed and the integer path (e.g. stage index,
replicate index), never on execution order, so results are bit-identical
whether replicates run serially or in parallel; :func:`map_replicates`
runs them in parallel.
"""

from __future__ import annotations

import os

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream ``path`` of ``seed``.

    Args:
        seed: Root seed shared by the whole run.
        path: Integer coordinates naming the substream, e.g.
            ``substream(seed, stage)`` or ``substream(seed, stage, rep)``.

    Returns:
        A freshly constructed ``numpy.random.Generator``.
    """
    key = tuple(int(x) for x in path)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce ``rng`` (generator, seed, or None) to a Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_replicates(run_slice, count: int) -> np.ndarray:
    """``run_slice(lo, hi)`` over contiguous slices of ``range(count)``,
    concatenated in replicate order.

    The range is cut into k = min(CPUs, count) slices.  This process
    computes the first; each other slice runs in a child started with the
    ``fork`` method, which inherits everything ``run_slice`` reads, so
    nothing is pickled but the slice it sends back.  Each slice draws
    from its replicates' own substreams, so the result is the same bytes
    at any k.  With k = 1, or without ``fork``, the range runs inline.

    ``run_slice`` must not use BLAS: BLAS threads in each process would
    spin against the other workers.  A child's exception is raised here;
    a child that ends without a result raises ``RuntimeError``.  Every
    child is joined before this returns or raises.
    """
    k = min(_cpu_count(), count)
    if k > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _map_forked(multiprocessing.get_context("fork"), run_slice, count, k)
    return run_slice(0, count)


def _map_forked(ctx, run_slice, count: int, k: int) -> np.ndarray:
    cuts = [count * i // k for i in range(k + 1)]
    workers = []
    finished = False
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_child, args=(sender, run_slice, lo, hi))
            proc.start()
            # later children must not inherit this write end, or a dead
            # child's pipe would never report end of file
            sender.close()
            workers.append((proc, receiver, lo, hi))
        parts = [run_slice(cuts[0], cuts[1])]
        for proc, receiver, lo, hi in workers:
            try:
                status, value = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"the worker for replicates {lo}..{hi - 1} exited with code "
                    f"{proc.exitcode} and no result"
                ) from None
            if status == "raised":
                raise value
            parts.append(value)
        finished = True
    finally:
        for proc, receiver, _, _ in workers:
            if not finished:
                proc.terminate()
            proc.join()
            receiver.close()
    return np.concatenate(parts)


def _run_child(sender, run_slice, lo: int, hi: int) -> None:
    """Body of a forked worker: send ("done", slice) or ("raised", error)."""
    try:
        result = ("done", run_slice(lo, hi))
    except BaseException as exc:
        result = ("raised", exc)
    sender.send(result)
    sender.close()
