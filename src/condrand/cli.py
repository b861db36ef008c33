"""Command-line interface.

Commands: ``dist`` (exact laws as CSV), ``sample`` (constrained sequence
generation), ``pvalue`` (Monte Carlo or exact conditional tests),
``boundaries`` (monitored-trial boundary estimation), ``info``
(randomization-based information fractions), ``tables`` (benchmark
experiments).  Structured results are JSON; series are CSV; sequences
are 0/1 strings, one per line.  Exit codes: 0 success, 2 usage, 3 infeasible
conditioning, a failed numerical guard or out of memory, 4 input/output problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import experiments
from .bruteforce import exact_conditional_pvalue
from .covariance import information_at_look
from .design import DesignSpec, TreatmentSequence
from .distributions import conditional_pmf, pmf_table, unconditional_pmf
from .errors import CondrandError, InfeasibleError
from .montecarlo import (
    estimate_pvalue_conditional,
    estimate_pvalue_rejection,
    estimate_pvalue_stratified,
)
from .monitoring import SpendingFunction, estimate_boundaries
from .sampling import LookSchedule, MultilookSampler
from .scores import (
    SIMPLE_RANK,
    Stratum,
    StratifiedData,
    centered_scores,
    linear_rank_statistic,
    stratified_statistic,
)
from .streams import substream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class CliInputError(Exception):
    """An input file could not be read or parsed."""


def _write(path: str | None, result: str | dict) -> None:
    """Write text as is, or a dict as sorted JSON, to ``path`` or stdout."""
    if isinstance(result, dict):
        result = json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(result)
        return
    try:
        with open(path, "w") as fh:
            fh.write(result)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from exc


def _read_lines(path: str) -> list[tuple[int, str]]:
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    out = []
    for i, line in enumerate(raw, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            out.append((i, text))
    return out


def read_responses(path: str) -> tuple[np.ndarray, list[str] | None]:
    """Parse a response CSV: one value per line, optional stratum column."""
    values: list[float] = []
    strata: list[str] = []
    lines = _read_lines(path)
    if not lines:
        raise CliInputError(f"{path}: no data rows")
    start = 0
    first = lines[0][1].split(",")[0].strip()
    try:
        float(first)
    except ValueError:
        start = 1  # header row
    if not lines[start:]:
        raise CliInputError(f"{path}: no data rows")
    for lineno, text in lines[start:]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) > 2:
            raise CliInputError(f"{path}:{lineno}: expected a value and a stratum, got {text!r}")
        try:
            values.append(float(parts[0]))
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: cannot parse value {parts[0]!r}") from exc
        if len(parts) > 1 and parts[1]:
            strata.append(parts[1])
    if strata and len(strata) != len(values):
        raise CliInputError(f"{path}: stratum column must be present on every row")
    return np.asarray(values), (strata or None)


def _read_unstratified(path: str) -> np.ndarray:
    values, labels = read_responses(path)
    if labels is not None:  # refused, not ignored
        raise CliInputError(f"{path}: only pvalue --stratified reads a stratum column (column 2)")
    return values


def read_assignments(path: str, many: bool) -> list[TreatmentSequence]:
    out = []
    for lineno, text in _read_lines(path):
        if out and not many:
            raise CliInputError(f"{path}:{lineno}: a second sequence needs --stratified")
        try:
            out.append(TreatmentSequence.from_string(text))
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise CliInputError(f"{path}: no assignment sequences")
    return out


def _schedule_and_design(path: str, design: DesignSpec | None):
    """The schedule file's looks, and ``design`` or else the file's own."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: invalid JSON ({exc})") from exc
    try:
        schedule = LookSchedule.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliInputError(f"{path}: invalid schedule ({exc})") from exc
    if "design" in obj:
        try:
            embedded = DesignSpec.from_json(obj["design"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: invalid design ({exc})") from exc
        design = design or embedded
    if design is None:
        raise ValueError("no design given on the command line or in the schedule file")
    return schedule, design


def _look_pair(text: str) -> tuple[int, int]:
    try:
        j, m = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected J:M, two integers, got {text!r}") from None
    return j, m


def _non_negative(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _boundaries_json(boundaries: dict) -> dict:
    """Boundary JSON with each infinite boundary, at a look that spends no
    alpha and so never stops the trial, written as null."""
    return {**boundaries, "d": [d if math.isfinite(d) else None for d in boundaries["d"]]}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns its result: CSV or text as a string, JSON as
# a dict.


def _cmd_dist(args) -> str:
    design, n, n1 = args.design, args.n, args.target
    if n1 is None:
        rows = enumerate(pmf_table(design, n, args.backend, given=args.given))
    elif args.given:
        rows = [(n1, conditional_pmf(design, n, n1, *args.given, args.backend))]
    else:
        rows = [(n1, unconditional_pmf(design, n, n1, args.backend))]
    return "n1,probability\n" + "".join(f"{n1},{float(pr):.17g}\n" for n1, pr in rows)


def _cmd_sample(args) -> str:
    if args.schedule:
        schedule, design = _schedule_and_design(args.schedule, args.design)
    else:
        if args.n is None or args.n1 is None:
            raise ValueError("need either --schedule or both --n and --n1")
        if args.design is None:
            raise ValueError("--design is required without a schedule file")
        schedule, design = LookSchedule.single(args.n, args.n1), args.design
    sampler = MultilookSampler(design, schedule)
    batch = sampler.draw_batch(substream(args.seed, 0), args.count)
    header = (
        f"# design={design.label()} schedule="
        f"{';'.join(f'{l.position}:{l.count}' for l in schedule.looks)} seed={args.seed}"
    )
    body = "\n".join("".join(str(b) for b in row) for row in batch)
    return header + "\n" + body + "\n"


def _estimate_json(est, seed: int) -> dict:
    return {
        "estimate": est.estimate,
        "se": est.standard_error,
        "n_effective": est.n_effective,
        "method": est.method,
        "seed": seed,
    }


def _cmd_pvalue(args) -> dict:
    if args.exact and args.method == "rejection":
        raise ValueError("--exact computes the exact p-value; it does not take --method rejection")
    design = args.design
    values, labels = read_responses(args.responses)
    if labels is not None and not args.stratified:
        raise CliInputError(f"{args.responses}: a stratum column (column 2) needs --stratified")
    sequences = read_assignments(args.assignments, many=args.stratified)

    if args.stratified:
        if args.method == "rejection" or args.exact:
            raise ValueError("--stratified supports only the direct method")
        if labels is None:
            raise CliInputError("--stratified needs a stratum column in the responses CSV")
        groups = [values[np.asarray(labels) == lab] for lab in sorted(set(labels))]
        if len(sequences) != len(groups):
            raise CliInputError(
                f"{len(groups)} strata but {len(sequences)} assignment sequences"
            )
        strata = []
        for grp, seq in zip(groups, sequences):
            if len(seq) != grp.size:
                raise CliInputError(
                    f"stratum of size {grp.size} has a sequence of length {len(seq)}"
                )
            strata.append(Stratum(centered_scores(grp, args.scores), seq.count(), design))
        data = StratifiedData(tuple(strata))
        v_star = stratified_statistic(data, sequences)
        est = estimate_pvalue_stratified(data, v_star, args.reps, substream(args.seed, 0))
        return {**_estimate_json(est, args.seed), "v_star": v_star, "stratified": True}

    seq = sequences[0]
    if len(seq) != values.size:
        raise CliInputError(
            f"{values.size} responses but the assignment sequence has length {len(seq)}"
        )
    scores = centered_scores(values, args.scores)
    v_star = linear_rank_statistic(scores, seq)
    n, n1 = len(seq), seq.count()
    common = {"v_star": v_star, "n": n, "n1": n1}
    if args.exact:
        pv = exact_conditional_pvalue(design, scores, n1, v_star)
        return {**common, "pvalue": float(pv), "method": "exact"}
    direct = args.method == "direct"
    estimate = estimate_pvalue_conditional if direct else estimate_pvalue_rejection
    est = estimate(design, n, n1, scores, v_star, args.reps, substream(args.seed, 0))
    return {**common, **_estimate_json(est, args.seed)}


def _cmd_boundaries(args) -> dict:
    schedule, design = _schedule_and_design(args.schedule, args.design)
    values = _read_unstratified(args.responses)
    sf = SpendingFunction(args.spending, args.alpha)
    result = estimate_boundaries(
        design, schedule, values, sf, args.reps, substream(args.seed, 0), info_mode=args.info,
        bootstrap=args.bootstrap, quantile_method=args.quantile, score_kind=args.scores,
    )
    return {**_boundaries_json(result.to_json()), "seed": args.seed, "design": design.label()}


def _cmd_info(args) -> dict:
    schedule, design = _schedule_and_design(args.schedule, args.design)
    values = _read_unstratified(args.responses)
    blocks: dict = {}  # each covariance block swept once across the looks
    per_look = []
    for look in range(1, len(schedule) + 1):
        frac = information_at_look(
            design, schedule, values, look, mode=args.mode, bootstrap=args.bootstrap,
            rng=None if args.seed is None else substream(args.seed, look),
            kind=args.scores, _blocks=blocks,
        )
        per_look.append(asdict(frac))
    return {"per_look": per_look, "seed": args.seed, "mode": args.mode}


def _cmd_tables(args) -> str | dict:
    given = {"--n": args.n is not None, "--runs": args.runs is not None, "--full": args.full}
    for flag in {1: ("--n", "--runs", "--full"), 2: ("--n",)}.get(args.which, ()):
        if given[flag]:
            raise ValueError(f"{flag} does not apply to --which {args.which}")
    if args.which == 1:
        lines = ["design,n,n1,ratio,k"]
        for r in experiments.sample_size_grid(n_c=args.reps):
            lines.append(f"{r['design']},{r['n']},{r['n1']},{r['ratio']:.2f},{r['k']}")
        return "\n".join(lines) + "\n"
    if args.which == 2:
        out = experiments.tail_estimate_repeatability(
            rows=experiments.TAIL_FULL_ROWS if args.full else experiments.TAIL_ROWS,
            runs=200 if args.runs is None else args.runs,
            n_c=args.reps,
            seed=args.seed,
        )
        lines = ["n,n1,v_star,exact,mean,sd,runs"]
        for r in out:
            exact = "" if r["exact"] is None else f"{r['exact']:.6f}"
            lines.append(
                f"{r['n']},{r['n1']},{r['v_star']:.6g},{exact},"
                f"{r['mean']:.6f},{r['sd']:.6f},{r['runs']}"
            )
        return f"# seed={args.seed}\n" + "\n".join(lines) + "\n"
    n = args.n if args.n is not None else (350 if args.full else 100)
    if n < 6:
        # the looks sit at n * 250/350, n * 300/350 and n, which collide below 6
        raise ValueError(f"--n must be >= 6 for three distinct looks, got {n}")
    result = experiments.monitored_trial_type_i_error(
        n=n,
        look_positions=(round(n * 250 / 350), round(n * 300 / 350), n),
        replications=args.runs if args.runs is not None else (1000 if args.full else 200),
        n_c=args.reps,
        seed=args.seed,
    )
    return {**result, "boundaries": _boundaries_json(result["boundaries"])}


# ---------------------------------------------------------------------------
# Parser assembly.

# flags that several subcommands share
_SHARED = {
    "--design": dict(
        type=DesignSpec.parse, help="randomization procedure, 'bcd:<p>' or 'complete'"
    ),
    "--scores": dict(choices=(SIMPLE_RANK, "raw"), default=SIMPLE_RANK),
    "--reps": dict(type=_positive, default=2500, help="draws per estimate (default %(default)s)"),
    "--bootstrap": dict(type=_positive, default=100, help="completions of the unseen responses"),
    "--seed": dict(type=_non_negative, default=None),
    "--out": dict(default=None, help="output path (stdout by default)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condrand",
        description="Randomization inference under restricted randomization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *shared, design_required=False):
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, required=design_required and flag == "--design", **_SHARED[flag])
        p.set_defaults(func=func)
        return p

    p = command(
        "dist", _cmd_dist, "exact count distributions as CSV", "--design", "--out",
        design_required=True,
    )
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--target", type=int, default=None, help="single n1 to price")
    p.add_argument("--given", type=_look_pair, metavar="J:M", help="condition on an interim count")
    p.add_argument("--backend", choices=("float", "exact"), default="float")

    p = command(
        "sample", _cmd_sample, "draw constrained assignment sequences", "--design", "--seed",
        "--out",
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--schedule", default=None, help="schedule JSON path")
    p.add_argument("--count", type=_non_negative, default=1)

    p = command(
        "pvalue", _cmd_pvalue, "conditional randomization test p-value", "--design", "--scores",
        "--reps", "--seed", "--out", design_required=True,
    )
    p.add_argument("--responses", required=True, help="CSV of outcomes")
    p.add_argument("--assignments", required=True, help="observed 0/1 sequence file")
    p.add_argument("--method", choices=("direct", "rejection"), default="direct")
    p.add_argument("--exact", action="store_true", help="exact DP p-value")
    p.add_argument("--stratified", action="store_true")

    p = command(
        "boundaries", _cmd_boundaries, "alpha-spending boundary estimation", "--design",
        "--scores", "--reps", "--bootstrap", "--seed", "--out",
    )
    p.add_argument("--schedule", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--spending", choices=("obf", "pocock"), default="obf")
    p.add_argument("--quantile", choices=("smooth", "ecdf"), default="smooth")
    p.add_argument("--info", choices=("full", "interim"), default="full")

    p = command(
        "info", _cmd_info, "randomization-based information fractions", "--design", "--scores",
        "--bootstrap", "--seed", "--out",
    )
    p.add_argument("--schedule", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--mode", choices=("interim", "full"), default="interim")

    p = command("tables", _cmd_tables, "benchmark experiments", "--reps", "--seed", "--out")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--runs", type=_positive, default=None, help="outer repetitions")
    p.add_argument("--n", type=int, default=None, help="horizon for --which 3")
    p.add_argument("--full", action="store_true", help="paper-scale settings")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # full-mode information draws nothing, so an unseeded run prints null
        if hasattr(args, "seed") and args.seed is None and getattr(args, "mode", "") != "full":
            args.seed = int(np.random.SeedSequence().entropy % (2**63))
        _write(args.out, args.func(args))
        return EXIT_OK
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CondrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
