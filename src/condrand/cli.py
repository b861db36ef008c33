"""Command-line interface.

Commands: ``dist`` (exact laws as CSV), ``sample`` (constrained sequence
generation), ``pvalue`` (Monte Carlo or exact conditional tests),
``boundaries`` (monitored-trial boundary estimation), ``info``
(randomization-based information fractions), ``tables`` (benchmark
experiments).  Structured results are JSON; series are CSV; sequences
are 0/1 strings, one per line.  Exit codes: 0 success, 2 usage,
3 infeasible conditioning, 4 input/output problems.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

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
from .sampling import ConditionalChain, LookSchedule, MultilookSampler
from .scores import SIMPLE_RANK, Stratum, StratifiedData, centered_scores, linear_rank_statistic, stratified_statistic
from .streams import substream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


class CliInputError(Exception):
    """An input file could not be read or parsed."""


@dataclass
class _Output:
    path: str | None

    def write(self, text: str) -> None:
        if self.path is None:
            sys.stdout.write(text)
        else:
            try:
                with open(self.path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise CliInputError(f"cannot write {self.path}: {exc}") from exc


def _default_reps() -> int:
    raw = os.environ.get("CONDRAND_REPS", "2500")
    try:
        return int(raw)
    except ValueError as exc:
        raise CliInputError(f"CONDRAND_REPS must be an integer, got {raw!r}") from exc


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy % (2**63))


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
        try:
            values.append(float(parts[0]))
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: cannot parse value {parts[0]!r}") from exc
        if len(parts) > 1 and parts[1]:
            strata.append(parts[1])
    if strata and len(strata) != len(values):
        raise CliInputError(f"{path}: stratum column must be present on every row")
    return np.asarray(values), (strata or None)


def read_assignments(path: str) -> list[TreatmentSequence]:
    out = []
    for lineno, text in _read_lines(path):
        try:
            out.append(TreatmentSequence.from_string(text))
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise CliInputError(f"{path}: no assignment sequences")
    return out


def read_schedule(path: str) -> tuple[LookSchedule, DesignSpec | None]:
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
    design = None
    if "design" in obj:
        try:
            design = DesignSpec.from_json(obj["design"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CliInputError(f"{path}: invalid design ({exc})") from exc
    return schedule, design


def _look_pair(text: str) -> tuple[int, int]:
    try:
        j, m = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected J:M, two integers, got {text!r}") from None
    return j, m


def _design_arg(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument(
        "--design",
        type=DesignSpec.parse,
        required=required,
        help="randomization procedure, 'bcd:<p>' or 'complete'",
    )


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _boundaries_json(boundaries: dict) -> dict:
    """Boundary JSON with each infinite boundary, at a look that spends no
    alpha and so never stops the trial, written as null."""
    return {**boundaries, "d": [d if math.isfinite(d) else None for d in boundaries["d"]]}


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_dist(args) -> int:
    design = args.design
    rows: list[tuple[int, float]] = []
    if args.given:
        j, m = args.given
        targets = [args.target] if args.target is not None else range(args.n + 1)
        for n1 in targets:
            rows.append((n1, conditional_pmf(design, args.n, n1, j, m, args.backend)))
    elif args.target is not None:
        rows.append((args.target, unconditional_pmf(design, args.n, args.target, args.backend)))
    else:
        table = pmf_table(design, args.n, args.backend)
        rows = list(enumerate(table))
    lines = ["n1,probability"]
    for n1, pr in rows:
        lines.append(f"{n1},{float(pr):.17g}")
    _Output(args.out).write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.schedule:
        schedule, embedded = read_schedule(args.schedule)
        design = args.design or embedded
        if design is None:
            raise ValueError("no design given on the command line or in the schedule file")
    else:
        if args.n is None or args.n1 is None:
            raise ValueError("need either --schedule or both --n and --n1")
        design = args.design
        if design is None:
            raise ValueError("--design is required without a schedule file")
        schedule = LookSchedule.single(args.n, args.n1)
    sampler = MultilookSampler(design, schedule)
    batch = sampler.draw_batch(substream(seed, 0), args.count)
    header = (
        f"# design={design.label()} schedule="
        f"{';'.join(f'{l.position}:{l.count}' for l in schedule.looks)} seed={seed}"
    )
    body = "\n".join("".join(str(b) for b in row) for row in batch)
    _Output(args.out).write(header + "\n" + body + "\n")
    return EXIT_OK


def _split_strata(values: np.ndarray, labels: list[str]) -> list[np.ndarray]:
    order: list[str] = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    order = sorted(order)
    arrays = []
    lab_arr = np.asarray(labels)
    for lab in order:
        arrays.append(values[lab_arr == lab])
    return arrays


def _cmd_pvalue(args) -> int:
    seed = _resolve_seed(args.seed)
    design = args.design
    values, labels = read_responses(args.responses)
    sequences = read_assignments(args.assignments)

    if args.stratified:
        if args.method == "rejection" or args.exact:
            raise ValueError("--stratified supports only the direct method")
        if labels is None:
            raise CliInputError("--stratified needs a stratum column in the responses CSV")
        groups = _split_strata(values, labels)
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
        est = estimate_pvalue_stratified(data, v_star, args.reps, substream(seed, 0))
        payload = {
            "estimate": est.estimate,
            "se": est.standard_error,
            "n_effective": est.n_effective,
            "v_star": v_star,
            "method": est.method,
            "stratified": True,
            "seed": seed,
        }
        _Output(args.out).write(_json_dump(payload))
        return EXIT_OK

    seq = sequences[0]
    if len(seq) != values.size:
        raise CliInputError(
            f"{values.size} responses but the assignment sequence has length {len(seq)}"
        )
    scores = centered_scores(values, args.scores)
    v_star = linear_rank_statistic(scores, seq)
    n, n1 = len(seq), seq.count()
    if args.exact:
        pv = exact_conditional_pvalue(design, scores, n1, v_star)
        payload = {
            "pvalue": float(pv),
            "v_star": v_star,
            "method": "exact",
            "n": n,
            "n1": n1,
        }
        _Output(args.out).write(_json_dump(payload))
        return EXIT_OK
    if args.method == "rejection":
        est = estimate_pvalue_rejection(design, n, n1, scores, v_star, args.reps, substream(seed, 0))
    else:
        est = estimate_pvalue_conditional(design, n, n1, scores, v_star, args.reps, substream(seed, 0))
    payload = {
        "estimate": est.estimate,
        "se": est.standard_error,
        "n_effective": est.n_effective,
        "v_star": v_star,
        "method": est.method,
        "n": n,
        "n1": n1,
        "seed": seed,
    }
    _Output(args.out).write(_json_dump(payload))
    return EXIT_OK


def _cmd_boundaries(args) -> int:
    seed = _resolve_seed(args.seed)
    schedule, embedded = read_schedule(args.schedule)
    design = args.design or embedded
    if design is None:
        raise ValueError("no design given on the command line or in the schedule file")
    values, _ = read_responses(args.responses)
    sf = SpendingFunction(args.spending, args.alpha)
    result = estimate_boundaries(
        design,
        schedule,
        values,
        sf,
        args.reps,
        substream(seed, 0),
        info_mode=args.info,
        bootstrap=args.bootstrap,
        quantile_method=args.quantile,
        score_kind=args.scores,
    )
    payload = _boundaries_json(result.to_json())
    payload["seed"] = seed
    payload["design"] = design.label()
    _Output(args.out).write(_json_dump(payload))
    return EXIT_OK


def _cmd_info(args) -> int:
    seed = _resolve_seed(args.seed)
    schedule, embedded = read_schedule(args.schedule)
    design = args.design or embedded
    if design is None:
        raise ValueError("no design given on the command line or in the schedule file")
    values, _ = read_responses(args.responses)
    per_look = []
    chain = ConditionalChain(design)  # each segment built once across looks
    for look in range(1, len(schedule) + 1):
        frac = information_at_look(
            design,
            schedule,
            values,
            look,
            mode=args.mode,
            bootstrap=args.bootstrap,
            rng=substream(seed, look),
            kind=args.scores,
            _chain=chain,
        )
        per_look.append(
            {
                "look": look,
                "t": frac.t,
                "numerator": frac.numerator,
                "denominator": frac.denominator,
            }
        )
    payload = {"per_look": per_look, "seed": seed, "mode": args.mode}
    _Output(args.out).write(_json_dump(payload))
    return EXIT_OK


def _cmd_tables(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.which == 1:
        rows = experiments.sample_size_grid(n_c=args.reps, level=0.95)
        lines = ["design,n,n1,ratio,k"]
        for r in rows:
            lines.append(f"{r['design']},{r['n']},{r['n1']},{r['ratio']:.2f},{r['k']}")
        _Output(args.out).write("\n".join(lines) + "\n")
        return EXIT_OK
    if args.which == 2:
        rows = ((30, 15), (30, 12), (40, 20), (40, 16), (100, 50), (100, 40))
        if args.full:
            rows = rows + ((500, 250), (500, 200))
        out = experiments.tail_estimate_repeatability(
            rows=rows, runs=args.runs, n_c=args.reps, seed=seed
        )
        lines = ["n,n1,v_star,exact,mean,sd,runs"]
        for r in out:
            exact = "" if r["exact"] is None else f"{r['exact']:.6f}"
            lines.append(
                f"{r['n']},{r['n1']},{r['v_star']:.6g},{exact},"
                f"{r['mean']:.6f},{r['sd']:.6f},{r['runs']}"
            )
        _Output(args.out).write(f"# seed={seed}\n" + "\n".join(lines) + "\n")
        return EXIT_OK
    n = args.n if args.n is not None else (350 if args.full else 100)
    looks = (round(n * 250 / 350), round(n * 300 / 350), n)
    reps = args.runs if args.runs is not None else (1000 if args.full else 200)
    result = experiments.monitored_trial_type_i_error(
        n=n,
        look_positions=looks,
        replications=reps,
        n_c=args.reps,
        seed=seed,
    )
    result["boundaries"] = _boundaries_json(result["boundaries"])
    _Output(args.out).write(_json_dump(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condrand",
        description="Randomization inference under restricted randomization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="exact count distributions as CSV")
    _design_arg(p_dist)
    p_dist.add_argument("--n", type=int, required=True, help="horizon")
    p_dist.add_argument("--target", type=int, default=None, help="single n1 to price")
    p_dist.add_argument(
        "--given",
        type=_look_pair,
        default=None,
        metavar="J:M",
        help="condition on an interim count",
    )
    p_dist.add_argument("--backend", choices=("float", "exact"), default="float")
    p_dist.add_argument("--out", default=None)
    p_dist.set_defaults(func=_cmd_dist)

    p_sample = sub.add_parser("sample", help="draw constrained assignment sequences")
    _design_arg(p_sample, required=False)
    p_sample.add_argument("--n", type=int, default=None)
    p_sample.add_argument("--n1", type=int, default=None)
    p_sample.add_argument("--schedule", default=None, help="schedule JSON path")
    p_sample.add_argument("--count", type=int, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--out", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_pv = sub.add_parser("pvalue", help="conditional randomization test p-value")
    _design_arg(p_pv)
    p_pv.add_argument("--responses", required=True, help="CSV of outcomes")
    p_pv.add_argument("--assignments", required=True, help="observed 0/1 sequence file")
    p_pv.add_argument("--scores", choices=(SIMPLE_RANK, "raw"), default=SIMPLE_RANK)
    p_pv.add_argument("--method", choices=("direct", "rejection"), default="direct")
    p_pv.add_argument("--reps", type=int, default=None)
    p_pv.add_argument("--seed", type=int, default=None)
    p_pv.add_argument("--exact", action="store_true", help="exact DP p-value")
    p_pv.add_argument("--stratified", action="store_true")
    p_pv.add_argument("--out", default=None)
    p_pv.set_defaults(func=_cmd_pvalue)

    p_bd = sub.add_parser("boundaries", help="alpha-spending boundary estimation")
    _design_arg(p_bd, required=False)
    p_bd.add_argument("--schedule", required=True)
    p_bd.add_argument("--responses", required=True)
    p_bd.add_argument("--alpha", type=float, default=0.05)
    p_bd.add_argument("--spending", choices=("obf", "pocock"), default="obf")
    p_bd.add_argument("--reps", type=int, default=None)
    p_bd.add_argument("--seed", type=int, default=None)
    p_bd.add_argument("--quantile", choices=("smooth", "ecdf"), default="smooth")
    p_bd.add_argument("--info", choices=("full", "interim"), default="full")
    p_bd.add_argument("--bootstrap", type=int, default=100)
    p_bd.add_argument("--scores", choices=(SIMPLE_RANK, "raw"), default=SIMPLE_RANK)
    p_bd.add_argument("--out", default=None)
    p_bd.set_defaults(func=_cmd_boundaries)

    p_info = sub.add_parser("info", help="randomization-based information fractions")
    _design_arg(p_info, required=False)
    p_info.add_argument("--schedule", required=True)
    p_info.add_argument("--responses", required=True)
    p_info.add_argument("--bootstrap", type=int, default=100)
    p_info.add_argument("--mode", choices=("interim", "full"), default="interim")
    p_info.add_argument("--seed", type=int, default=None)
    p_info.add_argument("--scores", choices=(SIMPLE_RANK, "raw"), default=SIMPLE_RANK)
    p_info.add_argument("--out", default=None)
    p_info.set_defaults(func=_cmd_info)

    p_tab = sub.add_parser("tables", help="benchmark experiments")
    p_tab.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p_tab.add_argument("--seed", type=int, default=None)
    p_tab.add_argument("--reps", type=int, default=None, help="per-estimate draws")
    p_tab.add_argument("--runs", type=int, default=None, help="outer repetitions")
    p_tab.add_argument("--n", type=int, default=None, help="horizon for --which 3")
    p_tab.add_argument("--full", action="store_true", help="paper-scale settings")
    p_tab.add_argument("--out", default=None)
    p_tab.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "runs") and args.runs is None and getattr(args, "which", None) == 2:
        args.runs = 200
    try:
        if hasattr(args, "reps") and args.reps is None:
            args.reps = _default_reps()
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except CondrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
