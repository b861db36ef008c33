"""The benchmark's three workloads: inputs from a seed, ops, checks.

Each workload hands the program only generated inputs (responses,
assignment sequences, look counts, seeds) and calls it at the names a
caller would use, looked up at call time so that the tracer's wrappers
apply.  ``round(k)`` returns the k-th round of ops; a run attempts whole
rounds.  Each op is a pair (run, check): ``run`` is the timed call into
condrand, ``check`` verifies its output against ``checks`` and raises
``checks.CheckFailed`` when it is wrong.  ``finish`` makes the checks
that pool the whole run's outputs.

Study settings follow ``condrand tables --which 3 --full``: ``bcd:0.75``,
n = 350, looks at 250/300/350, OBF spending at alpha = 0.05, interim
information fractions with 100 bootstrap completions, n_c = 2500.
"""

from __future__ import annotations

import math

import numpy as np

import condrand.bruteforce as bruteforce
import condrand.distributions as distributions
import condrand.experiments as experiments
import condrand.monitoring as monitoring
import condrand.montecarlo as montecarlo
import condrand.sampling as sampling
import condrand.scores as scores
from condrand.design import DesignSpec

import checks

P = 0.75
N = 350
LOOKS = (250, 300, 350)
ALPHA = 0.05
SPENDING = "obf"
N_C = 2500
BOOTSTRAP = 100
REPLICATIONS = 1000


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _seed(seed: int, *path: int) -> int:
    """A 63-bit seed handed to the program for one op."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0] >> 1)


def bcd_sequence(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """One unconditional draw of Efron's biased coin (p = 0.5: complete)."""
    u = rng.random(n)
    out = np.empty(n, dtype=np.int8)
    m = 0
    for j in range(n):
        d = 2 * m - j
        t = u[j] < (0.5 if d == 0 else p if d < 0 else 1.0 - p)
        out[j] = t
        m += t
    return out


def look_pairs(t: np.ndarray, positions) -> list[tuple[int, int]]:
    counts = np.cumsum(t, dtype=np.int64)
    return [(int(r), int(counts[r - 1])) for r in positions]


class StageRecorder:
    """Keeps the look statistics each boundary stage draws.

    It stands in for ``condrand.monitoring.MultilookSampler`` with a
    subclass that records what ``accumulate_statistics`` returns, so the
    retained-share check can recount the program's own draws.  When that
    name is gone, or an op draws its stages some other way so that nothing
    is recorded, the recount is not made and ``skipped`` counts the op.
    """

    def __init__(self) -> None:
        self.stages: list[np.ndarray] = []
        self.skipped = 0
        base = getattr(monitoring, "MultilookSampler", None)
        self.installed = isinstance(base, type) and hasattr(base, "accumulate_statistics")
        if not self.installed:
            return
        recorder = self

        class RecordingSampler(base):
            def accumulate_statistics(self, *args, **kwargs):
                out = super().accumulate_statistics(*args, **kwargs)
                recorder.stages.append(out)
                return out

        monitoring.MultilookSampler = RecordingSampler

    def clear(self) -> None:
        self.stages = []

    def take(self):
        """The stages recorded since ``clear``, or None if there are none."""
        stages, self.stages = self.stages, []
        if not stages:
            self.skipped += 1
            return None
        return stages


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.recorder = StageRecorder()
        self.n_used = 0
        self.n_generated = 0

    def _check_boundaries(self, result: dict) -> None:
        checks.check_boundaries(result, SPENDING, ALPHA, N_C, self.recorder.take())
        self.n_used += sum(int(v) for v in result["n_used"])
        self.n_generated += sum(int(v) for v in result["n_generated"])

    def warmup(self) -> None:
        """Small calls into the same code paths, untimed."""

    def round(self, k: int) -> list:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks over the whole run."""


class Type1Study(Workload):
    """One op: the full-scale attained-type-I-error study, own seed per op."""

    name = "type1_study"

    def warmup(self) -> None:
        experiments.monitored_trial_type_i_error(
            n=60, look_positions=(40, 50, 60), p=P, alpha=ALPHA, n_c=300,
            replications=2, seed=_seed(self.seed, 0), bootstrap=5,
        )
        self.recorder.clear()

    def round(self, k: int) -> list:
        seed = _seed(self.seed, 1, k)

        def run():
            self.recorder.clear()
            return experiments.monitored_trial_type_i_error(
                n=N, look_positions=LOOKS, p=P, alpha=ALPHA, n_c=N_C,
                replications=REPLICATIONS, seed=seed, spending_kind=SPENDING,
                bootstrap=BOOTSTRAP, info_mode="interim",
            )

        def check(out: dict) -> None:
            if out["replications"] != REPLICATIONS or out["n_c"] != N_C:
                raise checks.CheckFailed(f"study ran {out['replications']} x {out['n_c']}")
            self._check_boundaries(out["boundaries"])
            checks.check_attained_level(float(out["alpha_hat"]), ALPHA)

        return [(run, check)]


class InterimBoundaries(Workload):
    """One op: ``estimate_boundaries`` on a fresh seeded trial."""

    name = "interim_boundaries"

    def _trial(self, n: int, positions, *path: int):
        rng = _rng(self.seed, *path)
        x = 1.0 + math.sqrt(0.9) * rng.standard_normal(n)
        t = bcd_sequence(rng, P, n)
        schedule = sampling.LookSchedule.from_pairs(look_pairs(t, positions))
        return x, schedule

    def _call(self, x, schedule, n_c: int, bootstrap: int, seed: int):
        return monitoring.estimate_boundaries(
            DesignSpec.bcd(P), schedule, x, monitoring.SpendingFunction(SPENDING, ALPHA),
            n_c, seed, info_mode="interim", bootstrap=bootstrap,
        )

    def warmup(self) -> None:
        x, schedule = self._trial(60, (40, 50, 60), 0)
        self._call(x, schedule, 300, 5, _seed(self.seed, 0))
        self.recorder.clear()

    def round(self, k: int) -> list:
        x, schedule = self._trial(N, LOOKS, 2, k)
        seed = _seed(self.seed, 3, k)

        def run():
            self.recorder.clear()
            return self._call(x, schedule, N_C, BOOTSTRAP, seed)

        def check(out) -> None:
            self._check_boundaries(out.to_json())

        return [(run, check)]


# analysis_requests: one request for each analysis the paper's three tables
# make, at the tables' own settings (``condrand.experiments`` and ``condrand
# tables``), so the mix is the tables' rather than a chosen one:
# - table 1 (``sample_size_grid``): for each bias and horizon, the exact law
#   of N1(n) (``condrand dist``), and for each ratio a direct p-value at
#   n1 = round(n * ratio) (``condrand pvalue``);
# - table 2 (``tail_estimate_repeatability``): bcd:0.6, a direct p-value for
#   each (n, n1) row, and an exact-DP one (``pvalue --exact``) on the same
#   data where n <= 40;
# - table 3 (``tables --which 3``): the conditional laws of N1(350) given
#   each interim count (``dist --given``) and n_c constrained draws
#   (``sample --schedule``).
TABLE1_BIASES = (2.0 / 3.0, 0.75)
TABLE1_HORIZONS = (100, 200, 500)
TABLE1_RATIOS = (0.45, 0.48, 0.50)
TABLE2_BIAS = 0.6
TABLE2_ROWS = ((30, 15), (30, 12), (40, 20), (40, 16), (100, 50), (100, 40))
EXACT_MAX_N = 40


def conditional_bcd_sequence(rng: np.random.Generator, p: float, n: int, n1: int) -> np.ndarray:
    """A biased-coin sequence drawn given N1(n) = n1, by backward sampling."""
    # h[j, m] = P(N1(n) = n1 | N1(j) = m)
    h = np.zeros((n + 1, n + 2))
    h[n, n1] = 1.0
    for j in range(n - 1, -1, -1):
        q = checks.assignment_probability_row(p, j, np.arange(j + 1))
        h[j, : j + 1] = q * h[j + 1, 1 : j + 2] + (1.0 - q) * h[j + 1, : j + 1]
    u = rng.random(n)
    out = np.empty(n, dtype=np.int8)
    m = 0
    for j in range(n):
        d = 2 * m - j
        q = 0.5 if d == 0 else p if d < 0 else 1.0 - p
        t = u[j] * h[j, m] < q * h[j + 1, m + 1]
        out[j] = t
        m += t
    return out


class AnalysisRequests(Workload):
    """One op: one request of the tables' mix, on round k's own data.

    Sizes and biases are fixed; responses, assignments, interim counts,
    rng seeds and the order come from ``(seed, 4, k)``.  The Monte Carlo
    checks pool the whole run's p-values (``finish``).
    """

    name = "analysis_requests"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.direct: list[float] = []
        self.pairs: list[tuple[float, float]] = []
        self.laws: dict = {}

    def round(self, k: int) -> list:
        rng = _rng(self.seed, 4, k)
        ops = []
        for p in TABLE1_BIASES:
            for n in TABLE1_HORIZONS:
                ops.append(self._pmf(p, n))
                for ratio in TABLE1_RATIOS:
                    ops.append(self._direct(p, n, round(n * ratio), rng))
        for n, n1 in TABLE2_ROWS:
            pair = [None, None] if n <= EXACT_MAX_N else None
            ops.append(self._direct(TABLE2_BIAS, n, n1, rng, pair))
            if pair is not None:
                ops.append(self._exact(TABLE2_BIAS, n, pair))
        looks = look_pairs(bcd_sequence(rng, P, N), LOOKS)
        for j, m in looks[:-1]:
            ops.append(self._cond_row(P, N, j, m))
        ops.append(self._draws(P, looks, rng))
        return [ops[o] for o in rng.permutation(len(ops))]

    def _law(self, p: float, n: int, j: int = 0, m: int = 0) -> np.ndarray:
        key = (p, n, j, m)
        if key not in self.laws:
            self.laws[key] = checks.forward_law(p, n, j, m)
        return self.laws[key]

    def _pmf(self, p: float, n: int):
        def run():
            return distributions.pmf_table(DesignSpec.bcd(p), n)

        def check(out) -> None:
            checks.check_law(out, self._law(p, n), f"pmf_table(bcd:{p:.4g}, {n})")

        return run, check

    def _cond_row(self, p: float, n: int, j: int, m: int):
        def run():
            design = DesignSpec.bcd(p)
            return [distributions.conditional_pmf(design, n, k, j, m) for k in range(n + 1)]

        def check(out) -> None:
            want = checks.forward_law(p, n, j, m)
            checks.check_law(out, want, f"conditional_pmf(bcd:{p:.4g}, {n} | {j}, {m})")

        return run, check

    def _direct(self, p: float, n: int, n1: int, rng: np.random.Generator, pair=None):
        """A direct p-value on null data: responses independent of assignment."""
        x = rng.standard_normal(n)
        t = conditional_bcd_sequence(rng, p, n, n1)
        seed = int(rng.integers(2**63))
        if pair is not None:
            pair[0] = (x, t)

        def run():
            sv = scores.centered_scores(x)
            v_star = scores.linear_rank_statistic(sv, t)
            return montecarlo.estimate_pvalue_conditional(DesignSpec.bcd(p), n, n1, sv, v_star, N_C, seed)

        def check(out) -> None:
            checks.check_pvalue(out.estimate, out.n_effective, N_C)
            self.direct.append(out.estimate)
            if pair is not None:
                pair[1] = out.estimate

        return run, check

    def _exact(self, p: float, n: int, pair: list):
        """The exact-DP p-value on the data of the direct request ``pair``."""
        x, t = pair[0]

        def run():
            sv = scores.centered_scores(x)
            v_star = scores.linear_rank_statistic(sv, t)
            return bruteforce.exact_conditional_pvalue(DesignSpec.bcd(p), sv, int(t.sum()), v_star)

        def check(out) -> None:
            value = float(out)
            if not 0.0 < value <= 1.0:
                raise checks.CheckFailed(f"exact p-value {value} outside (0, 1]")
            # pair[1] is None when its direct request failed; ops of a round
            # run in a shuffled order, so the pair is matched in ``finish``.
            self.pairs.append((pair, value))

        return run, check

    def _draws(self, p: float, looks, rng: np.random.Generator):
        seed = int(rng.integers(2**63))

        def run():
            schedule = sampling.LookSchedule.from_pairs(looks)
            return sampling.sample_multilook(DesignSpec.bcd(p), schedule, seed, N_C)

        def check(out) -> None:
            if len(out) != N_C:
                raise checks.CheckFailed(f"{len(out)} draws, asked for {N_C}")
            checks.check_look_counts(out, looks)

        return run, check

    def finish(self) -> None:
        matched = [(pair[1], exact) for pair, exact in self.pairs if pair[1] is not None]
        if matched:
            checks.check_pooled_agreement(*zip(*matched), N_C)
        if self.direct:
            checks.check_null_share(self.direct)


WORKLOADS = {w.name: w for w in (Type1Study, InterimBoundaries, AnalysisRequests)}
