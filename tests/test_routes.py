"""Each fast route against the route it replaced, compared byte for byte.

Both routes run in the same process, so each equality must hold whatever
BLAS kernel or numpy SIMD path the host picks, even where those move the
golden files' bytes.  CI runs this file again under
``OPENBLAS_CORETYPE=Haswell`` and with numpy's AVX-512 paths switched off.
"""

import numpy as np
import pytest
from scipy import special

from condrand import DesignSpec, covariance_multilook
from condrand.covariance import information_at_look, interpolate_scores, projected_final_count
from condrand.distributions import _reach
from condrand.monitoring import _beta_edges, nonparametric_quantile
from condrand.sampling import Look, LookSchedule
from condrand.scores import centered_scores, step_sums

BCD34 = DesignSpec.bcd(0.75)

# the bench's study shape, the golden schedule's and a small one
SCHEDULES = {
    "n350": (BCD34, LookSchedule.from_pairs([(250, 126), (300, 148), (350, 174)])),
    "n60": (BCD34, LookSchedule.from_pairs([(20, 9), (40, 17), (60, 25)])),
    "n12": (DesignSpec.bcd(2 / 3), LookSchedule.from_pairs([(6, 3), (9, 5), (12, 6)])),
}


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def per_row_information(design, schedule, x, look, *, mode, bootstrap, rng, kind):
    """The (numerator, denominator) of ``information_at_look`` by its former
    route: the prefix's own covariance for the numerator and one
    ``a @ sigma_n @ a`` per completion for the denominator."""
    prefix = schedule.prefix(look)
    r_l, horizon = prefix.horizon, schedule.horizon
    scores_l = centered_scores(x[:r_l], kind).values
    num = float(scores_l @ covariance_multilook(design, prefix) @ scores_l)
    if r_l == horizon:
        return num, num
    if mode == "full":
        final_count = schedule.final_count
        rows = centered_scores(x[:horizon], kind).values[None]
    else:
        final_count = projected_final_count(design, prefix, look, horizon)
        rows = interpolate_scores(x[:r_l], horizon, rng, bootstrap, kind)
    sigma_n = covariance_multilook(design, LookSchedule(prefix.looks + (Look(horizon, final_count),)))
    return num, float(np.mean([a @ sigma_n @ a for a in rows]))


class TestInformationRoutes:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    @pytest.mark.parametrize("kind", ["simple-rank", "raw"])
    @pytest.mark.parametrize("mode, bootstrap", [("full", 1), ("interim", 1), ("interim", 100)])
    def test_fraction_has_the_per_row_bits(self, name, kind, mode, bootstrap):
        design, schedule = SCHEDULES[name]
        x = np.random.default_rng(len(name)).standard_normal(schedule.horizon)
        for look in range(1, len(schedule) + 1):
            got = information_at_look(
                design, schedule, x, look, mode=mode, bootstrap=bootstrap, rng=7, kind=kind
            )
            num, den = per_row_information(
                design, schedule, x, look, mode=mode, bootstrap=bootstrap, rng=7, kind=kind
            )
            assert bits(got.numerator) == bits(num), look
            assert bits(got.denominator) == bits(den), look

    def test_many_completions_have_the_per_row_bits(self):
        design, schedule = SCHEDULES["n350"]
        x = np.random.default_rng(3).standard_normal(350)
        got = information_at_look(design, schedule, x, 1, bootstrap=400, rng=11)
        want = per_row_information(
            design, schedule, x, 1, mode="interim", bootstrap=400, rng=11, kind="simple-rank"
        )
        assert (bits(got.numerator), bits(got.denominator)) == tuple(map(bits, want))

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_stacked_forms_are_the_per_row_products(self, name):
        # the numpy property the denominator rests on: a stacked (1, n) @
        # (n, n) item runs the gemv of a @ sigma, a (1, n) @ (n, 1) item the dot
        design, schedule = SCHEDULES[name]
        sigma = covariance_multilook(design, schedule)
        a = interpolate_scores(np.arange(schedule.looks[0].position, dtype=float),
                               schedule.horizon, 5, 50)
        stacked = np.matmul(a[:, None, :] @ sigma, a[:, :, None]).ravel()
        assert stacked.tobytes() == np.array([row @ sigma @ row for row in a]).tobytes()

    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_prefix_view_is_the_prefix_covariance(self, name):
        design, schedule = SCHEDULES[name]
        sigma = covariance_multilook(design, schedule)
        for look in range(1, len(schedule)):
            prefix = schedule.prefix(look)
            r = prefix.horizon
            own = covariance_multilook(design, prefix)
            view = sigma[:r, :r]
            assert view.tobytes() == own.tobytes()
            s = centered_scores(np.random.default_rng(look).standard_normal(r)).values
            assert bits(s @ view @ s) == bits(s @ own @ s)


# levels of a boundary's quantile (1 - alpha_l) and of the lower tail
LEVELS = (0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 0.9999,
          0.01, 0.025, 0.1, 0.25, 0.4999)
# every horizon to 200, then a stride to 5000 with the bench's 2500 and 2501
HORIZONS = sorted({*range(1, 201), *range(201, 5001, 97), 2500, 2501, 5000})


class TestHarrellDavisRoutes:
    @pytest.mark.parametrize("level", LEVELS)
    def test_windowed_edges_are_the_full_betainc(self, level):
        for n in HORIZONS:
            a, b = (n + 1) * level, (n + 1) * (1.0 - level)
            want = special.betainc(a, b, np.arange(n + 1) / n)
            assert _beta_edges(n, level).tobytes() == want.tobytes(), n

    def test_random_levels_and_horizons(self):
        rng = np.random.default_rng(29)
        for level, n in zip(rng.uniform(0.0005, 0.9995, 60), rng.integers(2, 5001, 60)):
            a, b = (n + 1) * level, (n + 1) * (1.0 - level)
            want = special.betainc(a, b, np.arange(n + 1) / n)
            assert _beta_edges(int(n), level).tobytes() == want.tobytes(), (level, n)

    @pytest.mark.parametrize("n", [2, 3, 250, 2500, 2501])
    @pytest.mark.parametrize("level", [0.5, 0.95, 0.99, 0.9999, 0.01])
    def test_quantile_has_the_full_weights_bits(self, n, level):
        x = np.sort(np.random.default_rng(n).standard_normal(n))
        a, b = (n + 1) * level, (n + 1) * (1.0 - level)
        want = float(np.diff(special.betainc(a, b, np.arange(n + 1) / n)) @ x)
        assert bits(nonparametric_quantile(x, level)) == bits(want)


def step_sums_draw_major(weights, steps, block: int) -> np.ndarray:
    """The float32 route of ``step_sums`` as it was: the (size, L) sums
    accumulated draw-major, by ``"lj,jk->kl"``."""
    n, size = steps.shape
    padded = np.zeros((len(weights), n), dtype=np.float32)
    for l, w in enumerate(weights):
        padded[l, : w.size] = w
    stats = np.zeros((size, len(weights)), dtype=np.float32)
    for lo in range(0, n, block):
        part = steps[lo : lo + block].astype(np.float32)
        stats += np.einsum("lj,jk->kl", padded[:, lo : lo + block], part)
    return stats.astype(float)


class TestStepSumsRoute:
    @pytest.mark.parametrize("size", [1, 2, 7, 2500])
    @pytest.mark.parametrize("block", [1, 13, 350])
    def test_look_major_sums_are_the_draw_major_bits(self, size, block):
        rng = np.random.default_rng(size + block)
        ends = (250, 300, 350)
        steps = rng.random((350, size)) < 0.5
        weights = [centered_scores(rng.standard_normal(r)).values for r in ends]
        got = step_sums(weights, steps)
        assert got.flags.c_contiguous and got.shape == (size, len(ends))
        assert got.tobytes() == step_sums_draw_major(weights, steps, block).tobytes()


def reach_lists(start: int, end: int, target: int) -> tuple[list[int], list[int]]:
    """``_reach`` as Python comprehensions."""
    steps = range(start, end + 1)
    return [max(0, target - (end - j)) for j in steps], [min(j, target) + 1 for j in steps]


def test_reach_is_the_list_form():
    cases = [(s, e, t) for e in range(1, 25) for s in range(e) for t in range(e + 1)]
    cases += [(0, 350, 174), (250, 350, 174), (300, 2000, 1000), (0, 5000, 0), (0, 5000, 5000)]
    for start, end, target in cases:
        lows, highs = _reach(start, end, target)
        want = reach_lists(start, end, target)
        assert (lows, highs) == want, (start, end, target)
        assert all(type(v) is int for v in (*lows, *highs))

