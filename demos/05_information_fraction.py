#!/usr/bin/env python3
"""Randomization-based information fractions at interim looks.

Progress through a monitored trial is the ratio of the conditional
variance of the interim statistic to that of the final statistic, both
under the randomization law given the observed counts.  Mid-trial the
final score vector is unknown, so unseen responses are filled in by
resampling the observed ones; the final count is projected from the
current allocation rate.
"""

import numpy as np

from condrand import (
    DesignSpec,
    LookSchedule,
    covariance_multilook,
    information_at_look,
    simulate_unconditional,
)
from condrand.streams import substream

seed = 9
design = DesignSpec.bcd(0.75)
n = 150
look_positions = (75, 110, 150)

responses = substream(seed, 0).standard_normal(n)
counts = simulate_unconditional(design, n, substream(seed, 1)).running_counts()
schedule = LookSchedule.from_pairs((r, int(counts[r - 1])) for r in look_positions)
print("schedule:", schedule.to_json()["looks"])

# a slice of the conditional covariance: neighbours are negatively related
sigma = covariance_multilook(design, LookSchedule.single(10, 5))
print("\nconditional covariance of T, n=10 given N1=5 (first 4x4 block):")
print(np.round(sigma[:4, :4], 4))

print("\nlook  interim (bootstrap)   full data   gap")
for look in (1, 2, 3):
    r = schedule.looks[look - 1].position
    interim = information_at_look(
        design, schedule, responses[:r], look,
        mode="interim", bootstrap=100, rng=substream(seed, 2, look),
    )
    full = information_at_look(design, schedule, responses, look, mode="full")
    print(
        f"  {look}      t = {interim.t:.4f}        t = {full.t:.4f}   "
        f"{abs(interim.t - full.t):.4f}"
    )
print("\nthe final look is exactly 1 by construction")
