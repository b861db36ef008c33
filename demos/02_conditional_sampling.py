#!/usr/bin/env python3
"""Sampling directly from conditional reference sets.

Instead of drawing unconditional sequences and discarding the ones that
miss the observed group sizes, reweight each assignment probability by
the ratio of target-reach probabilities: every draw then satisfies the
constraints by construction.
"""

from condrand import (
    DesignSpec,
    LookSchedule,
    MultilookSampler,
    k_percentile,
    sample_multilook,
)

design = DesignSpec.bcd(2 / 3)

# one constrained sequence: exactly 15 of 30 on treatment 1, a schedule
# of one look
final = LookSchedule.single(30, 15)
seq = sample_multilook(design, final, rng=1)
print("one draw:", seq.to_string(), "-> N1(30) =", seq.count())

# the reweighted assignment probabilities adapt to the running state
print("\ntransition probabilities targeting N1(8) = 4 from (j, m):")
to_four = MultilookSampler(design, LookSchedule.single(8, 4))
for j, m in ((0, 0), (3, 1), (5, 4), (7, 3)):
    pr = to_four.transition(j, m)
    print(f"  j={j}, m={m}: P(next = 1) = {pr:.4f}")

# batch draws all hit the target
batch = sample_multilook(design, final, rng=2, size=100_000)
print("\n100k draws, all with N1(30)=15:", (batch.sum(axis=1) == 15).all())

# interim constraints are handled segment by segment
schedule = LookSchedule.from_pairs([(10, 6), (20, 11), (30, 15)])
sampler = MultilookSampler(design, schedule)
draws = sampler.draw_batch(rng=3, size=50_000)
counts = draws.cumsum(axis=1)
print("\nthree-look schedule", schedule.to_json()["looks"])
for look in schedule.looks:
    ok = (counts[:, look.position - 1] == look.count).all()
    print(f"  all draws hit N1({look.position}) = {look.count}: {ok}")

# what rejection sampling would have cost for 2500 usable sequences
for n1 in (15, 13):
    k = k_percentile(design, 30, n1, 2500, 0.95)
    print(f"\nrejection route for N1(30)={n1}: 95th percentile of draws needed = {k:,}")
print("direct route: exactly 2500 draws, always")
