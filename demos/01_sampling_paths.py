"""Sampling jump paths: seeded streams, the count law, and JSON dumps.

A path is a step function on [0, T] built from unit-rate jump times and
i.i.d. marks.  Everything is reproducible: the same StreamConfig always
yields the same paths.
"""

import math

import pathform as pf

T = 1.0
measure = pf.uniform_pm1()
stream = pf.StreamConfig(seed=2024)

print("== a few paths, mark law uniform on {+1, -1} ==")
rng = stream.rng()
for i in range(4):
    path = pf.sample_path(measure, T, rng)
    print(f"path {i}: N_T={path.count_jumps()}  endpoint={path.value_at(T)[0]:+g}")
    print("   json:", path.to_json())

print()
print("== the jump count is Poisson(T) ==")
batch = pf.sample_path_batch(measure, T, stream.rng(), 200_000)
for k in range(5):
    freq = (batch.counts == k).mean()
    target = math.exp(-T) * T**k / math.factorial(k)
    print(f"P(N_T = {k}):  empirical {freq:.4f}   exact {target:.4f}")
print(f"mean N_T: {batch.counts.mean():.4f}  (exact {T})")

print()
print("== random shifts insert one jump ==")
shift = pf.sample_shifted_batch(measure, T, stream.rng(), 1)
tau, xi = float(shift.tau[0]), shift.xi[0]
base = shift.base.path(0)
shifted = base.shift(tau, xi)
print(f"tau={tau:.3f}  xi={xi[0]:+g}")
print(f"base   N_T={base.count_jumps()}  endpoint={base.value_at(T)[0]:+g}")
print(f"shifted N_T={shifted.count_jumps()}  endpoint={shifted.value_at(T)[0]:+g}")
