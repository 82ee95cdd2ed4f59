"""The shifted-path law has density N_T / T with respect to the base law.

For a lattice jump measure the identity

    E F(X + k 1_[tau, T])  =  E[F(X) N^(k)_T] / (T nu(k))

is checked exactly: the left side collapses the shift-time integral onto
F's coordinate grid, the right side propagates count-weighted transition
tables.  For a continuous mark law the aggregate version with density
N_T / T is checked by Monte Carlo on common samples.
"""

import pathform as pf
from pathform.harness import continuous_corpus, lattice_corpus

T = 1.0

print("== exact, marks uniform on {+1, -1} ==")
model = pf.LatticeModel.from_measure(pf.uniform_pm1(), truncation_tolerance=1e-12)
print(f"{'functional':<12} {'k':>2} {'lhs':>12} {'rhs':>12} {'|diff|':>9}")
for F in lattice_corpus(T):
    for k in (1, -1):
        lhs, rhs = pf.qi_check(model, T, F, k)
        print(f"{F.name:<12} {k:+2d} {lhs:12.8f} {rhs:12.8f} {abs(lhs - rhs):9.1e}")

print()
print("== Monte Carlo, marks uniform on [1, 2] ==")
measure = pf.uniform_interval(1.0, 2.0)
corpus = continuous_corpus(T)
# one shifted sample set serves every functional: the identity holds for each F
for F, comp in zip(corpus, pf.qi_mc(corpus, measure, T, 300_000, pf.StreamConfig(seed=7))):
    z = abs(comp.diff.mean) / comp.diff.stderr if comp.diff.stderr else 0.0
    print(f"{F.name:<12} E F(shifted)={comp.lhs.mean:+.5f} "
          f"E[F N]/T={comp.rhs.mean:+.5f}  |z|={z:.2f}")
