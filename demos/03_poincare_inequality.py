"""The spectral-gap inequality variance(F) <= T * energy(F), with sharp
constant T.

Both sides are computed exactly for bounded cylindrical functionals over a
lattice mark law.  The count map F = N_T attains equality, which is why the
constant T cannot be improved.
"""

import pathform as pf
from pathform.harness import lattice_corpus

model = pf.LatticeModel.from_measure(pf.uniform_pm1(), truncation_tolerance=1e-12)

for T in (0.5, 1.0, 2.0):
    print(f"== horizon T = {T} ==")
    print(f"{'functional':<12} {'n':>2} {'variance':>12} {'T*energy':>12} {'slack':>10}")
    for F in lattice_corpus(T):
        variance, bound = pf.poincare_check(model, T, F)
        print(f"{F.name:<12} {len(F.times):>2} {variance:12.8f} {bound:12.8f} "
              f"{bound - variance:10.2e}")
    print()

print("== sharpness: the count map N_T gives equality ==")
count_map = pf.CountFunctional(g=lambda counts: counts.astype(float))
for T in (0.5, 1.0, 2.0):
    s = pf.poisson_count_stats(count_map, T, m_max=80)
    print(f"T={T}:  variance={s.variance:.12f}  energy={s.energy:.12f}  "
          f"variance/energy = {s.variance / s.energy:.12f} (= T)")
