"""No multiplicative entropy-energy inequality can hold on this path space.

The witnesses are the normalized count indicators F_m = 1{N_T = m} / sqrt(p_m):
each has unit second moment, entropy -log p_m, and energy 1 + m/T.  Their
entropy/energy ratio grows like T log m, so for every candidate constant C
there is a witness breaking entropy <= C * energy.  The closed-form curve is
cross-checked against the independent truncated-sum calculus.
"""

from math import sqrt

import numpy as np
from scipy.stats import poisson

import pathform as pf

T = 1.0
count_m_max = 400

print(f"{'m':>4} {'entropy':>12} {'energy':>10} {'ratio':>10} {'ratio (sums)':>13}")
for m, ratio in pf.lsi_witness_curve(T, range(10, 101, 10)):
    scale = 1.0 / sqrt(float(poisson.pmf(m, T)))
    g = pf.CountFunctional(g=lambda counts, m=m, s=scale: np.where(counts == m, s, 0.0))
    stats = pf.poisson_count_stats(g, T, count_m_max)
    print(f"{m:>4} {stats.entropy:12.4f} {stats.energy:10.4f} "
          f"{ratio:10.4f} {stats.entropy / stats.energy:13.4f}")

print()
print("for any constant C there is a witness level m with ratio > C:")
for c in (2.0, 5.0, 10.0, 50.0, 200.0):
    m = pf.lsi_exceed_level(T, c)
    print(f"  C = {c:>6}:  ratio({m}) = {pf.witness_ratio(T, m):.4f} > C")
