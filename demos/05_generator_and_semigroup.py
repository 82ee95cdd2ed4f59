"""The jump generator pairs with the quadratic form, and the one-time
marginal satisfies the semigroup variance identity.

L inserts a jump at a uniform time with the mark law, and removes an
existing jump picked uniformly among same-mark jump times.  On common
samples, E(F, G) + int G LF dmu has mean zero, and so does
int (G LF - F LG) dmu (symmetry).
"""

import numpy as np

import pathform as pf
from pathform.harness import lattice_corpus

T = 1.0
model = pf.LatticeModel.from_measure(pf.uniform_pm1(), truncation_tolerance=1e-12)
corpus = {F.name: F for F in lattice_corpus(T)}

print("== generator at single paths ==")
empty = pf.JumpPath.empty(T)
two = pf.JumpPath.from_jumps(T, [(0.3, 1.0), (0.8, -1.0)])
for name in ("ind0_end", "clip2_end"):
    F = corpus[name]
    print(f"L[{name}](empty)  = {pf.generator_apply(F, empty, model, T):+.6f}")
    print(f"L[{name}](2 jumps) = {pf.generator_apply(F, two, model, T):+.6f}")

print()
print("== pairing and symmetry, 300k samples ==")
pairs = [("ind0_end", "ind1_half"), ("clip2_end", "prod00")]
# one shifted sample set serves both pairs
results = pf.pairing_mc([(corpus[a], corpus[b]) for a, b in pairs], model, T,
                        300_000, pf.StreamConfig(seed=11))
for (a, b), res in zip(pairs, results):
    print(f"{a} | {b}:")
    print(f"  E(F,G)      = {res.form.mean:+.6f} +- {res.form.stderr:.6f}")
    print(f"  int G LF    = {res.pairing_fg.mean:+.6f} +- {res.pairing_fg.stderr:.6f}")
    print(f"  int F LG    = {res.pairing_gf.mean:+.6f} +- {res.pairing_gf.stderr:.6f}")
    z = abs(res.identity_fg.mean) / res.identity_fg.stderr
    print(f"  identity |z| = {z:.2f};  symmetry |z| = "
          f"{abs(res.symmetry.mean) / res.symmetry.stderr:.2f}")

print()
print("== semigroup variance identity at the origin, t = 1 ==")
cases = [("constant", lambda p: np.ones(np.shape(p))),
         ("linear", lambda p: np.asarray(p, dtype=float)),
         ("indicator of 0", lambda p: (np.asarray(p) == 0).astype(float))]
for name, f in cases:
    lhs, rhs = pf.semigroup_gap(model, f, 1.0, 0, 1e-3)
    print(f"{name:<15} variance={lhs:.10f}  integrated field={rhs:.10f} "
          f" gap={abs(lhs - rhs):.2e}")
