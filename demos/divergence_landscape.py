"""The divergence objective: convexity along geodesics and its Newton minimizer.

Run with ``python demos/divergence_landscape.py``.
"""

import numpy as np

from spdmeans import (
    SMeasure,
    distance,
    geometric_mean,
    lambda_mean,
    logdet_divergence,
    minimize_divergence,
    objective,
    product_measure,
    riemannian_gradient,
)
from spdmeans.verify import CHECKS, random_spd

rng = np.random.default_rng(1)


print("=== The one-parameter divergence between two fixed matrices ===")
x, a = random_spd(rng, 3, 0.3, 3.0), random_spd(rng, 3, 0.3, 3.0)
print("s        LD_s(X, A)")
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"{s:<8} {logdet_divergence(x, a, s):.6f}")
print(f"LD_s(A, A, 0.5) = {logdet_divergence(a, a, 0.5):.1e}  (zero only at X = A)")

print()
print("=== The integrated objective is geodesically convex ===")
mu = product_measure(SMeasure.lebesgue(), [(w, random_spd(rng, 3, 0.3, 3.0)) for w in (0.4, 0.6)])
g0, g1 = random_spd(rng, 3, 0.3, 3.0), random_spd(rng, 3, 0.3, 3.0)
f0, f1 = objective(g0, mu), objective(g1, mu)
print("tau      F(geodesic)   (1-tau) F0 + tau F1")
for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
    fm = objective(geometric_mean(g0, g1, tau), mu)
    print(f"{tau:<8} {fm:<13.6f} {(1 - tau) * f0 + tau * f1:.6f}")
# spdmeans verify's convexity row: chords and second differences on two random
# geodesics of each of 50 random measures
convexity = {name: check for name, _, check in CHECKS}["divergence.geodesic_convexity"]
print("spot check over 100 random geodesics:",
      "no violations" if all(all(convexity(rng, 3)) for _ in range(50)) else "VIOLATION FOUND")

print()
print("=== Riemannian Newton reaches the same point as the t-schedule ===")
# two atoms whitened by their weighted arithmetic mean commute, which makes
# the problem scalar; three atoms do not
mu3 = product_measure(SMeasure.lebesgue(),
                      [(w, random_spd(rng, 3, 0.3, 3.0)) for w in (0.3, 0.3, 0.4)])
trace = []
rep = minimize_divergence(mu3, on_step=lambda x, f, g: trace.append((f, g)))
print("step   objective        gradient norm")
for i, (f, g) in enumerate(trace[:8], start=1):
    print(f"{i:<6} {f:<16.12f} {g:.3e}")
if len(trace) > 8:
    print(f"... {len(trace) - 8} more steps")
ref = lambda_mean(mu3)
print(f"d(Newton minimizer, net limit) = {distance(rep.mean, ref.mean):.3e}")

print()
print("=== The gradient is the negated Karcher residual ===")
p = random_spd(rng, 3, 0.3, 3.0)
g = riemannian_gradient(p, mu)
h = 1e-6
v = np.triu(np.ones((3, 3))) * 0.1
v = 0.5 * (v + v.T)
num = (objective(p + h * v, mu) - objective(p - h * v, mu)) / (2 * h)
pi = np.linalg.inv(p)
print(f"finite difference slope: {num:.10f}")
print(f"metric pairing <grad,V>: {float(np.sum((pi @ g @ pi) * v)):.10f}")
