"""The divergence objective: convexity along geodesics and its Newton minimizer.

Run with ``python demos/divergence_landscape.py``.
"""

import numpy as np

from spdmeans import (
    SMeasure,
    distance,
    geodesic_convexity_check,
    geometric_mean,
    lambda_mean,
    logdet_divergence,
    minimize_divergence,
    objective,
    product_measure,
    riemannian_gradient,
)

rng = np.random.default_rng(1)


def rand_spd(n, lo=0.3, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return (q * d) @ q.T


print("=== The one-parameter divergence between two fixed matrices ===")
x, a = rand_spd(3), rand_spd(3)
print("s        LD_s(X, A)")
for s in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"{s:<8} {logdet_divergence(x, a, s):.6f}")
print(f"LD_s(A, A, 0.5) = {logdet_divergence(a, a, 0.5):.1e}  (zero only at X = A)")

print()
print("=== The integrated objective is geodesically convex ===")
mu = product_measure(SMeasure.lebesgue(), [(0.4, rand_spd(3)), (0.6, rand_spd(3))])
g0, g1 = rand_spd(3), rand_spd(3)
f0, f1 = objective(g0, mu), objective(g1, mu)
print("tau      F(geodesic)   (1-tau) F0 + tau F1")
for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
    fm = objective(geometric_mean(g0, g1, tau), mu)
    print(f"{tau:<8} {fm:<13.6f} {(1 - tau) * f0 + tau * f1:.6f}")
print("spot check over 500 random geodesics:",
      "no violations" if geodesic_convexity_check(mu, 500) else "VIOLATION FOUND")

print()
print("=== Riemannian Newton reaches the same point as the t-schedule ===")
# two atoms whitened by their weighted arithmetic mean commute, which makes
# the problem scalar; three atoms do not
mu3 = product_measure(
    SMeasure.lebesgue(), [(0.3, rand_spd(3)), (0.3, rand_spd(3)), (0.4, rand_spd(3))]
)
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
p = rand_spd(3)
g = riemannian_gradient(p, mu)
h = 1e-6
v = np.triu(np.ones((3, 3))) * 0.1
v = 0.5 * (v + v.T)
num = (objective(p + h * v, mu) - objective(p - h * v, mu)) / (2 * h)
pi = np.linalg.inv(p)
print(f"finite difference slope: {num:.10f}")
print(f"metric pairing <grad,V>: {float(np.sum((pi @ g @ pi) * v)):.10f}")
