"""Thompson metric properties and the explicit contraction factors.

Run with ``python demos/thompson_contraction.py``.
"""

import numpy as np

from spdmeans import (
    SMeasure,
    contraction_factor_affine,
    contraction_factor_mean,
    contraction_factor_uniform,
    distance,
    iteration_map,
    min_scaling,
    product_measure,
)
from spdmeans.core import sqrt_pair
from spdmeans.verify import random_ball_point, random_spd

rng = np.random.default_rng(2)


print("=== The part metric from extremal scalings ===")
a, b = random_spd(rng, 3, 0.3, 3.0), random_spd(rng, 3, 0.3, 3.0)
print(f"min alpha with A <= alpha B : {min_scaling(a, b):.6f}")
print(f"min alpha with B <= alpha A : {min_scaling(b, a):.6f}")
print(f"d(A, B) = max of the logs   : {distance(a, b):.6f}")

print()
print("=== Invariances: scaling, inversion, congruence ===")
m = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
print(f"d(3A, 3B)            = {distance(3 * a, 3 * b):.12f}")
print(f"d(inv A, inv B)      = {distance(np.linalg.inv(a), np.linalg.inv(b)):.12f}")
print(f"d(M A M', M B M')    = {distance(m @ a @ m.T, m @ b @ m.T):.12f}")

print()
print("=== Explicit contraction factors vs measured contraction ===")
print("the mean iteration X -> M(X, A) contracts Thompson balls;")
print("the factor depends on (s, t) and the ball radius r:")
print("s     t     r     factor    measured")
anchor = random_spd(rng, 3, 0.5, 2.0)
root = sqrt_pair(anchor)[0]
for s, t, r in [(0.2, 0.3, 1.0), (0.5, 0.5, 1.0), (0.8, 0.2, 2.0), (0.5, 0.9, 0.5)]:
    rho = contraction_factor_mean(s, t, r)
    mu = product_measure(SMeasure.dirac(s), [(1.0, anchor)])
    measured = 0.0
    for _ in range(20):
        x, y = random_ball_point(rng, root, r), random_ball_point(rng, root, r)
        dxy = distance(x, y)
        if dxy > 1e-10:
            measured = max(
                measured,
                distance(iteration_map(x, t, mu), iteration_map(y, t, mu)) / dxy,
            )
    print(f"{s:<5} {t:<5} {r:<5} {rho:<9.5f} {measured:.5f}")

print()
print("=== The s-independent bound dominates, and t = 1 collapses the map ===")
for t in (0.1, 0.5, 0.9, 1.0):
    uni = contraction_factor_uniform(t, 1.0)
    worst = max(contraction_factor_mean(s, t, 1.0) for s in np.linspace(0, 1, 21))
    print(f"t={t:<5} uniform bound {uni:.5f} >= max over s {worst:.5f}")

print()
print("=== Affine maps on the cone contract too ===")
print("factor of X -> A + X on a radius-1 ball:",
      f"{contraction_factor_affine(1.0, 1.0, 1.0):.6f}")
print("shrinking the X-coefficient shrinks the factor:",
      f"{contraction_factor_affine(1.0, 0.01, 1.0):.6f}")
