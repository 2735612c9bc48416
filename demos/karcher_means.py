"""Tour of the mean solvers: induced means, the t-schedule, and oracles.

Run with ``python demos/karcher_means.py``.
"""

import numpy as np

from spdmeans import (
    SMeasure,
    SolverConfig,
    distance,
    geometric_mean,
    induced_mean,
    lambda_mean,
    power_mean,
    product_measure,
    weighted_arith,
    weighted_harm,
)
from spdmeans.verify import random_spd

rng = np.random.default_rng(0)


print("=== Two matrices, uniform [0,1]-measure: the classical Karcher mean ===")
a, b = random_spd(rng, 3, 0.2, 5.0), random_spd(rng, 3, 0.2, 5.0)
mu = product_measure(SMeasure.lebesgue(), [(0.5, a), (0.5, b)])

print("induced means walk down the t-schedule, decreasing in the Loewner order:")
for t in (1.0, 0.5, 0.25, 0.125):
    rep = induced_mean(t, mu)
    print(f"  t={t:<6g} iterations={rep.iterations:<4d} "
          f"d(L_t, A#B) = {distance(rep.mean, geometric_mean(a, b, 0.5)):.3e}")

rep = lambda_mean(mu)
print(f"net limit: {len(rep.t_trace)} levels, {rep.iterations} total iterations")
print(f"  d(Lambda, A#B)        = {distance(rep.mean, geometric_mean(a, b, 0.5)):.3e}")
print(f"  whitened residual     = {rep.residual_norm:.3e}")

print()
print("=== Dirac endpoints recover the arithmetic and harmonic means ===")
mats = [random_spd(rng, 3, 0.2, 5.0) for _ in range(4)]
w = [0.1, 0.2, 0.3, 0.4]
pairs = list(zip(w, mats))
arith = lambda_mean(product_measure(SMeasure.dirac(1.0), pairs)).mean
harm = lambda_mean(product_measure(SMeasure.dirac(0.0), pairs)).mean
print(f"  d(Lambda[dirac(1)], arithmetic) = {distance(arith, weighted_arith(pairs)):.3e}")
print(f"  d(Lambda[dirac(0)], harmonic)   = {distance(harm, weighted_harm(pairs)):.3e}")

print()
print("=== Power means: direct fixed point vs the representing-measure route ===")
for t in (0.2, 0.5, 0.8):
    direct = power_mean(t, pairs)
    routed = lambda_mean(product_measure(SMeasure.power(t), pairs))
    print(f"  t={t}: d(direct, routed) = {distance(direct.mean, routed.mean):.3e}  "
          f"(direct solved in {direct.iterations} iterations)")

print()
print("=== Commuting atoms reduce to scalar means ===")
vals = np.exp(rng.uniform(-1.5, 1.5, (3, 2)))
pairs = [(1 / 3, np.diag(v)) for v in vals]
mu = product_measure(SMeasure.lebesgue(), pairs)
exact = np.exp(np.mean(np.log(vals), axis=0))
got = np.diag(lambda_mean(mu).mean)
print(f"  diag(Lambda)      = {got}")
print(f"  exp(mean(log a))  = {exact}")

print()
print("=== Config knobs: loosening the tolerance on successive t = 0 extrapolations ===")
mu = product_measure(SMeasure.lebesgue(), [(0.5, a), (0.5, b)])
for tol in (1e-6, 1e-9):
    rep = lambda_mean(mu, SolverConfig(lambda_tol=tol))
    print(f"  lambda_tol={tol:g}: levels={len(rep.t_trace)}, residual={rep.residual_norm:.3e}")
