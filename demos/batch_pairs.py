"""Ten thousand Bell pairs at once: the public API on rows, and the same pairs one by one.

Every value type takes n rows along a leading axis, and the pair kernel runs
one body on floats for one pair and on 1-D arrays for n.  So a whole batch
of random pairs -- random momenta, Bell states, two chained boosts and CHSH
settings -- goes through the same public calls as one pair, and every row
equals the scalar call on it bit for bit.  This demo builds 10^4 such pairs,
runs them as rows, runs the first 200 through the scalar calls in a loop,
checks that both give the same bits and prints the time per pair of each.
"""

import math
import time

import numpy as np

from relbell import (
    BoostSpec,
    ChshSettings,
    FourMomentum,
    TwoQubitState,
    bell_state,
    boost_two_particle,
    chsh,
)

N, SCALAR = 10_000, 200
rng = np.random.default_rng(2020)


def units(n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


# E/m log-uniform in [1, 1e3] along random directions; one of the four Bell states per pair
ratios = np.exp(rng.uniform(0.0, math.log(1e3), N))
p = np.sqrt((ratios - 1.0) * (ratios + 1.0))[:, None] * units(N)
bell = np.array([bell_state(i, j, FourMomentum.along_z(2.0)).amps for i in (0, 1) for j in (0, 1)])
amps = bell[rng.integers(4, size=N)]
e1, beta1, e2, beta2 = units(N), rng.uniform(0.0, 0.99, N), units(N), rng.uniform(0.0, 0.99, N)
a, a_prime, b, b_prime = units(N), units(N), units(N), units(N)
e_obs, beta_obs = units(N), rng.uniform(0.0, 0.99, N)


def rows():
    pairs = TwoQubitState(amps, 1.0, FourMomentum.from_spatial(p))
    once = boost_two_particle(pairs, BoostSpec(e1, beta1))
    twice = boost_two_particle(once, BoostSpec(e2, beta2))
    return twice, chsh(twice, ChshSettings(a, a_prime, b, b_prime), beta_obs, e_obs)


def one(k):
    pair = TwoQubitState(amps[k], 1.0, FourMomentum.from_spatial(p[k]))
    once = boost_two_particle(pair, BoostSpec(e1[k], beta1[k]))
    twice = boost_two_particle(once, BoostSpec(e2[k], beta2[k]))
    return twice, chsh(twice, ChshSettings(a[k], a_prime[k], b[k], b_prime[k]), beta_obs[k],
                       e_obs[k])


start = time.perf_counter()
batch, values = rows()
rows_s = time.perf_counter() - start
start = time.perf_counter()
scalar = [one(k) for k in range(SCALAR)]
scalar_s = time.perf_counter() - start


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


for k, (pair, value) in enumerate(scalar):
    assert bits(batch.amps[k].view(float)) == bits(pair.amps.view(float)), k
    assert bits(batch.kin_factor[k]) == bits(pair.kin_factor), k
    for label, own in ((batch.p_label, pair.p_label), (batch.p2_label, pair.p2_label)):
        assert bits(label.p[k]) == bits(own.p) and bits(label.E[k]) == bits(own.E), k
    assert type(value) is float and bits(values[k]) == bits(value), k

print(f"{N} random pairs, each boosted twice and measured with CHSH")
print(f"  as rows:           {1e6 * rows_s / N:8.2f} us per pair")
print(f"  one by one ({SCALAR}): {1e6 * scalar_s / SCALAR:8.2f} us per pair")
print(f"the first {SCALAR} rows equal the one-by-one calls bit for bit; "
      f"|CHSH| <= {np.abs(values).max():.6f} <= 2 sqrt(2)")
