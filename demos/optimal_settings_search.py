"""Do the rest-frame-optimal settings stay optimal for a moving observer?

The fixed settings used in the CHSH curves are optimal at beta = 0.  This
script re-optimizes the four measurement directions at each speed with the
closed-form maximum and compares.  The maximum is the full quantum bound
2*sqrt(2) at every beta < 1, for both sectors: the map from measurement
directions to boost-corrected observables is a bijection of the sphere
(given a unit u, the direction a proportional to
u_par + u_perp / sqrt(1-beta^2) produces it), so the best value over
settings is the rest-frame Horodecki bound 2*sqrt(s1^2 + s2^2) of the
state's correlation tensor, and the boosted pair is still maximally
entangled.  The decaying curves are therefore a statement about holding
the settings fixed, not about the entanglement itself.
"""

import math

import numpy as np

from relbell import (
    BoostSpec,
    FourMomentum,
    REST_OPTIMAL_SETTINGS,
    X_HAT,
    bell_state,
    boost_two_particle,
    chsh,
    maximize_chsh,
)

E_OVER_M = 10.0


def boosted(state, beta):
    s = bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(E_OVER_M))
    return s if beta == 0.0 else boost_two_particle(s, BoostSpec(X_HAT, beta))


print(f"pair energy E/m = {E_OVER_M}; optimized settings from the closed form")
print(f"quantum bound 2*sqrt(2) = {2 * math.sqrt(2):.6f}\n")

for state in ("10", "00"):
    print(f"--- state {state} ---")
    print(f"{'beta':>6} {'fixed':>10} {'optimized':>10} {'gain':>9}")
    for beta in (0.0, 0.3, 0.6, 0.9):
        s = boosted(state, beta)
        fixed = chsh(s, REST_OPTIMAL_SETTINGS[state], beta, X_HAT)
        res = maximize_chsh(s, beta, X_HAT)
        print(f"{beta:6.2f} {fixed:10.6f} {res.value:10.6f} {res.value - fixed:9.6f}")
    print()

beta = 0.9
res = maximize_chsh(boosted("00", beta), beta, X_HAT)
np.set_printoptions(precision=4, suppress=True)
print(f"optimized directions for the rotating sector at beta = {beta}:")
for name, v in (("a ", res.settings.a), ("a'", res.settings.a_prime),
                ("b ", res.settings.b), ("b'", res.settings.b_prime)):
    print(f"  {name} = {v}")
print("(the vectors leave the xy-plane: out-of-plane components compensate "
      "both the Wigner rotation and the boost distortion of the "
      "observables, restoring the full violation)")
