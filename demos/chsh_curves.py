"""CHSH violation seen by a moving observer: the two Bell-sector curves.

The fixed measurement settings are the rest-frame optima of each sector
(all in the xy-plane, with b = y and b' = x).  As the observer's speed
grows, every joint expectation is computed with boost-corrected spin
observables, and the violation decays:

  * exchange sector (state 10): (2/sqrt(2-b^2)) (1 + sqrt(1-b^2)),
    independent of the pair's energy, reaching exactly 2 at b = 1;
  * rotating sector (state 00): (2/sqrt(2-b^2)) (sqrt(1-b^2) + cos 2 Omega),
    which also feels the Wigner angle and dips far below 2.

Both curves are evaluated through ``chsh`` (the boosted pair's correlation
tensor contracted with the effective Bloch vectors) and checked against
their closed forms, each as one call on the 25 speeds as rows; a PNG is
saved when matplotlib is importable.
"""

import math

import numpy as np

from relbell import (
    BoostSpec,
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    FourMomentum,
    X_HAT,
    bell_state,
    boost_two_particle,
    chsh,
    chsh_case1_closed,
    chsh_universal,
    wigner_angle,
)

E_OVER_M = 10.0


def boosted(i, j, betas):
    """The Bell pair (i, j) at E_OVER_M, boosted along x at each speed: one pair per row."""
    return boost_two_particle(bell_state(i, j, FourMomentum.along_z(E_OVER_M)),
                              BoostSpec(X_HAT, betas))


betas = np.linspace(0.0, 0.999, 25)
omegas = wigner_angle(betas, E_OVER_M)
exchange = chsh(boosted(1, 0, betas), CASE2_SETTINGS, betas, X_HAT)
rotating = chsh(boosted(0, 0, betas), CASE1_SETTINGS, betas, X_HAT)

print(f"pair energy E/m = {E_OVER_M}; settings fixed at their rest-frame optima")
print(f"{'beta':>6} {'exchange(10)':>13} {'rotating(00)':>13} {'omega':>8}")
for row in zip(betas.tolist(), exchange.tolist(), rotating.tolist(), omegas.tolist()):
    print("{:6.3f} {:13.6f} {:13.6f} {:8.4f}".format(*row))

print(f"\nclassical bound 2, quantum bound 2*sqrt(2) = {2 * math.sqrt(2):.6f}")
print(f"closed-form cross-check (worst residuals): "
      f"exchange {np.abs(exchange - chsh_universal(betas)).max():.2e}, "
      f"rotating {np.abs(rotating - chsh_case1_closed(betas, omegas)).max():.2e}")
print(f"light-speed limit of the exchange curve: chsh_universal(1) = "
      f"{chsh_universal(1.0)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(betas, exchange, "o-", label="exchange sector (10)")
    ax.plot(betas, rotating, "s-", label=f"rotating sector (00), E/m={E_OVER_M:g}")
    ax.axhline(2.0, color="gray", ls="--", lw=1, label="classical bound")
    ax.axhline(2 * math.sqrt(2), color="gray", ls=":", lw=1, label="quantum bound")
    ax.set_xlabel("observer speed beta")
    ax.set_ylabel("CHSH value")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("chsh_curves.png", dpi=120)
    print("\nwrote chsh_curves.png")
