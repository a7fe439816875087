"""Relativistic spin-1/2 entanglement toolkit.

Wigner rotations of massive spin-1/2 states under Lorentz boosts, the
transformation of momentum-conserved Bell pairs between inertial frames,
and CHSH Bell observables built from boost-corrected spin operators.

Conventions used throughout: natural units (c = 1), four-vectors ordered
(x, y, z, t) with metric diag(+1, +1, +1, -1), and the two-spin basis
ordered (++, +-, -+, --).

Shapes follow numpy's leading axis: every value type takes one value or n
rows, and every row equals the one-value call on it bit for bit.
``FourMomentum`` takes a 3-vector or an (n, 3) stack with n energies (and
one mass or n), ``FourMomentum.from_spatial`` a 3-vector or an (n, 3)
stack; ``BoostSpec`` one speed or n, and ``BoostSpec.from_rapidity`` one
rapidity or n, where a negative one flips its own row's direction, each
along one unit direction or an (n, 3) stack; ``ChshSettings`` takes each
direction as a unit vector or an (n, 3) stack; ``TwoQubitState`` a (4,) or
(n, 4) amplitude array with one kin_factor or n.  A single value beside n
rows is shared by every row.  ``bell_state``, ``boost_two_particle`` and
``bell_decompose`` carry the rows through, and ``chsh`` and ``chsh_max``
return a float for one pair and an (n,) array for n, as ``wigner_angle``
does for one speed and E/m or n of either, and the closed forms
(``chsh_closed``, its curves ``chsh_case1_closed`` and ``chsh_universal``,
and the two ``expectation_case*_closed``) for one speed, angle and unit
direction or n of any.  ``TwoQubitState.row(k)`` and
``FourMomentum.row(k)`` give row k as the one-value pair or momentum; one
value is every row.  ``maximize_chsh``, ``little_group_closed`` and
``dump_state`` take one value and raise ``ValueError`` on rows.

``__all__`` lists the product first, then the brute-force references: the
three ``d_half_*`` spinors, ``exp2``, ``little_group_oracle``,
``little_group_lorentz``, ``rotation_angle``, ``boost_matrix``,
``apply_boost``, ``standard_boost``, ``SpinObservable``,
``rel_spin_observable``, ``joint_expectation`` and ``BellCoefficients``.
These are the literal spinor, 4x4 and matrix routes, and the types that only
they, ``verify``, the tests and the demos read; ``verify`` and the tests
check the product against them.

``import relbell`` loads numpy only.  ``maximize_chsh`` and
``OptimizationResult`` load ``relbell.optimizer`` (and with it
``scipy.optimize``) the first time either name is read.  ``relbell.verify``
loads no scipy.  The CLI, ``relbell.cli``, still imports ``relbell.optimizer``
and so loads ``scipy.optimize``, which loads ``scipy.linalg``, until the
benchmark stops timing them (ROADMAP item 1).
"""

from relbell.linalg import sigma_dot, tensor, exp2
from relbell.kinematics import (
    ETA,
    X_HAT,
    Y_HAT,
    Z_HAT,
    FourMomentum,
    BoostSpec,
    EnergyOverflowError,
    boost_matrix,
    apply_boost,
    standard_boost,
)
from relbell.wigner import (
    WignerRotation,
    d_half_pure_boost,
    d_half_standard,
    d_half_exponential,
    little_group_closed,
    little_group_oracle,
    little_group_lorentz,
    rotation_angle,
    wigner_angle,
)
from relbell.bell import (
    BASIS_LABELS,
    TwoQubitState,
    BellCoefficients,
    bell_state,
    boost_two_particle,
    bell_decompose,
    dump_state,
)
from relbell.observables import (
    SpinObservable,
    ChshSettings,
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    REST_OPTIMAL_SETTINGS,
    rel_spin_observable,
    joint_expectation,
    expectation_case1_closed,
    expectation_case2_closed,
    chsh,
    chsh_max,
    chsh_closed,
    chsh_case1_closed,
    chsh_universal,
)

__version__ = "0.1.0"

__all__ = [
    # the product
    "sigma_dot", "tensor",
    "ETA", "X_HAT", "Y_HAT", "Z_HAT",
    "FourMomentum", "BoostSpec", "EnergyOverflowError",
    "WignerRotation", "little_group_closed", "wigner_angle",
    "BASIS_LABELS", "TwoQubitState", "bell_state", "boost_two_particle", "bell_decompose",
    "dump_state",
    "ChshSettings", "CASE1_SETTINGS", "CASE2_SETTINGS", "REST_OPTIMAL_SETTINGS",
    "expectation_case1_closed", "expectation_case2_closed", "chsh", "chsh_max",
    "chsh_closed", "chsh_case1_closed", "chsh_universal",
    "OptimizationResult", "maximize_chsh",
    # the brute-force references
    "d_half_pure_boost", "d_half_standard", "d_half_exponential", "exp2",
    "little_group_oracle", "little_group_lorentz", "rotation_angle",
    "boost_matrix", "apply_boost", "standard_boost",
    "SpinObservable", "rel_spin_observable", "joint_expectation", "BellCoefficients",
]


_OPTIMIZER_NAMES = ("OptimizationResult", "maximize_chsh")


def __getattr__(name):
    if name in _OPTIMIZER_NAMES:
        from relbell import optimizer
        return getattr(optimizer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
