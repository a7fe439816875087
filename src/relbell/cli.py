"""Command-line interface: parameter scans, verification, single-point evaluation.

Subcommands
-----------
wigner-scan   rotation-angle grid over beta for one or more E/m values (CSV)
chsh-scan     CHSH value of a boosted Bell pair over a beta grid (CSV)
verify        randomized invariant suite; exit 1 on any failure
optimize      maximum CHSH over measurement directions at fixed beta
eval          single-point quantities for one (beta, E/m, state)

Conventions: CSV output is comma-separated with a mandatory header, '.'
decimal separator, 17 significant digits and LF line endings, so identical
configurations produce byte-identical files.  Scans evaluated through the
matrix path clamp beta = 1 rows to 1 - 1e-12 (the clamped value is what
lands in the CSV); the exact beta = 1 limit is available from ``eval``
through the closed forms.  ``chsh-scan`` builds its pair once per call and,
for fixed settings, boosts it and evaluates CHSH over the whole beta grid in
one array pass through the pair kernel; every row equals the scalar
``chsh(boost_two_particle(...))`` bit for bit, because the kernel uses only
correctly rounded + - * / and sqrt.

``--vectors optimal`` and ``optimize`` use the exact maximum of
``relbell.optimizer``: for beta < 1 the boost correction maps the sphere of
measurement directions one-to-one onto itself, so the best CHSH value over
settings is the rest-frame Horodecki bound 2 sqrt(s1^2 + s2^2) of the
state's correlation tensor (Horodecki, Horodecki & Horodecki, Phys. Lett.
A 200, 340 (1995)).  No command searches, and only ``verify`` draws random
numbers.  Its seed comes from ``--seed`` alone (default 0); no environment
variable is read.  ``chsh-scan`` still accepts ``--seed`` and
``--restarts`` and ignores them.

``main(argv)`` may be called repeatedly in one process (the tests, the
benchmark and notebooks do): it builds its argparse tree on the first call
and reuses it for every later one, because nothing in the tree depends on
argv.  Importing this module builds no parser, and ``build_parser()``
returns a new one on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from relbell.bell import _spin_map, bell_state, boost_two_particle, dump_state
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    REST_OPTIMAL_SETTINGS,
    _chsh_amps,
    chsh,
    chsh_case1_closed,
    chsh_universal,
)
from relbell.optimizer import maximize_chsh
from relbell.verify import run_checks
from relbell.wigner import wigner_angle

BETA_CLAMP = 1.0 - 1e-12

#: Bell states whose boosted form depends on the Wigner angle (and thus E/m).
ANGLE_DEPENDENT_STATES = ("00", "11")

_SCAN_SETTINGS = {"case1": CASE1_SETTINGS, "case2": CASE2_SETTINGS}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _beta_grid(parser, beta_min: float, beta_max: float, steps: int) -> np.ndarray:
    if not 0.0 <= beta_min < beta_max <= 1.0:
        parser.error(f"need 0 <= beta-min < beta-max <= 1, got [{beta_min}, {beta_max}]")
    if steps < 2:
        parser.error(f"steps must be >= 2, got {steps}")
    return np.linspace(beta_min, beta_max, steps)


def _write_csv(parser, path: str, header: str, rows) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc}")


def _pair(parser, state: str, e_over_m: float):
    if e_over_m == 1.0:  # a pair at rest, which momentum conservation rules out
        parser.error("E/m must be > 1 for a momentum-conserved pair, got 1.0")
    return bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(e_over_m))


def _boosted(s, beta: float):
    return s if beta == 0.0 else boost_two_particle(s, BoostSpec(X_HAT, beta))


def cmd_wigner_scan(parser, args) -> int:
    grid = _beta_grid(parser, args.beta_min, args.beta_max, args.steps)
    ratios = args.e_over_m
    rows = []
    for r in ratios:
        for beta in grid:
            b = min(float(beta), BETA_CLAMP)
            rows.append((_fmt(b), _fmt(r), _fmt(wigner_angle(b, r))))
    _write_csv(parser, args.out, "beta,e_over_m,omega_rad", rows)
    return 0


def cmd_chsh_scan(parser, args) -> int:
    grid = _beta_grid(parser, args.beta_min, args.beta_max, args.steps)
    state = args.state
    angle_dependent = state in ANGLE_DEPENDENT_STATES
    if angle_dependent and args.e_over_m is None:
        parser.error(f"--e-over-m is required for state {state} (the curve depends on it)")
    e_over_m = args.e_over_m if args.e_over_m is not None else 10.0
    rest = _pair(parser, state, e_over_m)
    betas = np.minimum(grid, BETA_CLAMP)
    if args.vectors == "optimal":
        values = [maximize_chsh(_boosted(rest, b), b, X_HAT).value for b in betas.tolist()]
    else:  # chsh(_boosted(rest, b), ...) for every b at once, without the pair objects
        amps = np.tile(rest.amps, (len(betas), 1))
        moving = betas > 0.0  # a beta = 0 row keeps the unboosted amplitudes
        amps[moving] = _spin_map(BoostSpec._rows(X_HAT, beta=betas[moving]), rest)[0]
        values = _chsh_amps(amps, _SCAN_SETTINGS[args.vectors], betas, X_HAT).tolist()
    rows = []
    for b, value in zip(betas.tolist(), values):
        omega = _fmt(wigner_angle(b, e_over_m)) if angle_dependent else ""
        rows.append((_fmt(b), _fmt(value), omega))
    _write_csv(parser, args.out, "beta,chsh,omega_rad", rows)
    return 0


def cmd_verify(parser, args) -> int:
    if args.samples < 1:
        parser.error(f"samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        parser.error(f"seed must be >= 0, got {args.seed}")
    results = run_checks(args.seed, args.samples)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"check {res.name}: max_residual={res.residual:.3e} "
              f"tol={res.tolerance:.1e} samples={res.samples} {status}")
        if not res.passed:
            failures += 1
            print(f"  worst inputs: {res.worst}")
    print(f"verify: {len(results) - failures}/{len(results)} checks passed "
          f"(seed={args.seed}, samples={args.samples})")
    if args.dump:
        for state in ("00", "01", "10", "11"):
            print(f"# state {state} boosted beta=0.6 e_over_m=10")
            print(dump_state(_boosted(_pair(parser, state, 10.0), 0.6)), end="")
    return 0 if failures == 0 else 1


def cmd_optimize(parser, args) -> int:
    if not 0.0 <= args.beta < 1.0:
        parser.error(f"beta must lie in [0, 1), got {args.beta}")
    s = _boosted(_pair(parser, args.state, args.e_over_m), args.beta)
    result = maximize_chsh(s, args.beta, X_HAT)
    baseline = chsh(s, REST_OPTIMAL_SETTINGS[args.state], args.beta, X_HAT)
    print(f"state {args.state}")
    print(f"beta {_fmt(args.beta)}")
    print(f"e_over_m {_fmt(args.e_over_m)}")
    print(f"value {_fmt(result.value)}")
    print(f"baseline_fixed_settings {_fmt(baseline)}")
    for name, v in (("a", result.settings.a), ("a_prime", result.settings.a_prime),
                    ("b", result.settings.b), ("b_prime", result.settings.b_prime)):
        print(f"{name} {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    return 0


def cmd_eval(parser, args) -> int:
    if not 0.0 <= args.beta <= 1.0:
        parser.error(f"beta must lie in [0, 1], got {args.beta}")
    beta_m = min(args.beta, BETA_CLAMP)  # matrix-path beta
    s = None if args.state is None else _boosted(_pair(parser, args.state, args.e_over_m), beta_m)
    print(f"beta {_fmt(args.beta)}")
    print(f"e_over_m {_fmt(args.e_over_m)}")
    print(f"omega_rad {_fmt(wigner_angle(beta_m, args.e_over_m))}")
    print(f"chsh_universal {_fmt(chsh_universal(args.beta))}")
    if s is not None:
        print(f"kin_factor {_fmt(s.kin_factor)}")
        if args.vectors == "optimal":
            print(f"chsh_optimal {_fmt(maximize_chsh(s, beta_m, X_HAT).value)}")
        else:
            value = chsh(s, _SCAN_SETTINGS[args.vectors], beta_m, X_HAT)
            print(f"chsh_{args.vectors} {_fmt(value)}")
            if args.state in ANGLE_DEPENDENT_STATES and args.vectors == "case1":
                # as beta -> 1, tan(omega) -> sinh(delta), so cos(omega) = m/E
                om = (wigner_angle(beta_m, args.e_over_m) if args.beta < 1
                      else math.acos(1.0 / args.e_over_m))
                if args.state == "11":  # the boost keeps 11 in 00's family at omega - pi/2
                    om -= math.pi / 2.0
                closed = chsh_case1_closed(args.beta, om)
                print(f"chsh_closed {_fmt(closed)}")
            elif args.vectors == "case2" and args.state in ("01", "10"):
                closed = chsh_universal(args.beta)
                if args.state == "01":  # correlation tensor diag(-1, 1, 1)
                    closed -= 4.0 / math.sqrt(2.0 - args.beta * args.beta)
                print(f"chsh_closed {_fmt(closed)}")
        if args.dump:
            print(dump_state(s), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relbell",
        description="Wigner rotations, boosted Bell pairs and relativistic CHSH observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner-scan", help="rotation angle over a beta grid (CSV)")
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--e-over-m", type=_ratio_list, default=(10.0, 100.0, 1000.0),
                   help="comma-separated E/m values (default 10,100,1000)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("chsh-scan", help="CHSH of a boosted Bell pair over a beta grid (CSV)")
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--state", choices=("00", "01", "10", "11"), default="10")
    p.add_argument("--vectors", choices=("case1", "case2", "optimal"), default="case2")
    p.add_argument("--e-over-m", type=_ratio, default=None,
                   help="E/m of the pair (required for states 00 and 11)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="ignored: the optimal settings are exact, not searched")
    p.add_argument("--restarts", type=int, default=None,
                   help="ignored: the optimal settings are exact, not searched")

    p = sub.add_parser("verify", help="run the randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--dump", action="store_true",
                   help="also print reference boosted-state dumps")

    p = sub.add_parser("optimize", help="maximize CHSH over measurement directions")
    p.add_argument("--state", choices=("00", "01", "10", "11"), default="10")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--e-over-m", type=_ratio, default=10.0)

    p = sub.add_parser("eval", help="single-point quantities")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--e-over-m", type=_ratio, default=10.0)
    p.add_argument("--state", choices=("00", "01", "10", "11"), default=None)
    p.add_argument("--vectors", choices=("case1", "case2", "optimal"), default="case2")
    p.add_argument("--dump", action="store_true", help="print the state dump")

    return parser


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"E/m must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"E/m must be finite, got {value}")
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"E/m must be >= 1, got {value}")
    return value


def _ratio_list(text: str) -> tuple:
    return tuple(_ratio(part) for part in text.split(","))


_COMMANDS = {
    "wigner-scan": cmd_wigner_scan,
    "chsh-scan": cmd_chsh_scan,
    "verify": cmd_verify,
    "optimize": cmd_optimize,
    "eval": cmd_eval,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``main`` call reuses; nothing in it depends on argv."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
