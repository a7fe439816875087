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
configurations produce byte-identical files.  A scan's body is built in one
``%`` pass over its columns (``%.17g`` prints a float as ``f"{x:.17g}"``
does); ``wigner-scan`` formats each beta and each E/m once.  A CSV is
written over its path in place, through the file descriptor: the file is
opened without truncation, written from its start with ``os.write`` until
every byte is out, and cut to the new length only when ``fstat`` shows a
longer regular file, because truncating a file to zero and writing it again
makes ext4 (``auto_da_alloc``) flush it to disk on close.  Pipes, terminals
and /dev/null just receive the bytes.  Scans evaluated through the matrix
path clamp beta = 1 rows to 1 - 1e-12 (the clamped value is what lands in
the CSV).  ``eval`` prints no formula of its own: its ``chsh_closed`` line
is ``relbell.observables.chsh_closed`` at the settings of the state's sector.
``eval --beta 1`` prints the exact limits (the Wigner angle, the closed-form
CHSH values, the rest pair's maximum, which a boost keeps) and leaves out
the boosted pair's lines, which exist below light speed only.
Each scan takes its Wigner angles in one ``wigner_angle`` call on rows per
E/m.  ``chsh-scan`` builds its pair once per call and, for
fixed settings, boosts it and evaluates CHSH over the whole beta grid in one
array pass through the pair kernel; every row equals the scalar
``chsh(boost_two_particle(...))`` bit for bit, because the kernel uses only
correctly rounded + - * / and sqrt.  The commands that build a pair
(``chsh-scan``, ``optimize``, ``eval --state``) report an E/m whose pair, or
the boosted pair they build, overflows the float range
(``EnergyOverflowError``) as a usage error, exit 2.

``--vectors optimal`` and ``optimize`` report the exact maximum over
settings: for beta < 1 the boost correction maps the sphere of measurement
directions one-to-one onto itself, so the best CHSH value is the rest-frame
Horodecki bound 2 sqrt(s1^2 + s2^2) of the state's correlation tensor
(Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)), which
for a pure pair is 2 sqrt(1 + C^2) with C its concurrence.
``relbell.observables.chsh_max`` evaluates it from the amplitudes;
``optimize`` also prints the settings that reach it, from
``relbell.optimizer.maximize_chsh``.  A boost acts on the pair as the local
unitary W1 (x) W2, which keeps C, so the maximum is the same in every frame:
the optimal ``chsh-scan`` and ``eval`` print the rest pair's ``chsh_max`` at
every beta, and the optimal scan boosts nothing.  No command searches, and
only ``verify`` draws random numbers.  Its seed comes from ``--seed`` alone
(default 0); no environment variable is read.  ``chsh-scan`` still accepts
``--seed`` and ``--restarts`` and ignores them.

``main(argv)`` may be called repeatedly in one process (the tests, the
benchmark and notebooks do): it builds its argparse tree on the first call
and reuses it for every later one, because nothing in the tree depends on
argv.  Each call parses once, with the command's own parser: an argv that
starts with a command goes straight to that command's parser, as the
top-level parser would hand it on, and the top-level parser reports what it
leaves unrecognized; any other argv (empty, ``-h``, an unknown command, an
option first) goes through the whole tree.  Importing this module builds no
parser, and ``build_parser()`` returns a new one on every call.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from itertools import chain

import numpy as np

from relbell.bell import bell_state, boost_two_particle, dump_state
from relbell.kinematics import BoostSpec, EnergyOverflowError, FourMomentum, X_HAT
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    REST_OPTIMAL_SETTINGS,
    chsh,
    chsh_closed,
    chsh_max,
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


def _usage_errors(command):
    """``command`` with an ``EnergyOverflowError`` reported as a usage error (exit 2).

    For the commands that build a pair: an E/m whose pair or boosted pair
    overflows the float range is a bad argument, not a crash.  The other
    ``ValueError``s they can meet are failed checks of a computed value's
    invariants, which stay tracebacks.
    """
    @functools.wraps(command)
    def run(parser, args):
        try:
            return command(parser, args)
        except EnergyOverflowError as exc:
            parser.error(str(exc))
    return run


def _beta_grid(parser, beta_min: float, beta_max: float, steps: int) -> np.ndarray:
    if not 0.0 <= beta_min < beta_max <= 1.0:
        parser.error(f"need 0 <= beta-min < beta-max <= 1, got [{beta_min}, {beta_max}]")
    if steps < 2:
        parser.error(f"steps must be >= 2, got {steps}")
    return np.linspace(beta_min, beta_max, steps)


def _csv(header: str, row: str, columns) -> str:
    """The CSV text: ``header``, then the ``row`` format once per row of ``columns``.

    One ``%`` pass formats every cell; ``%.17g`` prints a float as
    ``_fmt`` does.
    """
    return f"{header}\n" + (row * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))


def _write_csv(parser, path: str, text: str) -> None:
    """Write ``text`` over ``path`` in place; only a longer regular file is cut to the new length.

    No O_TRUNC (see the module docstring); a pipe, a terminal or /dev/null
    just receives the bytes, as it would after a truncating open.
    """
    data = text.encode()
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            done = os.write(fd, data)
            while done < len(data):  # a short write, as a pipe may make
                done += os.write(fd, memoryview(data)[done:])
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > done:
                os.ftruncate(fd, done)
        finally:
            os.close(fd)
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc}")


def _pair(parser, state: str, e_over_m: float):
    if e_over_m == 1.0:  # a pair at rest, which momentum conservation rules out
        parser.error("E/m must be > 1 for a momentum-conserved pair, got 1.0")
    return bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(e_over_m))


def _boosted(s, beta: float):
    return s if beta == 0.0 else boost_two_particle(s, BoostSpec(X_HAT, beta))


def cmd_wigner_scan(parser, args) -> int:
    betas = np.minimum(_beta_grid(parser, args.beta_min, args.beta_max, args.steps), BETA_CLAMP)
    ratios = args.e_over_m
    # each beta and each E/m formatted once; the angles one row call per E/m
    beta_cells = ["%.17g" % b for b in betas.tolist()]
    ratio_cells = ["%.17g" % r for r in ratios]
    omegas = [om for r in ratios for om in wigner_angle(betas, r).tolist()]
    columns = (beta_cells * len(ratios), [c for c in ratio_cells for _ in beta_cells], omegas)
    _write_csv(parser, args.out, _csv("beta,e_over_m,omega_rad", "%s,%s,%.17g\n", columns))
    return 0


@_usage_errors
def cmd_chsh_scan(parser, args) -> int:
    grid = _beta_grid(parser, args.beta_min, args.beta_max, args.steps)
    state = args.state
    angle_dependent = state in ANGLE_DEPENDENT_STATES
    if angle_dependent and args.e_over_m is None:
        parser.error(f"--e-over-m is required for state {state} (the curve depends on it)")
    e_over_m = args.e_over_m if args.e_over_m is not None else 10.0
    rest = _pair(parser, state, e_over_m)
    betas = np.minimum(grid, BETA_CLAMP)
    if args.vectors == "optimal":  # a boost keeps C: every row is the rest pair's maximum
        values = [chsh_max(rest)] * len(betas)
    else:  # chsh(_boosted(rest, b), ...) for every b at once, as n rows
        settings, moving = _SCAN_SETTINGS[args.vectors], betas > 0.0  # beta = 0: the rest pair
        values = np.full(len(betas), chsh(rest, settings, 0.0, X_HAT))
        values[moving] = chsh(boost_two_particle(rest, BoostSpec(X_HAT, betas[moving])), settings,
                              betas[moving], X_HAT)
        values = values.tolist()
    if angle_dependent:
        text = _csv("beta,chsh,omega_rad", "%.17g,%.17g,%.17g\n",
                    (betas.tolist(), values, wigner_angle(betas, e_over_m).tolist()))
    else:  # the omega column blank
        text = _csv("beta,chsh,omega_rad", "%.17g,%.17g,\n", (betas.tolist(), values))
    _write_csv(parser, args.out, text)
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


@_usage_errors
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


@_usage_errors
def cmd_eval(parser, args) -> int:
    beta, state, vectors = args.beta, args.state, args.vectors
    if not 0.0 <= beta <= 1.0:
        parser.error(f"beta must lie in [0, 1], got {beta}")
    omega = wigner_angle(beta, args.e_over_m)
    rest = None if state is None else _pair(parser, state, args.e_over_m)
    moving = rest is not None and beta < 1.0  # the boosted pair exists below light speed only
    s = _boosted(rest, beta) if moving else rest
    print(f"beta {_fmt(beta)}")
    print(f"e_over_m {_fmt(args.e_over_m)}")
    print(f"omega_rad {_fmt(omega)}")
    print(f"chsh_universal {_fmt(chsh_universal(beta))}")
    if moving:
        print(f"kin_factor {_fmt(s.kin_factor)}")
    if rest is not None and vectors == "optimal":  # a boost keeps C: the rest pair's, any beta
        print(f"chsh_optimal {_fmt(chsh_max(rest))}")
    elif moving:
        print(f"chsh_{vectors} {_fmt(chsh(s, _SCAN_SETTINGS[vectors], beta, X_HAT))}")
    # the table's value at the settings of the state's own sector
    if state is not None and vectors == ("case1" if state in ANGLE_DEPENDENT_STATES else "case2"):
        print(f"chsh_closed {_fmt(chsh_closed(state, vectors, beta, omega))}")
    if moving and args.dump:
        print(dump_state(s), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    return _tree()[0]


def _tree() -> tuple:
    """A new parser tree: the top-level parser, and its command parsers by name."""
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

    return parser, sub.choices


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
def _parser() -> tuple:
    """The parser tree that every ``main`` call reuses; nothing in it depends on argv."""
    return _tree()


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # what parse_args does for a command first: the command's parser takes the rest,
        # and the top-level parser reports what it leaves
        command = argv[0]
        args, extras = commands[command].parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:  # no command first: the whole tree parses, and reports what is wrong
        args = parser.parse_args(argv)
        command = args.command
    return _COMMANDS[command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
