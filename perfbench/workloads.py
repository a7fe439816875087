"""The four benchmark workloads: seeded inputs, one timed pass, correctness gates.

Each workload has three steps.  ``inputs(rng, size)`` builds the
workload's input from the benchmark seed, split into chunks: one pass runs
every chunk once.  ``run(chunk, workdir)`` is the timed call of one chunk:
it calls only the program.  ``check(chunk, outputs, workdir)`` gates the
outputs against references that the program does not compute on that path,
and returns an ``Outcome``.  A wrong output counts as failed, never as fast.

Why each workload exists:

* ``paper_scans`` -- the README's fixed-settings scans.  The pair-boost and
  observable matrix path (bell, wigner, observables, kinematics, linalg)
  does the work in the paper's z-momentum / x-boost geometry; the
  optimizer is idle.
* ``optimal_scan`` -- ``chsh-scan --vectors optimal``: the Nelder-Mead
  settings search does almost all the work.  Its search seeds are fixed.
* ``verify`` -- the randomized invariant suite with its brute-force oracles.
* ``random_pairs`` -- the library pipeline off the special geometry: random
  momentum directions, generic, rest-frame and near anti-collinear boosts,
  chained boosts and random CHSH settings.  A z/x-specialised fast path
  would speed up ``paper_scans`` and not this one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from relbell import bell, cli, kinematics, observables, verify
from relbell.observables import chsh_case1_closed, chsh_universal
from relbell.wigner import wigner_angle

TSIRELSON = 2.0 * math.sqrt(2.0)
#: verify's chsh_curves tolerance: matrix-path CHSH against the closed forms
CURVE_TOL = 1e-10
#: verify's tsirelson_bound tolerance
TSIRELSON_TOL = 1e-12
#: tolerance of the optimizer's dominance tests (tests/test_optimizer.py)
DOMINANCE_TOL = 1e-6
#: TwoQubitState's normalization tolerance
NORM_TOL = 1e-12
#: failing inputs kept per exception type
EXAMPLES_PER_TYPE = 3

SIZES = {
    "full": {"scan_steps": 101, "optimal_chunks": 3, "restarts": None,
             "verify_samples": 50, "verify_chunks": 4, "pairs": 150, "pair_chunks": 12},
    "tiny": {"scan_steps": 3, "optimal_chunks": 2, "restarts": 1,
             "verify_samples": 2, "verify_chunks": 1, "pairs": 24, "pair_chunks": 1},
}


@dataclass
class Outcome:
    """Gate verdict for one pass."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    residual: float = 0.0
    errors: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    bytes_out: int = 0
    fingerprint: str = ""

    def fail(self, kind: str, example, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.errors[kind] += 1
        kept = self.examples.setdefault(kind, [])
        if len(kept) < EXAMPLES_PER_TYPE:
            kept.append(example)


# ---------------------------------------------------------------- CLI passes

def run_cli(argv_list) -> list:
    """Run each argv through ``relbell.cli.main`` in-process; capture stdout."""
    outputs = []
    for argv in argv_list:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded per type by the gates
            code = exc
        outputs.append((code, buf.getvalue()))
    return outputs


def _read_csv(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:  # a call that exits 0 without its CSV is wrong
        data = b""
    lines = data.decode().split("\n")
    return data, lines[0], [line.split(",") for line in lines[1:] if line]


def _expected_grid(beta_min, beta_max, steps):
    return [min(float(b), cli.BETA_CLAMP) for b in np.linspace(beta_min, beta_max, steps)]


def _call_failed(out: Outcome, code, argv, rows: int) -> bool:
    """Count every expected row of a call that did not exit 0 as failed."""
    if code == 0:
        return False
    kind = type(code).__name__ if isinstance(code, Exception) else f"exit {code}"
    for _ in range(rows):
        out.fail(kind, {"argv": list(argv), "error": str(code)}, wrong=False)
    out.attempted += rows
    return True


def _fingerprint(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def chsh_reference(state: str, beta: float, e_over_m: float) -> float:
    """CHSH of a boosted Bell pair at its README settings, in closed form.

    00 (case1): ``chsh_case1_closed(beta, omega)``.  The boost maps 00 to
    cos(omega)|00> - sin(omega)|11> and 11 to sin(omega)|00> + cos(omega)|11>,
    which is the same family at angle omega - pi/2, so 11 (case1) is
    ``chsh_case1_closed(beta, omega - pi/2)``.  10 (case2) follows the
    universal curve.  01 keeps its form under the boost; its correlation
    tensor is diag(-1, 1, 1), and with the boost-corrected case2 directions
    the CHSH value is (2/sqrt(2 - beta^2)) (sqrt(1 - beta^2) - 1), i.e. the
    universal curve minus 4/sqrt(2 - beta^2).
    """
    if state == "10":
        return chsh_universal(beta)
    if state == "01":
        return chsh_universal(beta) - 4.0 / math.sqrt(2.0 - beta * beta)
    omega = wigner_angle(beta, e_over_m)
    return chsh_case1_closed(beta, omega if state == "00" else omega - math.pi / 2.0)


class PaperScans:
    """README fixed-settings scans of all four Bell states plus wigner-scan."""

    STATES = (("00", "case1"), ("11", "case1"), ("01", "case2"), ("10", "case2"))
    RATIOS = (10.0, 100.0, 1000.0)

    def inputs(self, rng, size):
        steps = size["scan_steps"]
        scans = [("chsh", st, vec, r) for st, vec in self.STATES for r in self.RATIOS]
        scans.append(("wigner", None, None, self.RATIOS))
        # the README grids are fixed; the seed only orders the calls.
        # Each chunk is one call.
        order = rng.permutation(len(scans))
        return [[dict(zip(("kind", "state", "vectors", "e_over_m"), scans[k]),
                      steps=steps, out=f"scan{n:02d}.csv")] for n, k in enumerate(order)]

    def argv(self, scan, workdir):
        common = ["--beta-min", "0", "--beta-max", "1", "--steps", str(scan["steps"]),
                  "--out", os.path.join(workdir, scan["out"])]
        if scan["kind"] == "wigner":
            return ["wigner-scan", "--e-over-m", ",".join(map(repr, scan["e_over_m"]))] + common
        return ["chsh-scan", "--state", scan["state"], "--vectors", scan["vectors"],
                "--e-over-m", repr(scan["e_over_m"])] + common

    def run(self, inputs, workdir):
        return run_cli(self.argv(scan, workdir) for scan in inputs)

    def check(self, inputs, outputs, workdir) -> Outcome:
        out = Outcome()
        parts = []
        for scan, (code, stdout) in zip(inputs, outputs):
            argv = self.argv(scan, workdir)
            grid = _expected_grid(0.0, 1.0, scan["steps"])
            ratios = scan["e_over_m"] if scan["kind"] == "wigner" else (scan["e_over_m"],)
            if _call_failed(out, code, argv, len(grid) * len(ratios)):
                continue
            data, header, rows = _read_csv(os.path.join(workdir, scan["out"]))
            out.bytes_out += len(data) + len(stdout.encode())
            parts.append(data)
            out.notes.setdefault("rows", 0)
            out.notes["rows"] += len(rows)
            expected = [(b, r) for r in ratios for b in grid]
            out.attempted += max(len(expected), len(rows))
            want_header = ("beta,e_over_m,omega_rad" if scan["kind"] == "wigner"
                           else "beta,chsh,omega_rad")
            if header != want_header or len(rows) != len(expected):
                for _ in range(max(len(expected), len(rows))):
                    out.fail("malformed csv", {"argv": argv, "header": header,
                                               "rows": len(rows)}, wrong=True)
                continue
            for row, (beta, ratio) in zip(rows, expected):
                res = self._row_residual(scan, row, beta, ratio)
                if res is None or not res <= CURVE_TOL:
                    out.fail("wrong value", {"argv": argv, "row": row,
                                             "residual": res}, wrong=True)
                else:
                    out.residual = max(out.residual, res)
        out.fingerprint = _fingerprint(parts)
        return out

    @staticmethod
    def _row_residual(scan, row, beta, ratio):
        """Worst deviation of one CSV row from its reference, None if malformed."""
        try:
            values = [float(x) if x else None for x in row]
        except ValueError:
            return None
        if len(values) != 3 or values[0] != beta:
            return None
        if scan["kind"] == "wigner":
            if values[1] != ratio:
                return None
            return abs(values[2] - wigner_angle(beta, ratio))
        res = abs(values[1] - chsh_reference(scan["state"], beta, ratio))
        if scan["state"] in cli.ANGLE_DEPENDENT_STATES:
            if values[2] is None:
                return None
            res = max(res, abs(values[2] - wigner_angle(beta, ratio)))
        elif values[2] is not None:
            return None
        return res


class OptimalScan:
    """``chsh-scan --vectors optimal`` on state 10 over beta in [0, 1].

    The README's optimal scan with fewer steps.  The grid of ``2 * chunks``
    betas (the clamped beta = 1 row included) is split into two-row scans.
    Scan k has the fixed search seed k and the workload seed only orders the
    scans: how much work a search does depends on its seed (over one grid,
    objective evaluations ranged from 88k to 109k across search seeds), so
    seed-drawn searches would measure the draw rather than the program.
    """

    def inputs(self, rng, size):
        grid = np.linspace(0.0, 1.0, 2 * size["optimal_chunks"])
        return [{"seed": int(k), "beta_min": float(grid[2 * k]),
                 "beta_max": float(grid[2 * k + 1]), "steps": 2,
                 "restarts": size["restarts"], "out": f"optimal{n:02d}.csv"}
                for n, k in enumerate(rng.permutation(size["optimal_chunks"]))]

    def argv(self, inputs, workdir):
        argv = ["chsh-scan", "--state", "10", "--vectors", "optimal",
                "--seed", str(inputs["seed"]), "--beta-min", repr(inputs["beta_min"]),
                "--beta-max", repr(inputs["beta_max"]), "--steps", str(inputs["steps"]),
                "--out", os.path.join(workdir, inputs["out"])]
        if inputs["restarts"] is not None:
            argv += ["--restarts", str(inputs["restarts"])]
        return argv

    def run(self, inputs, workdir):
        return run_cli([self.argv(inputs, workdir)])

    def check(self, inputs, outputs, workdir) -> Outcome:
        out = Outcome()
        argv = self.argv(inputs, workdir)
        (code, stdout), = outputs
        grid = _expected_grid(inputs["beta_min"], inputs["beta_max"], inputs["steps"])
        if _call_failed(out, code, argv, len(grid)):
            return out
        data, header, rows = _read_csv(os.path.join(workdir, inputs["out"]))
        out.bytes_out = len(data) + len(stdout.encode())
        out.fingerprint = _fingerprint([data])
        out.attempted = max(len(grid), len(rows))
        if header != "beta,chsh,omega_rad" or len(rows) != len(grid):
            for _ in range(out.attempted):
                out.fail("malformed csv", {"argv": argv, "rows": len(rows)}, wrong=True)
            return out
        for row, beta in zip(rows, grid):
            try:
                row_beta, value = float(row[0]), float(row[1])
            except (IndexError, ValueError):
                row_beta, value = math.nan, math.nan
            ok = (len(row) == 3 and row_beta == beta and row[2] == ""
                  and abs(value) <= TSIRELSON + TSIRELSON_TOL
                  and value >= chsh_universal(beta) - DOMINANCE_TOL)
            if not ok:
                out.fail("wrong value", {"argv": argv, "row": row}, wrong=True)
                continue
            # 2*sqrt(2) is attainable on every row (a boosted Bell pair differs
            # from the rest-frame one by a local unitary); the gap is reported,
            # not gated, because the seed search misses it on the clamped row
            gap = TSIRELSON - value
            out.residual = max(out.residual, gap)
            if beta == cli.BETA_CLAMP:
                out.notes["clamped_row_gap"] = gap
        return out


_NUMBER = re.compile(r"(?<![A-Za-z^])-?\d[\d.eE+-]*")
_CHECK_LINE = re.compile(r"^check (\S+): max_residual=(\S+) tol=(\S+) samples=(\d+) (PASS|FAIL)$")


class Verify:
    """``relbell verify --seed <derived> --samples N`` run in-process.

    Each chunk is one call with its own seed.
    """

    def inputs(self, rng, size):
        return [{"seed": int(rng.integers(2**31)), "samples": size["verify_samples"]}
                for _ in range(size["verify_chunks"])]

    def run(self, inputs, workdir):
        return run_cli([["verify", "--seed", str(inputs["seed"]),
                         "--samples", str(inputs["samples"])]])

    def check(self, inputs, outputs, workdir) -> Outcome:
        out = Outcome()
        (code, stdout), = outputs
        out.bytes_out = len(stdout.encode())
        out.fingerprint = _fingerprint([stdout])
        checks = [m.groups() for m in map(_CHECK_LINE.match, stdout.splitlines()) if m]
        expected = len(verify.ALL_CHECKS)
        if not checks and _call_failed(out, code, ["verify"], expected):
            return out
        out.attempted = max(len(checks), expected)
        if len(checks) != expected:
            for _ in range(out.attempted):
                out.fail("malformed report", {"inputs": inputs, "checks": len(checks)},
                         wrong=True)
            return out
        ratios = {}
        for name, residual, tol, samples, status in checks:
            try:
                residual, tol = float(residual), float(tol)
            except ValueError:
                residual, tol = math.nan, math.nan
            # the gate re-derives the verdict from the printed numbers
            if status != "PASS" or not residual <= tol:
                out.fail("check failed", {"inputs": inputs, "check": name,
                                          "residual": residual, "tol": tol}, wrong=True)
            if tol > 0:
                ratios[name] = residual / tol
        if code != 0 and out.failed == 0:
            out.fail(f"exit {code}", {"inputs": inputs}, wrong=True)
        out.residual = max(ratios.values(), default=0.0)
        out.notes["worst_check"] = max(ratios, key=ratios.get) if ratios else None
        return out


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class PairItem:
    category: str
    p: np.ndarray
    i: int
    j: int
    e1: np.ndarray
    beta1: float
    e2: np.ndarray
    beta2: float
    settings: tuple
    beta_obs: float
    e_obs: np.ndarray

    def describe(self) -> dict:
        return {"category": self.category, "e_over_m": math.sqrt(1.0 + float(self.p @ self.p)),
                "p": self.p.tolist(), "state": f"{self.i}{self.j}",
                "e1": self.e1.tolist(), "beta1": self.beta1,
                "e2": self.e2.tolist(), "beta2": self.beta2}


class RandomPairs:
    """Library pipeline on random geometry: pair, boost, second boost, CHSH.

    Half of the first boosts are generic, a quarter go into one particle's
    rest frame and a quarter are within 1e-6..1e-2 rad of anti-collinear
    with the first particle's momentum.
    """

    CATEGORIES = ("generic", "generic", "rest_frame", "anti_collinear")
    #: raised items are the known baseline here (ROADMAP item 3), so they
    #: count as failed without making the run incorrect
    raises_allowed = True

    def inputs(self, rng, size):
        return [self._items(rng, size["pairs"]) for _ in range(size["pair_chunks"])]

    def _items(self, rng, count):
        items = []
        for k in range(count):
            category = self.CATEGORIES[k % len(self.CATEGORIES)]
            n = _unit(rng)
            ratio = math.exp(rng.uniform(0.0, math.log(1e6)))
            p = math.sqrt(ratio * ratio - 1.0) * n
            if category == "generic":
                e1, beta1 = _unit(rng), float(rng.uniform(0.0, 0.99))
            elif category == "rest_frame":
                # the boost along -p_hat_k with beta_k = |p|/E stops particle k
                sign = -1.0 if rng.integers(2) == 0 else 1.0
                e1 = sign * n
                beta1 = float(np.linalg.norm(p)) / math.sqrt(1.0 + float(p @ p))
            else:
                tilt = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
                u = _unit(rng)
                u -= (u @ n) * n
                e1 = -n + tilt * u / np.linalg.norm(u)
                e1 /= np.linalg.norm(e1)
                beta1 = float(rng.uniform(0.0, 0.99))
            i, j = (int(b) for b in rng.integers(2, size=2))
            e2, beta2 = _unit(rng), float(rng.uniform(0.0, 0.99))
            settings = tuple(_unit(rng) for _ in range(4))
            items.append(PairItem(category, p, i, j, e1, beta1, e2, beta2, settings,
                                  float(rng.uniform(0.0, 0.99)), _unit(rng)))
        return items

    def run(self, inputs, workdir):
        results = []
        for it in inputs:
            try:
                pair = bell.bell_state(it.i, it.j, kinematics.FourMomentum.from_spatial(it.p))
                once = bell.boost_two_particle(pair, kinematics.BoostSpec(it.e1, it.beta1))
                twice = bell.boost_two_particle(once, kinematics.BoostSpec(it.e2, it.beta2))
                value = observables.chsh(twice, observables.ChshSettings(*it.settings),
                                         it.beta_obs, it.e_obs)
                results.append((once.amps, twice.amps, value))
            except Exception as exc:  # counted per type by the gate
                results.append(exc)
        return results

    def check(self, inputs, outputs, workdir) -> Outcome:
        out = Outcome(attempted=len(inputs))
        parts = []
        by_category, messages = Counter(), Counter()
        for it, res in zip(inputs, outputs):
            if isinstance(res, Exception):
                kind = type(res).__name__
                out.fail(kind, dict(it.describe(), error=str(res)), wrong=False)
                by_category[it.category] += 1
                messages[_NUMBER.sub("#", f"{kind}: {res}")] += 1
                parts.append(f"{kind}: {res}")
                continue
            once, twice, value = res
            norm_defect = max(abs(float(np.vdot(a, a).real) - 1.0) for a in (once, twice))
            excess = abs(value) - TSIRELSON
            parts.append(repr((once.tolist(), twice.tolist(), value)))
            if not (norm_defect <= NORM_TOL and excess <= TSIRELSON_TOL):
                out.fail("wrong value", dict(it.describe(), norm_defect=norm_defect,
                                             chsh=value), wrong=True)
                continue
            out.residual = max(out.residual, norm_defect, excess)
        out.notes["failed_by_category"] = dict(by_category)
        out.notes["failed_by_message"] = dict(messages)
        out.fingerprint = _fingerprint(parts)
        return out


WORKLOADS = {
    "paper_scans": PaperScans(),
    "optimal_scan": OptimalScan(),
    "verify": Verify(),
    "random_pairs": RandomPairs(),
}
