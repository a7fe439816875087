"""Accuracy audit: the numbers relbell prints against a 40-digit reference of the whole pipeline.

Usage (from the repository root):

    PYTHONPATH=src python tests/error_audit.py [--data DIR] [--json OUT]
    PYTHONPATH=src python tests/error_audit.py --domain 3000 [--json OUT]
    python tests/error_audit.py --compare BEFORE.json AFTER.json

The first form scores every number in the golden files (``tests/data/`` by
default).  The reference takes the program's float inputs as given (the
pair's float momentum and amplitudes, the printed speed) and carries the
rest at ``mp_oracle.DPS`` digits: the boost goes through
``mp_oracle.boost_pair`` with alpha = atanh(beta) taken at 40 digits, and
CHSH through ``mp_oracle.chsh`` on the 40-digit amplitudes.  CHSH values,
angles and amplitudes are O(1), so errors are absolute, in units of
ulp(1) = 2**-52.  Relative ulps would mislead where a CHSH sum cancels.

Not scored: the ``verify`` residual lines (residuals, not computed
quantities), ``optimize``'s printed settings (an SVD basis, which is not
unique; the value they reach is scored) and the boosted momenta of
``scalar_pipeline.txt``, which are not O(1); its boosts are scored from the
printed pair each acts on.

``--domain N`` scores N random inputs over the documented domain instead,
in strata: generic boosts, c = e.p_hat < 0, anti-collinear within 1e-8 to
1e-2 rad, boosts into the particle's rest frame and speeds up to
``BETA_CLAMP``, with E/m log-uniform in [1, 1e6].  Each sample scores the
closed-form quaternion of ``_boost_parts`` against ``mp_oracle.boost_particle``
and a random pair's CHSH after ``boost_two_particle`` against the 40-digit
pipeline.  In the rest-frame stratum e and p_hat are anti-parallel to
within their own rounding, and the rotation turns on e x p_hat: a relative
change of eps in p moves the quaternion by about eps sh(alpha/2) sh(delta/2),
up to 1e5 ulp(1) at E/m 1e6.  Any float route that rounds p_hat shows that
much, so that stratum's errors are divided by the conditioning factor
kappa = 1 + sh(alpha/2) sh(delta/2) of the stopped particle: the error in
units of what one rounding of the input would cost.

``--compare`` reads two ``--json`` outputs of the same mode and prints, for
each file or stratum, the worst and median error before and after and how
many numbers became more or less exact.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

import numpy as np
from mpmath import acosh, atan2, atanh, cosh, mp, mpf, sinh

import mp_oracle
from relbell.bell import TwoQubitState, bell_state, boost_two_particle
from relbell.cli import BETA_CLAMP
from relbell.kinematics import BoostSpec, FourMomentum, X_HAT
from relbell.observables import (
    CASE1_SETTINGS,
    CASE2_SETTINGS,
    REST_OPTIMAL_SETTINGS,
    ChshSettings,
    chsh,
)
from relbell.wigner import _boost_parts

ULP1 = math.ulp(1.0)
DATA = Path(__file__).parent / "data"
_SETTINGS = {"case1": CASE1_SETTINGS, "case2": CASE2_SETTINGS}


def _err(value: float, reference) -> float:
    return float(abs(mpf(value) - reference)) / ULP1


def _vectors(c: ChshSettings):
    return c.a, c.a_prime, c.b, c.b_prime


def pair_reference(state: str, beta: float, e_over_m: float):
    """40-digit amplitudes and kin_factor of the CLI's pair ``state``, x-boosted at ``beta``."""
    s = bell_state(int(state[0]), int(state[1]), FourMomentum.along_z(e_over_m))
    if beta == 0.0:
        return list(s.amps), mpf(1)
    amps, kin, _ = mp_oracle.boost_pair(s.amps, X_HAT, s.p_label.p, s.p2_label.p,
                                        s.p_label.m, beta=beta)
    return amps, kin


def omega_reference(beta: float, e_over_m: float):
    """``wigner_angle`` at 40 digits, alpha = atanh(beta) and delta = acosh(E/m) unrounded."""
    with mp.workdps(mp_oracle.DPS):
        a, d = atanh(mpf(beta)), acosh(mpf(e_over_m))
        return atan2(sinh(a) * sinh(d), cosh(a) + cosh(d))


def _chsh_csv(text: str, state: str, vectors: str, e_over_m: float):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    for beta_s, chsh_s, omega_s in rows:
        beta = float(beta_s)
        amps, _ = pair_reference(state, beta, e_over_m)
        yield (f"chsh beta={beta_s}", float(chsh_s),
               mp_oracle.chsh(amps, _vectors(_SETTINGS[vectors]), beta, X_HAT))
        if omega_s:
            yield f"omega beta={beta_s}", float(omega_s), omega_reference(beta, e_over_m)


def _wigner_csv(text: str):
    for line in text.splitlines()[1:]:
        beta_s, ratio_s, omega_s = line.split(",")
        yield (f"omega beta={beta_s} E/m={ratio_s}", float(omega_s),
               omega_reference(float(beta_s), float(ratio_s)))


def _dump(lines, amps, kin, where: str):
    """The four ``label re im`` lines and the ``kin_factor`` line of a state dump."""
    for line, ref in zip(lines[:4], amps):
        label, re_s, im_s = line.split()
        yield f"{where} {label} re", float(re_s), ref.real
        yield f"{where} {label} im", float(im_s), ref.imag
    key, value = lines[4].split()
    assert key == "kin_factor", lines[4]
    yield f"{where} kin_factor", float(value), kin


def _keyed(text: str) -> dict:
    return dict(line.split(" ", 1) for line in text.splitlines())


def _eval(text: str, state: str):
    lines = text.splitlines()
    head = _keyed("\n".join(lines[:6]))
    beta, ratio = float(head["beta"]), float(head["e_over_m"])
    amps, kin = pair_reference(state, beta, ratio)
    yield "omega", float(head["omega_rad"]), omega_reference(beta, ratio)
    yield "chsh_universal", float(head["chsh_universal"]), mp_oracle.chsh_case1(beta, 0.0)
    yield "kin_factor", float(head["kin_factor"]), kin
    yield ("chsh_case2", float(head["chsh_case2"]),
           mp_oracle.chsh(amps, _vectors(CASE2_SETTINGS), beta, X_HAT))
    yield from _dump(lines[6:], amps, kin, "dump")


def _optimize(text: str):
    head = _keyed(text)
    state, beta, ratio = head["state"], float(head["beta"]), float(head["e_over_m"])
    amps, _ = pair_reference(state, beta, ratio)
    yield "value", float(head["value"]), mp_oracle.horodecki_bound(amps)
    yield ("baseline_fixed_settings", float(head["baseline_fixed_settings"]),
           mp_oracle.chsh(amps, _vectors(REST_OPTIMAL_SETTINGS[state]), beta, X_HAT))


_DUMP_HEAD = re.compile(r"# state (\d\d) boosted beta=(\S+) e_over_m=(\S+)")


def _verify(text: str):
    lines = text.splitlines()
    for k, line in enumerate(lines):
        m = _DUMP_HEAD.fullmatch(line)
        if m:
            amps, kin = pair_reference(m[1], float(m[2]), float(m[3]))
            yield from _dump(lines[k + 1:k + 6], amps, kin, f"state {m[1]}")


def _pipeline_item(lines) -> dict:
    """One item of ``scalar_pipeline.txt``: its numbers by key ("p", "once amps", ...)."""
    v = {}
    for line in lines:
        words = line.split()
        k = 2 if words[0] in ("once", "twice") else 1
        v[" ".join(words[:k])] = [float(x) for x in words[k:]]
    return v


def _amps(parts) -> list:
    """Four complex amplitudes from their printed Re, Im, Re, Im, ..."""
    return [complex(re, im) for re, im in zip(parts[0::2], parts[1::2])]


def _pipeline(text: str):
    """Each boost from the printed pair it acts on, and CHSH from the printed twice-boosted pair."""
    for item in text.split("# item ")[1:]:
        head, *lines = item.splitlines()
        v = _pipeline_item(lines)
        parts, p1, kin = v["state"], v["p"], 1.0
        p2 = [-x for x in p1]
        for name, boost in (("once", "boost1"), ("twice", "boost2")):
            *e, beta = v[boost]
            ref, ref_kin, _ = mp_oracle.boost_pair(_amps(parts), e, p1, p2, beta=beta)
            parts = v[f"{name} amps"]
            for k, amp in enumerate(ref):
                yield f"item {head} {name} amp{k} re", parts[2 * k], amp.real
                yield f"item {head} {name} amp{k} im", parts[2 * k + 1], amp.imag
            yield f"item {head} {name} kin_factor", v[f"{name} kin_factor"][0], kin * ref_kin
            kin, p1, p2 = v[f"{name} kin_factor"][0], v[f"{name} q1"][:3], v[f"{name} q2"][:3]
        settings = [v["settings"][3 * k:3 * k + 3] for k in range(4)]
        *e_obs, beta_obs = v["observer"]
        yield (f"item {head} chsh", v["chsh"][0],
               mp_oracle.chsh(_amps(parts), settings, beta_obs, e_obs))


def score_file(path: Path) -> list[tuple[str, float]]:
    """(label, error in ulp(1)) for every scored number of one golden file."""
    name, text = path.name, path.read_text()
    if m := re.fullmatch(r"chsh_(\d\d)_(case\d)_em(\d+)\.csv", name):
        rows = _chsh_csv(text, m[1], m[2], float(m[3]))
    elif name == "wigner_scan.csv":
        rows = _wigner_csv(text)
    elif m := re.fullmatch(r"eval_(\d\d)_dump\.txt", name):
        rows = _eval(text, m[1])
    elif name.startswith("optimize_"):
        rows = _optimize(text)
    elif name.startswith("verify_"):
        rows = _verify(text)
    elif name == "scalar_pipeline.txt":
        rows = _pipeline(text)
    else:
        raise ValueError(f"no scorer for {name}")
    return [(label, _err(value, ref)) for label, value, ref in rows]


def score_goldens(data: Path = DATA) -> dict:
    return {p.name: score_file(p) for p in sorted(data.iterdir())}


def summary(errors) -> dict:
    values = [e for _, e in errors]
    if not values:
        return {"n": 0, "worst": 0.0, "median": 0.0}
    return {"n": len(values), "worst": max(values), "median": statistics.median(values)}


STRATA = ("generic", "c<0", "anti-collinear", "rest frame", "near light speed")


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _domain_input(rng, stratum: str):
    """One momentum and one boost of ``stratum``; E/m log-uniform in [1, 1e6]."""
    n = _unit(rng)
    r = math.exp(rng.uniform(0.0, math.log(1e6)))
    p = FourMomentum.from_spatial(math.sqrt((r - 1.0) * (r + 1.0)) * n)
    beta = float(rng.uniform(0.0, BETA_CLAMP))
    e = _unit(rng)
    if stratum == "c<0":
        e = -e if e @ n > 0.0 else e
    elif stratum == "anti-collinear":
        u = _unit(rng)
        u -= (u @ n) * n
        e = -n + math.exp(rng.uniform(math.log(1e-8), math.log(1e-2))) * u / np.linalg.norm(u)
        e /= np.linalg.norm(e)
    elif stratum == "rest frame":
        e, beta = -n, p.p_mag / p.E
    elif stratum == "near light speed":
        beta = min(1.0 - 10.0 ** rng.uniform(-12.0, -3.0), BETA_CLAMP)
    return p, BoostSpec(e, beta)


def score_domain(samples: int, seed: int = 3) -> dict:
    """Per stratum, (sample, error) of the quaternion and of a random pair's CHSH."""
    rng = np.random.default_rng(seed)
    out = {f"{stratum} {what}": [] for stratum in STRATA for what in ("quaternion", "chsh")}
    for k in range(samples):
        stratum = STRATA[k % len(STRATA)]
        p, b = _domain_input(rng, stratum)
        ch, sv = _boost_parts(b, p)[:2]
        och, osv, _, _ = mp_oracle.boost_particle(b.e, None, p.p, p.m, beta=b.beta)
        kappa = 1.0
        if stratum == "rest frame":  # sh(alpha/2) sh(delta/2) of the stopped particle
            kappa += (math.sinh(math.atanh(b.beta) / 2.0) * p.p_mag
                      / math.sqrt(2.0 * p.m * (p.E + p.m)))
        quat = max(_err(x, y) for x, y in zip([ch, *sv.tolist()], [och, *osv])) / kappa
        out[f"{stratum} quaternion"].append((str(k), quat))
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = TwoQubitState(z / np.linalg.norm(z), 1.0, p)
        settings = ChshSettings(*(_unit(rng) for _ in range(4)))
        beta_obs, e_obs = float(rng.uniform(0.0, 1.0)), _unit(rng)
        value = chsh(boost_two_particle(s, b), settings, beta_obs, e_obs)
        amps, _, _ = mp_oracle.boost_pair(s.amps, b.e, s.p_label.p, s.p2_label.p, p.m,
                                          beta=b.beta)
        ref = mp_oracle.chsh(amps, _vectors(settings), beta_obs, e_obs)
        out[f"{stratum} chsh"].append((str(k), _err(value, ref) / kappa))
    return out


def compare(before: dict, after: dict) -> list[str]:
    lines = []
    for name in sorted(set(before) | set(after)):
        b, a = dict(before.get(name, [])), dict(after.get(name, []))
        sb, sa = summary(b.items()), summary(a.items())
        common = set(a) & set(b)
        better = sum(a[k] < b[k] for k in common)
        worse = sum(a[k] > b[k] for k in common)
        lines.append(f"{name}: worst {sb['worst']:.3f} -> {sa['worst']:.3f}, median "
                     f"{sb['median']:.3f} -> {sa['median']:.3f} ulp(1); {better} better, "
                     f"{worse} worse, {len(common) - better - worse} equal of {len(common)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", type=Path, default=DATA)
    parser.add_argument("--domain", type=int, default=0, help="score N domain-wide inputs")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--json", type=Path, help="write the per-number errors here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(before, after)))
        return 0
    scores = score_domain(args.domain, args.seed) if args.domain else score_goldens(args.data)
    for name, errors in scores.items():
        s = summary(errors)
        print(f"{name}: n={s['n']} worst={s['worst']:.3f} median={s['median']:.3f} ulp(1)")
    if args.json:
        args.json.write_text(json.dumps(scores, indent=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
