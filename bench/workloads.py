"""Seeded command lists for the benchmark workloads.

A workload is a fixed list of ``kreinspec`` CLI invocations.  Sizes are
fixed per workload; the seed draws only the continuous geometry
parameters (and the torus spin structure), so two seeds do about the same
amount of work but never the same inputs.  The program sees nothing but
the generated argv.

Parameter ranges, all uniform:

* sphere: R in [0.65, 0.75]; S = rho exp(i phi) with rho in [1.3, 1.45]
  and phi in [0, 2 pi).
* SU_q(2): q in [0.45, 0.55]; r = 1 and S = 1.
* torus: tau in [-2, 2]^4 redrawn until |tau1+ tau2- - tau2+ tau1-| >= 0.3
  (elliptic, so the time orientation exists), theta in [0.1, 0.9],
  spin structure uniform over {0, 1/2}^2.
* ``solve``: theta in [0.1, 0.9] only.  The kernel dimensions the oracle
  expects (torus 4/0/4, sphere 4/1/3) hold for the default spin structure,
  and the Dirac parameters are not inputs of ``solve``.

The sphere and SU_q(2) ranges are narrow on purpose: the subspace
iteration inside ``verify`` converges at a rate set by the parameters, so
its cost follows them (sphere L=3 takes 1.13 s at |S|/R = 2.7 and 1.32 s
at |S|/R = 1.1; SU_q(2) Jcut=5 takes 1.62 s at r = 1.16 and 1.91 s at
r = 0.90, on a 2-core x86 machine).  Wide ranges would make the seed,
not the code, decide the end-to-end time.

Values are rounded to six decimals and passed as ``--flag=value`` so that
negative lists and complex numbers survive argparse; the oracle reads the
same rounded values back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the argv after the program name, plus the
    parameter values the oracle needs to recompute the closed forms."""

    argv: tuple
    kind: str
    geometry: str
    params: dict


def _r6(x):
    return round(float(x), 6)


def _sphere(rng):
    rho = rng.uniform(1.3, 1.45)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = complex(_r6(rho * math.cos(phi)), _r6(rho * math.sin(phi)))
    return {"R": _r6(rng.uniform(0.65, 0.75)), "S": s}


def _suq2(rng):
    return {"q": _r6(rng.uniform(0.45, 0.55)), "r": 1.0, "S": 1.0}


def _torus(rng):
    while True:
        tau = tuple(_r6(rng.uniform(-2.0, 2.0)) for _ in range(4))
        if abs(tau[0] * tau[3] - tau[1] * tau[2]) >= 0.3:
            break
    return {"tau": tau, "theta": _r6(rng.uniform(0.1, 0.9)),
            "spin": (rng.choice((0.0, 0.5)), rng.choice((0.0, 0.5)))}


def sphere_cmd(kind, L, p):
    argv = [kind, "--geometry", "sphere", f"--L={L!r}", f"--R={p['R']!r}",
            f"--S={p['S'].real!r}{p['S'].imag:+}j"]
    return Command(tuple(argv), kind, "sphere", dict(p, L=float(L)))


def suq2_cmd(kind, jcut, p):
    argv = [kind, "--geometry", "suq2", f"--Jcut={jcut!r}", f"--q={p['q']!r}",
            f"--r={p['r']!r}", f"--S={p['S']!r}"]
    return Command(tuple(argv), kind, "suq2", dict(p, Jcut=float(jcut)))


def torus_cmd(kind, N, p):
    argv = [kind, "--geometry", "torus", f"--N={N}",
            "--tau=" + ",".join(map(repr, p["tau"]))]
    if kind != "metric":
        # metric keeps its default theta = 0, the only non-formal value
        argv += [f"--theta={p['theta']!r}",
                 "--spin=" + ",".join(map(repr, p["spin"]))]
    return Command(tuple(argv), kind, "torus", dict(p, N=N))


def solve_cmd(geometry, size, theta):
    flag = f"--N={size}" if geometry == "torus" else f"--L={size!r}"
    return Command(("solve", "--geometry", geometry, flag, f"--theta={theta!r}"),
                   "solve", geometry, {"theta": theta})


# Why each workload exists, and the layer it is meant to load.
WORKLOADS = {
    "verify-curved": "verify on sphere and SU_q(2); op_norm subspace iteration "
                     "dominates (mechanism for exact block norms)",
    "verify-torus": "verify on a large torus; op_norm takes only the monomial "
                    "shortcut, time goes to the <D> block square root and build_torus",
    "solve": "solve on torus and sphere; per-unknown constraint assembly "
             "(commutator and LinOp construction) dominates",
    "spectra": "spectrum and metric on all geometries; dim^2 densification, "
               "small dense eigensolves and CSV output, no subspace iteration",
}


def generate(workload, seed):
    """The command list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-curved":
        return [sphere_cmd("verify", 3.0, _sphere(rng)),
                suq2_cmd("verify", 5.0, _suq2(rng))]
    if workload == "verify-torus":
        return [torus_cmd("verify", 20, _torus(rng)) for _ in range(2)]
    if workload == "solve":
        return [solve_cmd("torus", 4, _r6(rng.uniform(0.1, 0.9))),
                solve_cmd("sphere", 2.5, _r6(rng.uniform(0.1, 0.9)))]
    if workload == "spectra":
        tor = _torus(rng)
        return [sphere_cmd("spectrum", 10.0, _sphere(rng)),
                suq2_cmd("spectrum", 10.0, _suq2(rng)),
                torus_cmd("spectrum", 40, tor),
                sphere_cmd("metric", 3.0, _sphere(rng)),
                torus_cmd("metric", 4, tor)]
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
