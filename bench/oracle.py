"""Correctness oracle for kreinspec CLI outputs.

Written from the paper's closed forms and imports nothing from
``kreinspec``, so a defect in the package cannot also hide in the check.
``check`` returns the list of problems found (empty means correct) and a
dict of verdicts that are recorded but never gated on.

JSON is parsed strictly: ``NaN`` and ``-Infinity`` are failures anywhere.
``Infinity`` is accepted in one place only, the ``threshold`` of a verify
check that is not asserted, where the report format uses it to mean "no
threshold" (every verify report carries such entries).  Anywhere else it is
a failure.
"""

from __future__ import annotations

import cmath
import json
import math

# Relative tolerance of an exact relation: the paper's violation threshold.
EXACT_TOL = 1e-10
# Relative tolerance of an eigenvalue against its closed form.  The numeric
# eigenvalues agree to about 1e-14; near an exceptional point of a 2x2
# sector the error grows towards sqrt(machine eps), so the margin is kept,
# while a value shifted by 1e-6 relative must still be flagged.
SPECTRUM_TOL = 1e-8
METRIC_TOL = 1e-9

EXPECTED_FAMILY = {"torus": (4, 0, 4), "sphere": (4, 1, 3)}
# Checks every torus and sphere report must carry; all names with one of the
# EXACT_PREFIXES are gated as exact relations as well.
REQUIRED_EXACT = ("krein_square", "krein_antihermitian", "krein_reality",
                  "reality_involution", "reality_dirac", "order_zero", "order_one",
                  "dirac_krein_selfadjoint", "equivariance_fixed")
EXACT_PREFIXES = ("krein_", "reality_", "equivariance_")
SUQ2_EXACT = ("krein_square", "krein_antihermitian", "dirac_krein_selfadjoint",
              "equivariance_fixed")
CSV_HEADER = "block,re,im,multiplicity,residual"


class OracleError(ValueError):
    pass


# Stands in for a parsed ``Infinity`` until the caller has accepted it.
INFINITY = object()


def _parse_constant(name):
    if name == "Infinity":
        return INFINITY
    raise OracleError(f"non-finite JSON constant {name}")


def _reject_infinity(obj, path="$"):
    if obj is INFINITY:
        raise OracleError(f"non-finite JSON constant Infinity at {path}")
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        _reject_infinity(value, f"{path}.{key}")


def strict_json(text, accept_infinity=None):
    """Parse JSON, treating NaN and +-Infinity as errors.  accept_infinity
    may replace the ``Infinity`` values it allows before the check."""
    try:
        doc = json.loads(text, parse_constant=_parse_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"invalid JSON: {exc}") from None
    if accept_infinity is not None:
        accept_infinity(doc)
    _reject_infinity(doc)
    return doc


def _unasserted_thresholds(doc):
    for c in doc.get("checks", {}).values():
        if c.get("threshold") is INFINITY and c.get("asserted") is False:
            c["threshold"] = math.inf


def _finite(x, what):
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
        raise OracleError(f"{what} is not a finite number: {x!r}")
    return float(x)


def check(cmd, returncode, stdout, stderr=""):
    """Problems with one command's result, and its recorded verdicts."""
    verdicts = {}
    if "Traceback (most recent call last)" in stderr:
        return [f"traceback: {stderr.strip().splitlines()[-1]}"], verdicts
    try:
        if cmd.kind == "verify":
            problems = _check_verify(cmd, returncode, stdout, verdicts)
        elif cmd.kind == "solve":
            problems = _check_solve(cmd, returncode, stdout, verdicts)
        elif cmd.kind == "spectrum":
            problems = _check_spectrum(cmd, returncode, stdout, verdicts)
        elif cmd.kind == "metric":
            problems = _check_metric(cmd, returncode, stdout)
        else:
            raise OracleError(f"unknown command kind {cmd.kind!r}")
    except (OracleError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    return problems, verdicts


# ---------------------------------------------------------------------------
# verify

def _check_verify(cmd, rc, text, verdicts):
    doc = strict_json(text, _unasserted_thresholds)
    problems = []
    if doc["kind"] != "verify" or doc["geometry"] != cmd.geometry:
        problems.append(f"report is {doc['kind']}/{doc['geometry']}")
    checks = doc["checks"]
    summary = doc["summary"]
    asserted_ok = all(c["passed"] for c in checks.values() if c["asserted"])
    if summary["all_asserted_passed"] is not asserted_ok:
        problems.append("summary.all_asserted_passed disagrees with the checks")
    want_rc = 0 if summary["all_asserted_passed"] else 1
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    for name, c in checks.items():
        _finite(c["violation"], f"{name}.violation")
        _finite(c["scale"], f"{name}.scale")

    if cmd.geometry in ("torus", "sphere"):
        exact = [n for n in checks if n.startswith(EXACT_PREFIXES)]
        exact += [n for n in REQUIRED_EXACT if n not in exact]
        if not any(n.startswith("krein_commutant_") for n in checks):
            problems.append("no krein_commutant_* check (vacuous pass)")
    else:
        exact = list(SUQ2_EXACT)
        o1 = checks["order_one"]["violation"]
        if not o1 > 0.0:
            problems.append(f"suq2 order_one violation {o1!r} should be > 0")
    for name in exact:
        if name not in checks:
            problems.append(f"missing check {name}")
            continue
        c = checks[name]
        limit = EXACT_TOL * max(1.0, c["scale"])
        if not (c["asserted"] and c["passed"] and 0.0 <= c["violation"] <= limit):
            problems.append(f"{name}: violation {c['violation']!r} > {limit:.3g} "
                            f"(asserted={c['asserted']}, passed={c['passed']})")

    ladder = [c["passed"] for c in checks.values()
              if c["family"] in ("bounded_ladder", "regularity_ladder")]
    verdicts["ladder_passed"] = all(ladder)
    verdicts["compactness"] = doc["compactness"]["verdict"]
    verdicts["all_asserted_passed"] = summary["all_asserted_passed"]
    return problems


# ---------------------------------------------------------------------------
# solve

def _check_solve(cmd, rc, text, verdicts):
    doc = strict_json(text)
    problems = []
    fam = doc["family"]
    got = (fam["kernel_dim"], fam["central_dim"], fam["effective_dim"])
    want = EXPECTED_FAMILY[cmd.geometry]
    if got != want:
        problems.append(f"kernel/central/effective = {got}, expected {want}")
    passed = fam["verification"]["all_passed"]
    if passed is not True:
        problems.append("verification.all_passed is not true")
    want_rc = 0 if passed else 1
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    if not fam["n_rows"] > 0:
        problems.append("no constraint rows (vacuous kernel)")
    for k, vec in enumerate(fam["verification"]["per_vector"]):
        for key in ("order_one", "reality_dirac", "krein_selfadjoint"):
            _finite(vec[key], f"per_vector[{k}].{key}")
    verdicts["n_rows"] = fam["n_rows"]
    return problems


# ---------------------------------------------------------------------------
# spectrum

def sphere_block_values(two_l, R, S):
    """Edge values i R l (twice) and -iR/2 +- sqrt(|S|^2 (l+1/2)^2 -
    (|S|^2 + R^2)(m+1/2)^2) for m = -l .. l-1."""
    l = two_l / 2.0
    s2 = abs(S) ** 2
    vals = [1j * R * l, 1j * R * l]
    for tm in range(-two_l, two_l, 2):
        m = tm / 2.0
        root = cmath.sqrt(s2 * (l + 0.5) ** 2 - (s2 + R * R) * (m + 0.5) ** 2)
        vals += [-0.5j * R + root, -0.5j * R - root]
    return vals


def _qnum(x, q):
    return 0.0 if x == 0 else (q ** x - q ** (-x)) / (q - 1.0 / q)


def suq2_sector_values(two_j, two_n, q, r, S):
    """Edge sectors (|n| = j + 1/2, or j = 0): i r (j + 3/2).  Interior:
    (i/2) r (2j+1) +- sqrt(Shat^2 - r^2) with
    Shat = S (j+n+1/2) q^(j-2n) sqrt([j-n+1/2] / [j+n+1/2])."""
    j, n = two_j / 2.0, two_n / 2.0
    if abs(two_n) == two_j + 1 or two_j == 0:
        return [1j * r * (j + 1.5)]
    shat = S * (j + n + 0.5) * q ** (j - 2 * n) * math.sqrt(
        _qnum(j - n + 0.5, q) / _qnum(j + n + 0.5, q))
    root = cmath.sqrt(shat * shat - r * r)
    base = 0.5j * r * (2 * j + 1)
    return [base + root, base - root]


def torus_site_values(n, m, tau, spin):
    """+- sqrt(d+ d-) with d(+-) = tau1(+-) (n + sigma+) + tau2(+-) (m + sigma-)."""
    t1p, t2p, t1m, t2m = tau
    dp = t1p * (n + spin[0]) + t2p * (m + spin[1])
    dm = t1m * (n + spin[0]) + t2m * (m + spin[1])
    root = cmath.sqrt(dp * dm)
    return [root, -root]


def expected_blocks(cmd):
    """Block label -> closed-form eigenvalues, for the whole truncation."""
    p = cmd.params
    out = {}
    if cmd.geometry == "sphere":
        for tl in range(round(2 * p["L"]) + 1):
            vals = sphere_block_values(tl, p["R"], p["S"])
            for tn in range(-tl, tl + 1, 2):
                out[f"2l={tl};2n={tn}"] = vals
    elif cmd.geometry == "suq2":
        for tj in range(round(2 * p["Jcut"]) + 1):
            for tn in range(-tj - 1, tj + 2, 2):
                vals = suq2_sector_values(tj, tn, p["q"], p["r"], p["S"])
                for tmu in range(-tj, tj + 1, 2):
                    out[f"2j={tj};2mu={tmu};2n={tn}"] = vals
    else:
        N = p["N"]
        for n in range(-N, N + 1):
            for m in range(-N, N + 1):
                out[f"n={n};m={m}"] = torus_site_values(n, m, p["tau"], p["spin"])
    return out


def _match(got, want):
    """Largest relative distance under a greedy nearest matching of two
    equal-size multisets."""
    left = list(want)
    worst = 0.0
    for v in got:
        k = min(range(len(left)), key=lambda i: abs(left[i] - v))
        worst = max(worst, abs(left.pop(k) - v) / max(1.0, abs(v)))
    return worst


def _check_spectrum(cmd, rc, text, verdicts):
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise OracleError("missing CSV header")
    got = {}
    for line in lines[1:]:
        label, re, im, mult, res = line.split(",")
        value = complex(_finite(float(re), "re"), _finite(float(im), "im"))
        _finite(float(res), "residual")
        if int(mult) < 1:
            raise OracleError(f"multiplicity {mult} in row {line!r}")
        got.setdefault(label, []).extend([value] * int(mult))
    want = expected_blocks(cmd)
    if set(got) != set(want):
        problems.append(f"{len(set(got) ^ set(want))} block labels differ from the closed form")
        return problems
    worst = 0.0
    for label, vals in got.items():
        if len(vals) != len(want[label]):
            problems.append(f"block {label}: multiplicities sum to {len(vals)}, "
                            f"block size is {len(want[label])}")
            continue
        worst = max(worst, _match(vals, want[label]))
    if worst > SPECTRUM_TOL:
        problems.append(f"eigenvalue off its closed form by {worst:.3g} relative")
    verdicts["dim"] = sum(len(v) for v in got.values())
    verdicts["max_rel_error"] = worst
    return problems


# ---------------------------------------------------------------------------
# metric

def _check_metric(cmd, rc, text):
    doc = strict_json(text)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    met = doc["metric"]
    g = [[_finite(x, "g entry") for x in row] for row in met["g"]]
    p = cmd.params
    if cmd.geometry == "sphere":
        s2 = abs(p["S"]) ** 2
        want = [[-s2 / 2, 0.0, 0.0], [0.0, -s2 / 2, 0.0], [0.0, 0.0, p["R"] ** 2 / 8]]
        want_det = want[0][0] * want[1][1] * want[2][2]
        want_sig = [1, 2]
        scale = max(1.0, s2, p["R"] ** 2)
    else:
        t1p, t2p, t1m, t2m = p["tau"]
        off = -0.5 * (t2p * t1m + t1p * t2m)
        want = [[-t1p * t1m, off], [off, -t2p * t2m]]
        want_det = -((t2p * t1m - t1p * t2m) ** 2) / 4.0
        want_sig = [1, 1]
        scale = max([1.0] + [abs(t) ** 2 for t in p["tau"]])
    dev = max(abs(a - b) for ra, rb in zip(g, want) for a, b in zip(ra, rb))
    if len(g) != len(want) or dev > METRIC_TOL * scale:
        problems.append(f"g deviates from the closed form by {dev:.3g}")
    if abs(_finite(met["det"], "det") - want_det) > METRIC_TOL * scale ** len(want):
        problems.append(f"det {met['det']!r}, expected {want_det!r}")
    if met["signature"] != want_sig:
        problems.append(f"signature {met['signature']!r}, expected {want_sig}")
    if met["formal"] is not False:
        problems.append("metric flagged formal at theta = 0")
    return problems
