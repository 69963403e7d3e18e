"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

Each check prints PASS or FAIL; the exit code is the number of failures.

* rss: a small child reaped after a large one reports its own peak RSS.
* instructions: a child doing ten times the work of another counts several
  times its instructions, and a small child after a large one its own.
* oracle: clean outputs pass, and each injected fault is flagged.
* tracer: on the same commands, the tracer's call counts equal cProfile's.
* names: BENCHMARK.json lists exactly the metrics run.py reports.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import perfcount  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import solve_cmd, sphere_cmd, torus_cmd  # noqa: E402

BIG_MB = 300

TORUS = {"tau": (1.2, 0.3, -0.4, 0.9), "theta": 0.3, "spin": (0.5, 0.0)}
SPHERE = {"R": 0.7, "S": complex(1.3, 0.4)}


def check_rss(env):
    big = run.spawn([sys.executable, "-c", f"b = b'x' * ({BIG_MB} << 20)"], env)
    small = run.spawn([sys.executable, "-c", "pass"], env)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ok = (small.maxrss_kb < big.maxrss_kb - (BIG_MB // 2 << 10)
          and children >= big.maxrss_kb)
    return ok, (f"large child {big.maxrss_kb >> 10} MB, small child after it "
                f"{small.maxrss_kb >> 10} MB, RUSAGE_CHILDREN {children >> 10} MB")


def check_instructions(env):
    counter = perfcount.InstructionCounter()
    loop = [sys.executable, "-c", "sum(range({}))"]
    empty = run.spawn(loop[:2] + ["pass"], env, counter=counter).instructions
    small = run.spawn(loop[:2] + [loop[2].format(10**6)], env, counter=counter).instructions
    large = run.spawn(loop[:2] + [loop[2].format(10**7)], env, counter=counter).instructions
    again = run.spawn(loop[:2] + [loop[2].format(10**6)], env, counter=counter).instructions
    counter.close()
    ok = (large - empty > 5 * (small - empty) > 0
          and abs(again - small) < 0.05 * small)
    return ok, (f"empty {empty / 1e6:.0f}M, 1e6 loop {small / 1e6:.0f}M, "
                f"1e7 loop {large / 1e6:.0f}M, 1e6 loop again {again / 1e6:.0f}M")


def _mutate_json(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _shift_largest_row(text):
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    k = max(range(len(rows)), key=lambda i: abs(complex(float(rows[i][1]), float(rows[i][2]))))
    rows[k][1] = repr(float(rows[k][1]) * (1 + 1e-6))
    rows[k][2] = repr(float(rows[k][2]) * (1 + 1e-6))
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _set_violation(value):
    def edit(doc):
        doc["checks"]["order_one"]["violation"] = value
    return edit


def _set_kernel_dim(doc):
    doc["family"]["kernel_dim"] += 1


def check_oracle(env):
    cmds = {"verify": torus_cmd("verify", 6, TORUS),
            "solve": solve_cmd("torus", 4, 0.3),
            "spectrum": sphere_cmd("spectrum", 3.0, SPHERE),
            "metric": sphere_cmd("metric", 2.5, SPHERE)}
    outs = {k: run.spawn([sys.executable, "-m", "kreinspec.cli", *c.argv], env)
            for k, c in cmds.items()}
    lines = []
    ok = True
    for kind, child in outs.items():
        problems, _ = oracle.check(cmds[kind], child.returncode, child.stdout, child.stderr)
        lines.append(f"clean {kind}: {problems or 'ok'}")
        ok &= not problems
    faults = [
        ("spectrum row shifted 1e-6 relative", "spectrum", 0,
         _shift_largest_row(outs["spectrum"].stdout), ""),
        ("NaN in a verify report", "verify", 0,
         _mutate_json(outs["verify"].stdout, _set_violation(float("nan"))), ""),
        ("Infinity as a violation", "verify", 0,
         _mutate_json(outs["verify"].stdout, _set_violation(float("inf"))), ""),
        ("wrong kernel_dim", "solve", 0,
         _mutate_json(outs["solve"].stdout, _set_kernel_dim), ""),
        ("exit code 2", "metric", 2, outs["metric"].stdout, ""),
        ("traceback", "metric", 0, outs["metric"].stdout,
         "Traceback (most recent call last):\n  ...\nValueError: boom\n"),
    ]
    for what, kind, rc, text, err in faults:
        problems, _ = oracle.check(cmds[kind], rc, text, err)
        lines.append(f"fault '{what}': {'flagged: ' + problems[0] if problems else 'MISSED'}")
        ok &= bool(problems)
    return ok, "\n    ".join(lines)


def check_tracer():
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.ROOT / "src"))
    import kreinspec.cli as cli
    import kreinspec.linalg as linalg
    cmds = [torus_cmd("verify", 4, TORUS), solve_cmd("torus", 3, 0.3),
            sphere_cmd("verify", 2.0, SPHERE)]
    run._inprocess_pass(cli, cmds)  # warm-up
    tr = tracer.Tracer()
    with tr:
        run._inprocess_pass(cli, cmds)
    prof = cProfile.Profile()
    prof.enable()
    run._inprocess_pass(cli, cmds)
    prof.disable()
    stats = pstats.Stats(prof).stats
    ok, lines = True, []
    for fn, name in ((linalg.op_norm, "linalg.op_norm"),
                     (linalg.commutator, "linalg.commutator"),
                     (linalg._subspace_norm, "linalg.subspace_norm")):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        want = stats[key][1] if key in stats else 0
        got = tr.stats[name][0]
        lines.append(f"{name}: tracer {got}, cProfile {want}")
        ok &= got == want and got > 0
    return ok, ", ".join(lines)


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    ok = e2e == run.END_TO_END_UNITS and layer == run.PER_LAYER_UNITS
    return ok, f"{len(e2e)} end-to-end and {len(layer)} per-layer metrics"


def main():
    run.check_checkout()
    env = run.child_env()
    failures = 0
    for name, fn in (("rss", lambda: check_rss(env)),
                     ("instructions", lambda: check_instructions(env)),
                     ("oracle", lambda: check_oracle(env)),
                     ("tracer", check_tracer), ("names", check_names)):
        ok, detail = fn()
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
