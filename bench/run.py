"""Seeded end-to-end and per-layer benchmark of the kreinspec CLI.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload verify-curved --seed 1 --seconds 15 --trace 0

``bench/selftest.py`` checks the benchmark itself.

``--trace 0`` runs the workload's command list as child processes in a
closed loop: one client, each command spawned after the previous one has
been reaped.  It repeats the pass until ``--seconds`` are used, checks
every output with ``bench/oracle.py`` and reports

    setup_s      median wall time of a fresh interpreter importing kreinspec.cli
    run_ginstr   median over passes of the instructions the pass's child
                 processes retired, in units of 1e9 (``bench/perfcount.py``)
    peak_rss_mb  median over passes of the largest per-command peak RSS
    pass_ratio   commands whose output passes the oracle / commands attempted

The wall time of each pass is recorded and printed on stderr, but it is
not a gated metric: on a shared host it follows the neighbours' load
(see ``perfcount.py``), while the instruction count follows the program.

``--trace 1`` runs the same commands in this process, alternating untraced
and traced passes, and reports per-layer calls and self times from
``bench/tracer.py``, plus the tracer's coverage and overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
every command's argv, exit code, peak RSS, output sha256 and verdicts) is
written to ``.bench_results/`` in the checkout.  BLAS and
``KREINSPEC_THREADS`` are pinned to one thread so runs on one machine are
comparable.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP = ROOT / ".bench_tmp"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import perfcount  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "KREINSPEC_THREADS": "1"}
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 20
SETUP_PER_PASS = 4
COMMAND_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "run_ginstr": "Ginstr", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}
PER_LAYER_UNITS = dict(
    [(f"{name}.calls", "count") for name in tracer.SPAN_NAMES]
    + [(f"{name}.self_s", "s") for name in tracer.SPAN_NAMES]
    + [(name, "bytes" if name.endswith("bytes") else "count") for name in tracer.COUNTERS]
    + [("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio")])

PROBE = """
import json, sys, numpy, scipy, kreinspec.cli as cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas, "kreinspec_file": cli.__file__}))
"""


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package source, or the
    wrong package gets imported)."""


@dataclass(frozen=True)
class Child:
    """Result of one child process, reaped with os.wait4 so that the peak
    RSS is this child's own and not the maximum over all reaped children.
    ``instructions`` is None unless spawn was given a counter."""

    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str
    instructions: int | None = None


def child_env():
    """Environment of every child; also creates the checkout's temp directory.
    Bytecode caching stays on, as for an installed package."""
    TMP.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(THREAD_ENV, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(TMP))
    return env


def spawn(argv, env, timeout=COMMAND_TIMEOUT_S, counter=None):
    """Run argv to completion; a child still running after timeout is killed.
    With a perfcount.InstructionCounter, also count the child's instructions."""
    with tempfile.TemporaryFile(dir=TMP) as out, tempfile.TemporaryFile(dir=TMP) as err:
        n0 = counter.read() if counter else None
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # os.kill, not proc.kill: Popen.send_signal polls, which could reap
        # the child before os.wait4 sees its rusage.
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        instructions = counter.read() - n0 if counter else None
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_maxrss,
                     out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), instructions)


def check_checkout():
    if not (ROOT / "src" / "kreinspec" / "cli.py").is_file():
        raise SetupError(f"no package source at {ROOT / 'src' / 'kreinspec'}")


def probe_environment(env):
    """Versions and thread settings; the probe also warms caches before timing."""
    child = spawn([sys.executable, "-c", PROBE], env)
    if child.returncode != 0:
        raise SetupError(f"cannot import kreinspec.cli: {child.stderr.strip()[-500:]}")
    info = json.loads(child.stdout)
    if not Path(info["kreinspec_file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"kreinspec imported from {info['kreinspec_file']}, not {ROOT / 'src'}")
    info["nproc"] = os.cpu_count()
    info["threads"] = dict(THREAD_ENV)
    return info


def judge(cmds, outputs, record):
    """Run the oracle over one pass and append a result to each command's
    row of the record."""
    for cmd, (rc, stdout, stderr, extra), row in zip(cmds, outputs, record):
        problems, verdicts = oracle.check(cmd, rc, stdout, stderr)
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        row["results"].append(dict(extra, exit=rc, sha256=digest,
                                   problems=problems, verdicts=verdicts))


def tally(record):
    """(commands attempted, commands whose output failed the oracle)."""
    results = [r for row in record for r in row["results"]]
    return len(results), sum(bool(r["problems"]) for r in results)


def run_subprocess(cmds, seconds, env):
    """End-to-end metrics from child processes (``--trace 0``)."""
    try:
        counter = perfcount.InstructionCounter()
    except perfcount.CounterUnavailable as exc:
        raise SetupError(f"cannot count instructions: {exc}") from exc
    record = [{"argv": list(c.argv), "results": []} for c in cmds]
    base = [sys.executable, "-m", "kreinspec.cli"]
    import_cli = [sys.executable, "-c", "import kreinspec.cli"]
    setup, walls, instrs, peaks = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t_iter = time.perf_counter()
        setup += [spawn(import_cli, env).wall_s for _ in range(SETUP_PER_PASS)]
        t0 = time.perf_counter()
        children = [spawn(base + list(c.argv), env, counter=counter) for c in cmds]
        walls.append(time.perf_counter() - t0)
        instrs.append(sum(ch.instructions for ch in children) / 1e9)
        peaks.append(max(ch.maxrss_kb for ch in children) / 1024.0)
        outputs = [(ch.returncode, ch.stdout, ch.stderr,
                    {"wall_s": ch.wall_s, "maxrss_mb": ch.maxrss_kb / 1024.0,
                     "instructions": ch.instructions})
                   for ch in children]
        judge(cmds, outputs, record)
        step = time.perf_counter() - t_iter
        if len(walls) >= MIN_PASSES and time.perf_counter() + step > deadline:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(spawn(import_cli, env).wall_s)
    counter.close()
    attempted, failed = tally(record)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_ginstr": statistics.median(instrs),
        "peak_rss_mb": statistics.median(peaks),
        "pass_ratio": (attempted - failed) / attempted,
    }
    print(f"{'pass wall time (median, not gated)':40s} {statistics.median(walls):.6g} s",
          file=sys.stderr)
    samples = {"setup_s": setup, "pass_wall_s": walls, "run_ginstr": instrs,
               "peak_rss_mb": peaks}
    return metrics, samples, record


def _inprocess_pass(cli, cmds):
    """Run each command through cli.main in this process; returns the summed
    wall time of the main() calls and the outputs."""
    total, outputs = 0.0, []
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(cmd.argv))
            except Exception:
                traceback.print_exc()
                rc = 1
            wall = time.perf_counter() - t0
        total += wall
        outputs.append((rc, out.getvalue(), err.getvalue(), {"wall_s": wall}))
    gc.collect()
    return total, outputs


def run_traced(cmds, seconds):
    """Per-layer metrics from in-process passes (``--trace 1``)."""
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import kreinspec.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"kreinspec imported from {cli.__file__}, not {ROOT / 'src'}")

    record = [{"argv": list(c.argv), "results": []} for c in cmds]
    _, outputs = _inprocess_pass(cli, cmds)  # warm-up: lazy imports, caches
    judge(cmds, outputs, record)

    tr = tracer.Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t_iter = time.perf_counter()
        wall, outputs = _inprocess_pass(cli, cmds)
        plain.append(wall)
        judge(cmds, outputs, record)

        tr.reset()
        with tr:
            wall, outputs = _inprocess_pass(cli, cmds)
        traced.append(wall)
        judge(cmds, outputs, record)
        sample = {}
        for name, (calls, _, self_s) in tr.stats.items():
            sample[f"{name}.calls"] = calls
            sample[f"{name}.self_s"] = self_s
        sample.update(tr.counters)
        sample["trace.coverage"] = tr.span_self_total() / wall
        layers.append(sample)
        if time.perf_counter() + (time.perf_counter() - t_iter) > deadline:
            break
    metrics = {name: statistics.median(s[name] for s in layers)
               for name in PER_LAYER_UNITS if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    samples = {"inprocess_untraced_s": plain, "inprocess_traced_s": traced}
    return metrics, samples, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        cmds = workloads.generate(args.workload, args.seed)
        env = child_env()
        info = probe_environment(env)
        if args.trace:
            metrics, samples, record = run_traced(cmds, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, samples, record = run_subprocess(cmds, args.seconds, env)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = tally(record)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": info, "metrics": metrics, "samples": samples,
                                "commands": record}, indent=1) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}", file=sys.stderr)
    print(f"attempted {attempted}, failed {failed}; record in {path}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
