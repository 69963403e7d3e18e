"""Outside-in tracer for the kreinspec layers.

Wraps module functions from outside the package: each wrapped call is a
span, and a span's self time is its duration minus the time covered by
the traced calls it made.  ``from .linalg import op_norm`` copies the
function into the importing module, so every module attribute bound to a
traced function is replaced, not only the defining one.  ``LinOp``
construction and densification are counted through the class.  A name a
later version of the package no longer defines is skipped, and its
metrics read 0.

The span stack is shared by all threads, so traced code must run on one
thread (the benchmark fixes ``KREINSPEC_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import math
import time

MODULES = ("kreinspec", "kreinspec.linalg", "kreinspec.triples", "kreinspec.torus",
           "kreinspec.sphere", "kreinspec.suq2", "kreinspec.solver", "kreinspec.cli")

TRIPLES_FUNCS = ("check_krein", "check_reality", "check_dirac", "check_order_one",
                 "check_equivariance", "check_regularity", "check_boundedness_ladder",
                 "check_time_orientation", "abs_dirac", "abs_dirac_eigenvalues",
                 "compact_resolvent_probe")

# (defining module, function name, span name)
SPANS = (
    [("kreinspec.cli", f"cmd_{c}", "cli.cmd") for c in ("verify", "spectrum", "solve", "metric")]
    + [("kreinspec.cli", "_emit_json", "cli.emit_json"),
       ("kreinspec.cli", "_csv_rows", "cli.csv_rows"),
       ("kreinspec.torus", "build_torus", "torus.build"),
       ("kreinspec.sphere", "build_sphere", "sphere.build"),
       ("kreinspec.suq2", "build_suq2", "suq2.build"),
       ("kreinspec.sphere", "sphere_blocks", "sphere.blocks"),
       ("kreinspec.suq2", "suq2_dirac_spectrum", "suq2.dirac_spectrum"),
       ("kreinspec.torus", "torus_spectrum", "torus.spectrum"),
       ("kreinspec.sphere", "sphere_metric", "sphere.metric")]
    + [("kreinspec.triples", f, f"triples.{f}") for f in TRIPLES_FUNCS]
    + [("kreinspec.linalg", "op_norm", "linalg.op_norm"),
       ("kreinspec.linalg", "_subspace_norm", "linalg.subspace_norm"),
       ("kreinspec.linalg", "commutator", "linalg.commutator"),
       ("kreinspec.linalg", "eig_dense", "linalg.eig_dense"),
       ("kreinspec.linalg", "nullspace", "linalg.nullspace"),
       ("kreinspec.linalg", "conj_by_antilinear", "linalg.conj_by_antilinear"),
       ("kreinspec.solver", "assemble_constraints", "solver.assemble_constraints"),
       ("kreinspec.solver", "solve_family", "solver.solve_family"),
       ("kreinspec.solver", "verify_family", "solver.verify_family")])

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))
COUNTERS = ("linalg.linop.constructions", "linalg.to_dense.calls", "linalg.to_dense.bytes",
            "linalg.nullspace.input_bytes", "solver.rows")


class Tracer:
    """Span statistics per name: calls, total seconds, self seconds."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._restore = []

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, fn, name, on_call=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = self.stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _count_nullspace(self, args, result):
        self.counters["linalg.nullspace.input_bytes"] += 8 * math.prod(getattr(args[0], "shape", ()))

    def _count_rows(self, args, result):
        self.counters["solver.rows"] += int(result.n_rows)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = {"linalg.nullspace": self._count_nullspace,
                 "solver.assemble_constraints": self._count_rows}
        for home, attr, name in SPANS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, hooks.get(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))
        linop = importlib.import_module("kreinspec.linalg").LinOp
        init, to_dense = linop.__init__, linop.to_dense

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.counters["linalg.linop.constructions"] += 1
            init(obj, *args, **kwargs)

        @functools.wraps(to_dense)
        def counted_to_dense(obj):
            self.counters["linalg.to_dense.calls"] += 1
            self.counters["linalg.to_dense.bytes"] += 16 * obj.dim * obj.dim
            return to_dense(obj)

        linop.__init__, linop.to_dense = counted_init, counted_to_dense
        self._restore += [(linop, "__init__", init), (linop, "to_dense", to_dense)]

    def uninstall(self):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_self_total(self):
        """Sum of all self times: the wall time the spans cover."""
        return sum(st[2] for st in self.stats.values())
