"""Layer spans recorded from outside the library.

The tracer wraps the library's public functions (and the few methods that carry
per-word work) and records a span around each call. A span's self time is its
duration minus the part of it covered by child spans. Because the benchmark is a
single caller, no layer waits on another, so call counts and busy time are the
whole story.

Wrappers are installed on every name that binds the function, including the
names rebound by ``from .linalg import ...`` in the other modules and the
package namespace, so a call resolves to the wrapper wherever it comes from.
Per-element helpers (``residual_ok``, ``frobenius``) are deliberately left
alone: ``quadratic_form_test`` calls ``residual_ok`` hundreds of thousands of
times per op, and wrapping it would trace a different program.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

# span name -> (defining module, attribute or "Class.method")
LAYER_FUNCTIONS = {
    "linalg.null_space_basis": ("linalg", "null_space_basis"),
    "linalg.solve_affine_system": ("linalg", "solve_affine_system"),
    "linalg.orthonormal_columns": ("linalg", "orthonormal_columns"),
    "linalg.hermitian_eigensystem": ("linalg", "hermitian_eigensystem"),
    "actions.decide_irreducibility": ("actions", "decide_irreducibility"),
    "actions.affine_commutant": ("actions", "affine_commutant"),
    "actions.invariant_subspace_from_witness": ("actions", "invariant_subspace_from_witness"),
    "actions.analyze_direct_sum": ("actions", "analyze_direct_sum"),
    "actions.project_action": ("actions", "project_action"),
    "actions.fixed_points": ("actions", "fixed_points"),
    "actions.check_equivalence": ("actions", "check_equivalence"),
    "reps.first_cohomology": ("reps", "first_cohomology"),
    "reps.commutant_basis": ("reps", "commutant_basis"),
    "reps.fixed_subspace": ("reps", "fixed_subspace"),
    "reps.commutant_action_on_classes": ("reps", "commutant_action_on_classes"),
    "reps.search_irreducible_cocycle": ("reps", "search_irreducible_cocycle"),
    "reps.cocycle_init": ("reps", "Cocycle.__init__"),
    "reps.cocycle_extend": ("reps", "Cocycle.extend"),
    "reps.rep_init": ("reps", "Representation.__init__"),
    "reps.rep_evaluate": ("reps", "Representation.evaluate"),
    "words.check_word": ("words", "GroupPresentation.check_word"),
    "words.validate_coset_table": ("words", "validate_coset_table"),
    "constructions.quadratic_form_test": ("constructions", "quadratic_form_test"),
    "constructions.orbit_hull_probe": ("constructions", "orbit_hull_probe"),
    "constructions.restrict_action": ("constructions", "restrict_action"),
    "constructions.induce_action": ("constructions", "induce_action"),
    "problem_io.load_problem": ("problem_io", "load_problem"),
    "problem_io.build_action": ("problem_io", "ProblemFile.build_action"),
    "cli.main": ("cli", "main"),
}

# spans reported by call count only
CALLS_ONLY = {"actions.project_action"}

# counters recorded at the layer boundaries, besides calls and self time
COUNTERS = (
    "linalg.null_space_basis.elements_in",
    "linalg.null_space_basis.max_rows",
    "constructions.quadratic_form_test.words_computed",
    "problem_io.load_problem.bytes_in",
    "cli.main.bytes_out",
    "reps.search.trials_used",
)

_SEARCH = "reps.search_irreducible_cocycle"
_DECIDE = "actions.decide_irreducibility"


def _package_modules():
    return [m for n, m in sys.modules.items() if n == "affine_actions" or n.startswith("affine_actions.")]


def unit(metric: str) -> str:
    """Unit of a per-layer metric; counts and times are per traced pass."""
    if metric.endswith(".self_s"):
        return "s/pass"
    if metric.endswith(".max_rows"):
        return "rows"
    if metric.endswith(("bytes_in", "bytes_out")):
        return "B/pass"
    if metric.endswith("decide_ratio"):
        return "ratio"
    if metric.endswith("_pct"):
        return "%"
    return "count/pass"


class Tracer:
    """Span recorder; wrappers count only while ``armed`` (inside a timed op)."""

    def __init__(self, keep_spans_of_ops: int) -> None:
        self.names = list(LAYER_FUNCTIONS)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.search_decides = 0
        self.armed = False
        self.op = -1
        self.keep_spans_of_ops = keep_spans_of_ops
        self.spans: list[tuple[int, int, int, int, float, float]] = []
        self._stack: list[list] = []  # [name index, start, child time, span id]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Bind a wrapper to every name of every listed function or method."""
        modules = _package_modules()
        for name, (module_name, attr) in LAYER_FUNCTIONS.items():
            module = sys.modules[f"affine_actions.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        idx = self.index[name]
        before = {
            "linalg.null_space_basis": self._count_null_space,
            "constructions.quadratic_form_test": self._count_lattice_words,
            "problem_io.load_problem": self._count_bytes_in,
            _DECIDE: self._count_search_decide,
        }.get(name)
        after = self._count_trials if name == _SEARCH else None

        def wrapper(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [idx, 0.0, 0.0, self._next_span]
            self._next_span += 1
            self._stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[2]
                parent = -1
                if self._stack:
                    self._stack[-1][2] += duration
                    parent = self._stack[-1][3]
                if self.op < self.keep_spans_of_ops:
                    self.spans.append((self.op, idx, parent, frame[3], frame[1], end))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_null_space(self, args, kwargs) -> None:
        rows, cols = np.atleast_2d(np.asarray(args[0])).shape
        self.counters["linalg.null_space_basis.elements_in"] += rows * cols
        self.counters["linalg.null_space_basis.max_rows"] = max(
            self.counters["linalg.null_space_basis.max_rows"], rows
        )

    def _count_lattice_words(self, args, kwargs) -> None:
        window = kwargs.get("window", args[1] if len(args) > 1 else 3)
        k = args[0].presentation.num_generators
        self.counters["constructions.quadratic_form_test.words_computed"] += (4 * window + 1) ** k

    def _count_bytes_in(self, args, kwargs) -> None:
        self.counters["problem_io.load_problem.bytes_in"] += os.path.getsize(args[0])

    def _count_search_decide(self, args, kwargs) -> None:
        search = self.index[_SEARCH]
        if any(frame[0] == search for frame in self._stack):
            self.search_decides += 1

    def _count_trials(self, result) -> None:
        self.counters["reps.search.trials_used"] += result.trials_used

    # -- reporting ---------------------------------------------------------

    def per_pass(self, passes: int) -> dict[str, float]:
        """Per-layer metrics averaged over ``passes`` traced passes."""
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i] / passes
            if name not in CALLS_ONLY:
                out[f"{name}.self_s"] = self.self_s[i] / passes
        for name, value in self.counters.items():
            out[name] = value if name.endswith("max_rows") else value / passes
        trials = self.counters["reps.search.trials_used"]
        out["reps.search.decide_ratio"] = self.search_decides / trials if trials else 0.0
        return out

    def write_spans(self, path) -> None:
        """Spans of the first traced ops: op, name, parent span, span, start, end."""
        with open(path, "w") as fh:
            fh.write("op\tname\tparent\tspan\tstart_s\tend_s\n")
            for op, idx, parent, span, start, end in self.spans:
                fh.write(f"{op}\t{self.names[idx]}\t{parent}\t{span}\t{start:.9f}\t{end:.9f}\n")
