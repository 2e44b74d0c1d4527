"""Outside-in tracing of rhcircles, installed from the benchmark's own code.

The program carries no tracing of its own, so the tracer wraps it from
outside: every public function of every rhcircles module, a few methods
whose call counts matter (Circle.points, IdnlsSolution.evaluate, the
JumpData samplers), and the scipy.linalg factorizations rhp reaches
through its module attribute.  A name is patched in every rhcircles
namespace that holds it, because modules import each other's functions
by name and look them up in their own globals.

A span is (name, start, end, parent), appended when the call opens, so a
parent always precedes its children.  Spans stay in memory in flat arrays
and are written out once, at the end of the run.  Self time is a span's
duration minus the time its direct children cover; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, class, method) wrapped besides the module-level functions.
METHODS = (
    ("contour", "Circle", "points"),
    ("idnls", "IdnlsSolution", "evaluate"),
    ("rhp", "JumpData", "from_evaluator"),
    ("rhp", "JumpData", "from_evaluators"),
)

# scipy.linalg functions rhp reaches as scipy.linalg.<name>.
FACTORIZATIONS = ("svdvals", "svd", "lu_factor")

MIB = float(1 << 20)


class _Namespace:
    """Stands in for a module: overrides some attributes, forwards the rest."""

    def __init__(self, target, overrides: dict):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _operator_order(args, kwargs) -> int:
    problem = args[0] if args else kwargs["p"]
    return int(problem.system.total_nodes * problem.data.dim)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.current_op = -1
        self._open: list[int] = []
        # span index -> operator order (solve, index_diagnostics) or the
        # returned smallest singular value (solve)
        self.order: dict[int, int] = {}
        self.sigma: dict[int, float] = {}
        self._patches = self._plan()

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook=None):
        name_id = self._id(name)
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(spans._open[-1] if spans._open else -1)
            spans.op.append(spans.current_op)
            spans.end.append(0.0)
            spans._open.append(index)
            spans.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = time.perf_counter()
                spans._open.pop()
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return traced

    def _solve_hook(self, index, args, kwargs, result):
        self.order[index] = _operator_order(args, kwargs)
        self.sigma[index] = float(result.smallest_singular_value)

    def _order_hook(self, index, args, kwargs, result):
        self.order[index] = _operator_order(args, kwargs)

    # -- patching --------------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every patch site."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "rhcircles" or name.startswith("rhcircles."))
        }
        hooks = {
            "rhp.solve": self._solve_hook,
            "rhp.index_diagnostics": self._order_hook,
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            short = mod_name.partition(".")[2]
            if not short:
                continue
            for attr, value in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod_name
                ):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(value)] = (value, self._wrap(name, value, hooks.get(name)))

        def swap(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        plan = []
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if swap(value) is not None:
                    plan.append((mod, attr, value, swap(value)))
        # a default argument (hermitian_factorize's solver=solve) is
        # looked up in the function's own defaults, not in its module
        for original, _ in wrappers.values():
            defaults = original.__defaults__ or ()
            if any(swap(d) is not None for d in defaults):
                patched = tuple(swap(d) or d for d in defaults)
                plan.append((original, "__defaults__", defaults, patched))

        for mod_name, cls_name, method in METHODS:
            cls = getattr(modules.get(f"rhcircles.{mod_name}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            name = f"{mod_name}.{cls_name}.{method}"
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            elif inspect.isfunction(original):
                wrapped = self._wrap(name, original)
            else:
                continue
            plan.append((cls, method, original, wrapped))

        rhp = modules.get("rhcircles.rhp")
        scipy = getattr(rhp, "scipy", None)
        linalg = getattr(scipy, "linalg", None)
        if linalg is not None:
            overrides = {
                f: self._wrap(f"rhp.{f}", getattr(linalg, f))
                for f in FACTORIZATIONS
                if hasattr(linalg, f)
            }
            proxy = _Namespace(scipy, {"linalg": _Namespace(linalg, overrides)})
            plan.append((rhp, "scipy", scipy, proxy))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- per-op figures --------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer figures of the spans lo..hi-1, which form one op."""
        ids = self._ids
        total = np.zeros(len(self.names))
        calls = np.zeros(len(self.names))
        self_time = np.zeros(len(self.names))
        covered = {}
        solve_id = ids.get("rhp.solve", -2)
        eval_id = ids.get("rhp.evaluate_m", -2)
        points_id = ids.get("contour.Circle.points", -2)
        factor_ids = {ids.get(f"rhp.{f}", -2) for f in FACTORIZATIONS}
        # span index -> whether it runs inside a solve / evaluate_m span
        in_solve = {-1: False}
        in_eval = {-1: False}
        points_in_eval = 0
        factorizations_in_solve = 0
        for i in range(lo, hi):
            name = self.name[i]
            parent = self.parent[i]
            duration = self.end[i] - self.start[i]
            total[name] += duration
            calls[name] += 1
            covered[parent] = covered.get(parent, 0.0) + duration
            inside_solve = in_solve.get(parent, False)
            inside_eval = in_eval.get(parent, False)
            if name == points_id and inside_eval:
                points_in_eval += 1
            if name in factor_ids and inside_solve:
                factorizations_in_solve += 1
            in_solve[i] = inside_solve or name == solve_id
            in_eval[i] = inside_eval or name == eval_id
        for i in range(lo, hi):
            name = self.name[i]
            self_time[name] += (self.end[i] - self.start[i]) - covered.get(i, 0.0)

        def t(name):
            return float(total[ids[name]]) if name in ids else 0.0

        def n(name):
            return int(calls[ids[name]]) if name in ids else 0

        solves = [i for i in range(lo, hi) if self.name[i] == solve_id]
        returned = [self.sigma[i] for i in solves if i in self.sigma]
        sigma_min = getattr(sys.modules.get("rhcircles.rhp"), "SIGMA_MIN", 1e-8)
        orders = [self.order[i] for i in range(lo, hi) if i in self.order]
        order = max(orders, default=0)
        evaluations = n("rhp.evaluate_m")
        return {
            "contour.points_calls": n("contour.Circle.points"),
            "contour.points_per_eval": points_in_eval / evaluations if evaluations else 0.0,
            "contour.build_s": t("contour.build_contour"),
            "cauchy.build_projectors_s": t("cauchy.build_projectors"),
            "cauchy.build_projectors_calls": n("cauchy.build_projectors"),
            "cauchy.boundary_values_s": t("cauchy.boundary_values_on_circle"),
            "cauchy.check_margin_calls": n("cauchy.check_margin"),
            "rhp.solve_s": t("rhp.solve"),
            "rhp.solve_self_s": float(self_time[solve_id]) if solves else 0.0,
            "rhp.svdvals_s": t("rhp.svdvals"),
            "rhp.svdvals_calls": n("rhp.svdvals"),
            "rhp.svd_s": t("rhp.svd"),
            "rhp.svd_calls": n("rhp.svd"),
            "rhp.lu_factor_s": t("rhp.lu_factor"),
            "rhp.lu_calls": n("rhp.lu_factor"),
            "rhp.factorizations_per_solve": (
                factorizations_in_solve / len(solves) if solves else 0.0
            ),
            "rhp.alias_path_share": (
                sum(s < sigma_min for s in returned) / len(returned) if returned else 0.0
            ),
            "rhp.index_diagnostics_s": t("rhp.index_diagnostics"),
            "rhp.check_inversion_s": t("rhp.check_inversion_hypotheses"),
            "rhp.jump_sample_s": t("rhp.JumpData.from_evaluator")
            + t("rhp.JumpData.from_evaluators"),
            "rhp.evaluate_s": t("rhp.evaluate_m"),
            "rhp.evaluate_calls": evaluations,
            "rhp.operator_order": order,
            "rhp.operator_mb_computed": 16.0 * order * order / MIB,
            "factorize.hermitian_s": t("factorize.hermitian_factorize"),
            "factorize.scalar_s": t("factorize.scalar_factorize"),
            "idnls.remove_poles_s": t("idnls.remove_poles"),
            "idnls.conjugate_s": t("idnls.conjugate"),
            "idnls.solve_augmented_s": t("idnls.solve_augmented"),
            "idnls.evaluate_s": t("idnls.IdnlsSolution.evaluate"),
            "idnls.evaluate_calls": n("idnls.IdnlsSolution.evaluate"),
            "idnls.residue_check_s": t("idnls.residue_condition_residuals"),
            "expressions.parse_s": t("expressions.parse_expression"),
            "expressions.parse_calls": n("expressions.parse_expression"),
            "cli.main_s": t("cli.main"),
        }

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            op=np.asarray(self.op, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )
