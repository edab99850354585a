"""Outside-in tracing of abelint: spans around calls into its public functions.

``Tracer.install`` rebinds each traced function in every ``abelint`` module
that holds it (``from .x import f`` copies the name, so ``abelint.cli`` and
``abelint.abelian`` each get their own rebinding of ``build_rectifier``) and
wraps the traced methods on their classes.  ``uninstall`` puts the originals
back.  Untraced runs never install anything.

A span is ``[name, start, end, parent, problem]``; spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

# (span name, module that defines the function, attribute or Class.method)
TRACED = (
    ("cli.execute", "abelint.cli", "execute"),
    ("cli.render", "abelint.cli", "report_to_json"),
    ("cli.render", "abelint.cli", "report_to_text"),
    ("cli.factored_string", "abelint.cli", "_factored_string"),
    ("oracle.locate_roots", "abelint.oracle", "locate_roots"),
    ("family.validate", "abelint.family", "validate"),
    ("transform.reduce", "abelint.transform", "reduce_to_nonexact_basis"),
    ("transform.pushforward_oneform", "abelint.transform", "pushforward_oneform"),
    ("rectify.build_rectifier", "abelint.rectify", "build_rectifier"),
    ("rectify.monomial_pushforward", "abelint.rectify",
     "RectifyingMap.monomial_pushforward"),
    ("algebra.residue", "abelint.algebra", "residue"),
    ("abelian.full_report", "abelint.abelian", "full_report"),
    ("abelian.integrate_cycle", "abelint.abelian", "integrate_cycle"),
    ("abelian.count_zeros", "abelint.abelian", "count_zeros"),
    ("oracle.run", "abelint.cli", "run_oracle"),
    ("oracle.contour_t", "abelint.oracle", "contour_integral_t"),
    ("oracle.contour_fiber", "abelint.oracle", "contour_integral_fiber"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

# Per-layer metrics other than the per-span totals and self times, with units.
COUNT_METRICS = {
    "family.validate_calls_per_problem": "count/problem",
    "rectify.builds_per_problem": "count/problem",
    "rectify.pushforwards_per_pair": "ratio",
    "algebra.residue_calls": "count/problem",
    "algebra.max_pole_order": "count",
    "algebra.max_coeff_bits": "bits",
    "abelian.basis_monomials": "count/problem",
    "oracle.contour_t_calls": "count/problem",
    "oracle.contour_fiber_calls": "count/problem",
    "oracle.ratfunc_evaluations": "count/problem",
    "oracle.max_rel_error": "rel",
    "trace_overhead": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s/problem"
        units[f"{name}_self_s"] = "s/problem"
    units.update(COUNT_METRICS)
    return units


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.problem = None
        self.basis_monomials: Dict[object, int] = {}
        self.max_pole_order = 0
        self.max_coeff_bits = 0
        self.oracle_evaluations = 0
        self._stack: List[int] = []
        self._oracle_depth = 0
        self._undo: List[tuple] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "abelint" or key.startswith("abelint.")]
        for name, home, attr in TRACED:
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(sys.modules[home], cls_name)
                self._rebind(owner, method, self._wrap(name, getattr(owner, method)))
                continue
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        ratfunc = sys.modules["abelint.algebra"].RatFunc
        self._rebind(ratfunc, "evaluate", self._count_evaluate(ratfunc.evaluate))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        before = {"algebra.residue": self._residue_sizes}.get(name)
        after = {"transform.reduce": self._basis_count}.get(name)
        oracle = name.startswith("oracle.")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem]
            stack.append(len(spans))
            spans.append(span)
            self._oracle_depth += oracle
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self._oracle_depth -= oracle
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_evaluate(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._oracle_depth:
                self.oracle_evaluations += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters --------------------------------------------------------
    def _residue_sizes(self, f, pole, *_):
        if isinstance(pole, tuple):
            self.max_pole_order = max(self.max_pole_order, f.pole_order(pole))
        for coeff in f.num.terms.values():
            self.max_coeff_bits = max(self.max_coeff_bits, _bits(coeff.re),
                                      _bits(coeff.im))

    def _basis_count(self, result):
        coeffs, _exact = result
        self.basis_monomials[self.problem] = len(coeffs)

    # -- results ---------------------------------------------------------
    def metrics(self, problems: int, pairs: int, max_rel_error: float,
                overhead: float) -> Dict[str, float]:
        """Per-layer metrics over the ``problems`` traced so far.

        ``pairs`` is the number of (basis monomial, cycle) pairs the exact
        path needed over those problems.  A layer's self time is its span
        time minus the time of its child spans; its total counts only spans
        with no enclosing span of the same name.
        """
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for index, (name, start, end, parent, _problem) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[index]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total[name] += end - start
        per = max(problems, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name] / per
            out[f"{name}_self_s"] = self_time[name] / per
        out.update({
            "family.validate_calls_per_problem": calls["family.validate"] / per,
            "rectify.builds_per_problem": calls["rectify.build_rectifier"] / per,
            "rectify.pushforwards_per_pair":
                calls["rectify.monomial_pushforward"] / max(pairs, 1),
            "algebra.residue_calls": calls["algebra.residue"] / per,
            "algebra.max_pole_order": self.max_pole_order,
            "algebra.max_coeff_bits": self.max_coeff_bits,
            "abelian.basis_monomials": sum(self.basis_monomials.values()) / per,
            "oracle.contour_t_calls": calls["oracle.contour_t"] / per,
            "oracle.contour_fiber_calls": calls["oracle.contour_fiber"] / per,
            "oracle.ratfunc_evaluations": self.oracle_evaluations / per,
            "oracle.max_rel_error": max_rel_error,
            "trace_overhead": overhead,
        })
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "problem"],
                       "spans": self.spans}, out)
