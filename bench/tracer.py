"""Spans around the public functions of the ncfatou modules.

The benchmark wraps every public function, and every public method of a
public class, defined in the traced modules.  A wrapped call records one
span (name, start, end, parent span, job id) in memory; the spans are
written out as JSON lines when the run ends.  Functions that run in the
innermost loops (the word-basis slice arithmetic) are counted but get no
span, so that tracing does not swamp the work it measures.

A function is patched in its own module and in every other loaded module
that imported it by name (``cli`` imports ``outer_factor`` and
``rn_derivative`` directly, and so do the benchmark's own jobs), so no
call path escapes the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("words", "fock", "series", "measure", "lebesgue", "factor",
           "oracle1d", "cli")

# counted, never timed: called per grade per term inside every matvec
COUNT_ONLY = {"words.WordBasis.grade_slice", "words.WordBasis.left_concat_slice",
              "words.WordBasis.right_concat_slice", "words.WordBasis.rank",
              "words.WordBasis.index", "words.WordBasis.word",
              "words.WordBasis.sub_basis_size", "words.word_count",
              "words.concat", "words.transpose"}

# self-time metrics: metric name -> span names whose self time it sums
SELF_TIME = {
    "lebesgue.corner_s": ("lebesgue.resolvent_corner",),
    "lebesgue.cg_s": ("lebesgue.hermitian_cg",),
    "lebesgue.rn_self_s": ("lebesgue.rn_derivative",),
    "lebesgue.radial_build_s": ("lebesgue.RadialOperator.from_schur",
                                "lebesgue.RadialOperator.from_herglotz",
                                "lebesgue.radial_operator"),
    "lebesgue.majorant_s": ("lebesgue.majorant_check",
                            "lebesgue.fatou_form_check"),
    "fock.matvec_s": ("fock.TruncatedOperator.apply",
                      "fock.TruncatedOperator.adjoint_apply"),
    "fock.densify_s": ("fock.TruncatedOperator.to_dense",),
    "factor.outer_s": ("factor.outer_factor", "factor.outer_factor_matrix"),
    "factor.ltoeplitz_s": ("factor.ltoeplitz_check",),
    "series.multiplier_build_s": ("series.left_multiplier",
                                  "series.right_multiplier",
                                  "series.series_at_right_shifts"),
    "series.cayley_s": ("series.cayley_to_herglotz", "series.cayley_to_schur"),
    "series.invert_s": ("series.invert",),
    "series.multiply_s": ("series.multiply",),
    "series.evaluate_s": ("series.evaluate",),
    "series.kernel_s": ("series.szego_kernel", "series.szego_kernel_matrix",
                        "series.herglotz_kernel", "series.dbr_kernel"),
    "measure.herglotz_eval_s": ("measure.herglotz_eval",),
    "measure.gram_s": ("measure.gram", "measure.gram_matvec"),
    "measure.positivity_s": ("measure.is_positive",),
    "measure.transform_s": ("measure.clark_measure", "measure.herglotz_transform",
                            "measure.vector_state"),
}

# call counts: metric name -> span (or count-only) names
CALLS = {
    "lebesgue.corner_calls": ("lebesgue.resolvent_corner",),
    "lebesgue.cg_solves": ("lebesgue.hermitian_cg",),
    "fock.matvec_calls": SELF_TIME["fock.matvec_s"],
    "words.slice_calls": ("words.WordBasis.grade_slice",
                          "words.WordBasis.left_concat_slice",
                          "words.WordBasis.right_concat_slice"),
    "series.evaluate_calls": ("series.evaluate",),
}

# metrics read off arguments or results:
# name -> (span name, extractor(args, result), reduction, unit)
VALUES = {
    "lebesgue.corner_words": ("lebesgue.resolvent_corner",
                              lambda a, r: a[0].basis.size, "sum", "count"),
    "lebesgue.cg_iters": ("lebesgue.hermitian_cg", lambda a, r: r[1], "sum",
                          "count"),
    "lebesgue.cg_residual_max": ("lebesgue.hermitian_cg",
                                 lambda a, r: float(r[2]), "max", "1"),
    "lebesgue.stages": ("lebesgue.rn_derivative", lambda a, r: len(r.stages),
                        "sum", "count"),
    "lebesgue.stage_words_max": ("lebesgue.resolvent_corner",
                                 lambda a, r: a[0].basis.size, "max", "count"),
    "fock.dense_mb": ("fock.TruncatedOperator.to_dense",
                      lambda a, r: r.nbytes / 2 ** 20, "max", "MB"),
    "factor.ltoeplitz_pairs": ("factor.ltoeplitz_check",
                               lambda a, r: r.pairs_checked, "sum", "count"),
    "factor.residual_max": ("factor.outer_factor",
                            lambda a, r: float(r.residual), "max", "1"),
}


def layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {m: "s" for m in SELF_TIME}
    units.update({m: "count" for m in CALLS})
    units.update({m: spec[3] for m, spec in VALUES.items()})
    units.update({"oracle1d.s": "s", "cli.self_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class Tracer:
    """Wraps the traced modules; records spans only while ``active``."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []          # [name, start, end, parent, job]
        self.counts = defaultdict(int)
        self.values = defaultdict(list)
        self._stack = []
        self._hooks = defaultdict(list)
        for metric, (span, fn, _, _) in VALUES.items():
            self._hooks[span].append((metric, fn))
        self._patches = []

    # -- patching --------------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"ncfatou.{m}") for m in MODULES}
        everyone = [m for m in list(sys.modules.values()) if m is not None]
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, f"{short}.{name}")
                    for other in everyone:
                        if getattr(other, "__dict__", {}).get(name) is obj:
                            self._patches.append((other, name, obj))
                            setattr(other, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(obj, f"{short}.{name}")

    def _patch_class(self, cls, prefix):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, f"{prefix}.{name}"))
            elif inspect.isfunction(attr):
                new = self._wrap(attr, f"{prefix}.{name}")
            else:
                continue
            self._patches.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        hooks = self._hooks.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for metric, extract in hooks:
                self.values[metric].append(extract(args, result))
            return result
        return traced

    # -- reduction -------------------------------------------------------
    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def layer_metrics(self) -> dict:
        self_t = self.self_times()
        calls = defaultdict(int, self.counts)
        for span in self.spans:
            calls[span[0]] += 1
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_t.get(n, 0.0) for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        for metric, (_, _, how, _) in VALUES.items():
            vals = self.values.get(metric, [])
            out[metric] = (sum(vals) if how == "sum" else max(vals, default=0.0))
        out["oracle1d.s"] = sum(t for n, t in self_t.items()
                                if n.startswith("oracle1d."))
        out["cli.self_s"] = sum(t for n, t in self_t.items() if n.startswith("cli."))
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
