"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the arithreg modules from outside the
library: every module global and class attribute bound to a listed function
is replaced by a timing wrapper (so ``arithreg.relations.lll``,
``arithreg.cli.embeddings`` and the ``embeddings`` that
``relations._cached_embeddings`` looks up are all the same wrapper), and
``uninstall`` puts the originals back. Untraced runs never install it.

Each call becomes one span (function, job, parent span, start, end) kept in
memory; self time is a span's duration minus the durations of its direct
children, which never overlap because calls nest.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from workloads import DILOG_REGIONS

LAYERS = ("cli", "nf", "intmat", "relations", "dilog", "regulator",
          "arakelov", "heights", "kmodel")

# metric name -> (module, attribute path)
TARGETS = {
    "cli.run_job": ("arithreg.cli", "run_job"),
    "nf.embeddings": ("arithreg.nf", "embeddings"),
    "nf.parse_field": ("arithreg.nf", "parse_field"),
    "nf.evaluate": ("arithreg.nf", "evaluate"),
    "nf.mul": ("arithreg.nf", "FieldElement.__mul__"),
    "nf.inverse": ("arithreg.nf", "FieldElement.inverse"),
    "nf.norm": ("arithreg.nf", "FieldElement.norm"),
    "nf.is_unit": ("arithreg.nf", "FieldElement.is_unit"),
    "nf.integral_coords": ("arithreg.nf", "FieldElement.integral_coords"),
    "intmat.lll": ("arithreg.intmat", "lll"),
    "intmat.hnf": ("arithreg.intmat", "hnf"),
    "intmat.snf": ("arithreg.intmat", "snf"),
    "intmat.left_kernel": ("arithreg.intmat", "left_kernel"),
    "intmat.solve_fraction": ("arithreg.intmat", "solve_fraction"),
    "intmat.det_fraction": ("arithreg.intmat", "det_fraction"),
    "intmat.hnf_rational": ("arithreg.intmat", "hnf_rational"),
    "relations.relation_lattice": ("arithreg.relations", "relation_lattice"),
    "relations.coordinates_of": ("arithreg.relations", "coordinates_of"),
    "relations.steinberg_image": ("arithreg.relations", "steinberg_image"),
    "relations.bloch_kernel": ("arithreg.relations", "bloch_kernel"),
    "relations.torsion_only_kernel": ("arithreg.relations", "torsion_only_kernel"),
    "relations.verify_bloch_element": ("arithreg.relations", "verify_bloch_element"),
    "relations.exterior_square_of_lattice": ("arithreg.relations",
                                             "exterior_square_of_lattice"),
    "dilog.li2": ("arithreg.dilog", "li2"),
    "dilog.bloch_wigner": ("arithreg.dilog", "bloch_wigner"),
    "regulator.k3_regulator": ("arithreg.regulator", "k3_regulator"),
    "regulator.unit_regulator": ("arithreg.regulator", "unit_regulator"),
    "arakelov.from_rows": ("arithreg.arakelov", "FractionalIdeal.from_rows"),
    "arakelov.multiply": ("arithreg.arakelov", "FractionalIdeal.multiply"),
    "arakelov.contains": ("arithreg.arakelov", "FractionalIdeal.contains"),
    "arakelov.arithmetic_degree": ("arithreg.arakelov", "arithmetic_degree"),
    "heights.c_hat_height": ("arithreg.heights", "c_hat_height"),
    "kmodel.build_model": ("arithreg.kmodel", "build_model"),
}


# work counts recorded alongside a span: metric suffix -> size of the input
WORK = {"intmat.lll": ("rows", lambda args, kwargs: len(args[0]))}


class Recorder:
    def __init__(self):
        self.names = list(TARGETS)
        self.spans = []  # (name index, job, parent span or -1, start, end, work)
        self.job = -1
        self._stack = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def _wrap(self, index: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(self.names[index], (None, None))[1]

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            amount = work(args, kwargs) if work else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[me] = (index, self.job, parent, start, clock(), amount)
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "arithreg" or name.startswith("arithreg.")]
        for index, (module_name, path) in enumerate(TARGETS.values()):
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(index, raw.__func__))
                else:
                    new = self._wrap(index, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as JSON lines: a header naming the functions, then one
        [function, job, parent, start_s, end_s, work] row per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- aggregation ------------------------------------------------------

    def summary(self, job_tags: dict, slowdown: list) -> dict:
        """Per-layer metrics: calls, busy and self time per function, work
        counts, per-job ratios, per-layer self shares and per-tag calls and
        busy time of ``dilog.bloch_wigner``. Times are divided by the host
        slowdown measured around each job, like the end-to-end timings."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        work = defaultdict(int)
        tagged = defaultdict(float)
        tagged_calls = defaultdict(int)
        bw = self.names.index("dilog.bloch_wigner")
        durations = [(end - start) / slowdown[job]
                     for _, job, _, start, end, _ in self.spans]
        for (name, job, parent, _, _, amount), dur in zip(self.spans, durations):
            calls[name] += 1
            busy[name] += dur
            work[name] += amount
            if parent >= 0:
                child[parent] += dur
            if name == bw:
                tagged[job_tags.get(job)] += dur
                tagged_calls[job_tags.get(job)] += 1
        self_s = defaultdict(float)
        for idx, (span, dur) in enumerate(zip(self.spans, durations)):
            self_s[span[0]] += dur - child.get(idx, 0.0)

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[i], "count")
            out[f"{name}.busy_s"] = (busy[i], "s")
            out[f"{name}.self_s"] = (self_s[i], "s")
        for name, (suffix, _) in WORK.items():
            out[f"{name}.{suffix}"] = (work[self.names.index(name)], "count")
        for tag in DILOG_REGIONS:
            out[f"dilog.bloch_wigner.calls.{tag}"] = (tagged_calls[tag], "count")
            out[f"dilog.bloch_wigner.busy_s.{tag}"] = (tagged[tag], "s")
        jobs = max(len(slowdown), 1)
        for name in ("nf.embeddings", "relations.steinberg_image"):
            out[f"{name}.calls_per_job"] = (calls[self.names.index(name)] / jobs, "1/job")
        total = busy[self.names.index("cli.run_job")] or 1.0
        for layer in LAYERS:
            layer_self = sum(self_s[i] for i, n in enumerate(self.names)
                             if n.split(".")[0] == layer)
            out[f"{layer}.self_share"] = (layer_self / total, "fraction")
        return out
