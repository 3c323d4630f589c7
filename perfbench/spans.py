"""Spans around the public functions of each ``tardos`` module, from outside it.

The package itself is not edited. :class:`Recorder` replaces each function in
:data:`WRAPS` with a timing wrapper in every namespace where callers look the
name up (module globals of every ``tardos`` module, or the class dictionary
for methods), so calls made inside the package are seen as well as calls made
by the CLI. Spans stay in memory until :meth:`Recorder.write` is called.

Spans nest by a call stack, so recording needs every wrapped call on the
thread that installed the wrappers; a traced run therefore uses ``--threads 1``.
"""

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict


def _pirate_ones(y):
    bits = getattr(y, "bits", y)
    return int(bits.sum())


# (span name, "module:attribute path", counters). Counters are a dict added on
# every call, or a function of (bound arguments, result) returning that dict.
# Keys are per-layer metric names.
WRAPS = (
    ("cli.main", "tardos.cli:main", None),
    ("cli.build_parser", "tardos.cli:build_parser", None),
    ("rng.stream", "tardos.rng:stream", {"rng.streams_opened": 1}),
    ("rng.substreams", "tardos.rng:substreams",
     lambda a, r: {"rng.streams_opened": a["n"]}),
    ("model.BiasDistribution.sample", "tardos.model:BiasDistribution.sample",
     lambda a, r: {"model.bias_draws": a["size"]}),
    ("codegen.sample_bias", "tardos.codegen:sample_bias", None),
    ("codegen.gen_matrix", "tardos.codegen:gen_matrix",
     lambda a, r: {"codegen.bits_generated": a["n"] * a["bias"].m}),
    ("codegen.crc64", "tardos.codegen:crc64",
     lambda a, r: {"codegen.bytes_checksummed": memoryview(a["data"]).nbytes}),
    ("codegen.save_codebook", "tardos.codegen:save_codebook", None),
    ("codegen.load_codebook", "tardos.codegen:load_codebook", None),
    ("codegen.Codebook.select_bits", "tardos.codegen:Codebook.select_bits", None),
    ("codegen.Codebook.block_bits", "tardos.codegen:Codebook.block_bits", None),
    ("attacks.forge", "tardos.attacks:forge", None),
    ("tracer.trace", "tardos.tracer:trace",
     lambda a, r: {"tracer.users_scored": a["cb"].n,
                   "tracer.evidence_columns": _pirate_ones(a["y"]),
                   "tracer.users_accused": len(r.accused)}),
    ("tracer.AccusationReport.to_csv", "tardos.tracer:AccusationReport.to_csv", None),
    ("simulate.run", "tardos.simulate:run",
     lambda a, r: {"simulate.innocents_scored":
                   a["cfg"].trials * a["cfg"].innocents_per_trial,
                   "simulate.coalition_bits":
                   a["cfg"].trials * a["cfg"].c * a["cfg"].params.m}),
    ("simulate.SimReport.to_jsonl", "tardos.simulate:SimReport.to_jsonl", None),
    ("gaussian.moments", "tardos.gaussian:moments", None),
    ("gaussian.erfc_inv", "tardos.gaussian:erfc_inv", {"gaussian.erfc_inv_calls": 1}),
    ("gaussian.conservative_plan", "tardos.gaussian:conservative_plan", None),
    ("gaussian.m_min", "tardos.gaussian:m_min", None),
    ("gaussian.z_interval", "tardos.gaussian:z_interval", None),
    ("gaussian.clt_report", "tardos.gaussian:clt_report", None),
    ("gaussian.format_report", "tardos.gaussian:format_report", None),
    ("bounds.emit_search_table", "tardos.bounds:emit_search_table", None),
    ("bounds.search_min_A", "tardos.bounds:search_min_A",
     lambda a, r: {"bounds.iterations": int(a["iterations"])}),
    ("bounds.SearchTable.to_csv", "tardos.bounds:SearchTable.to_csv", None),
)


def _resolve(target):
    module_name, path = target.split(":")
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Installs the wrappers and keeps the spans of each traced pass."""

    def __init__(self):
        self.passes = []  # (run id, spans); a span is [name, start, end, parent, outermost]
        self.counts = Counter()
        self.off_thread_calls = 0
        self._spans = None
        self._stack = []
        self._active = Counter()
        self._owner = None
        self._patched = []

    def _wrap(self, name, fn, counters):
        sig = inspect.signature(fn) if callable(counters) else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != rec._owner:
                rec.off_thread_calls += 1
                return fn(*args, **kwargs)
            spans = rec._spans
            idx = len(spans)
            span = [name, 0, 0, rec._stack[-1] if rec._stack else -1,
                    rec._active[name] == 0]
            spans.append(span)
            rec._stack.append(idx)
            rec._active[name] += 1
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                rec._active[name] -= 1
                rec._stack.pop()
            if callable(counters):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.counts.update(counters(bound.arguments, result))
            elif counters:
                rec.counts.update(counters)
            return result

        return wrapper

    def install(self, run_id):
        """Start a traced pass named ``run_id`` and put every wrapper in place."""
        self._spans = []
        self.passes.append((run_id, self._spans))
        self.counts = Counter()
        self._owner = threading.get_ident()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tardos" or n.startswith("tardos.")) and m is not None]
        for name, target, counters in WRAPS:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        """Restore the original functions; returns this pass's counters."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._spans = None
        return dict(self.counts)

    def write(self, path):
        """Write every span of every traced pass as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for run_id, spans in self.passes:
                for i, (name, start, end, parent, _) in enumerate(spans):
                    fh.write(json.dumps({"run": run_id, "span": i, "parent": parent,
                                         "name": name, "start_ns": start,
                                         "end_ns": end}) + "\n")


def summarize(spans):
    """Per-name inclusive seconds, self seconds and call counts of one pass.

    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice. Self time is a span's duration minus that of
    its direct children, which cannot overlap on one thread.
    """
    child = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_, calls = Counter(), Counter(), Counter()
    roots = 0
    for i, (name, start, end, parent, outermost) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_[name] += (dur - child[i]) * 1e-9
        if outermost:
            incl[name] += dur * 1e-9
        if parent < 0:
            roots += dur
    return {"incl": incl, "self": self_, "calls": calls,
            "self_total_s": sum(self_.values()), "roots_s": roots * 1e-9}
