"""Span tracer for the traced benchmark run, and the per-layer metrics.

``install`` wraps, from outside the program, the names through which one
evidunc module reaches another: ``evidunc.losses.log_gamma`` for the
special functions as the losses call them, ``EvidentialMLP._forward_cached``
for forward passes, ``evidunc.experiments.run_seed`` for seed runs, and so
on (see TARGETS). Each call through a wrapped name records a span
``[id, parent, name, start, end, attributes]`` in memory; the spans are
written out when the run ends.

Pool workers forked by ``evidunc.experiments`` inherit the wrappers and the
stack of open spans, so their spans hang under the span that started the
pool. Each worker appends its spans to its own file whenever its outermost
span closes, because pool workers leave through ``os._exit``.

``layer_metrics`` turns the spans into per-layer metrics. A span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

START, END = 3, 4


def _elems(args, kwargs, result):
    return {"elems": int(np.size(args[0]))}


def _forward(args, kwargs, result):
    active = result[2]
    return {
        "rows": int(np.shape(args[1])[0]),
        "clamped": int(active.size - np.count_nonzero(active)),
        "logits": int(active.size),
    }


def _ids(args, kwargs, result):
    return {"ids": int(np.size(args[1]))}


def _selected(args, kwargs, result):
    chosen = result[0] if isinstance(result, tuple) else result
    return {"selected": int(np.size(chosen))}


def _scores(args, kwargs, result):
    return {"n": int(np.size(args[0]))}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[0])[0])}


def _dir_bytes(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in Path(args[0]).rglob("*") if p.is_file())}


# (module, class or None, attribute, span name, attribute extractor)
TARGETS = [
    *[("evidunc.losses", None, f, f"special.{f}", _elems)
      for f in ("log_gamma", "digamma", "trigamma")],
    ("evidunc.dirichlet", None, "digamma", "special.digamma", _elems),
    ("evidunc.enn", None, "edl_batch", "losses.edl_batch", None),
    ("evidunc.enn", None, "ug_batch", "losses.ug_batch", None),
    ("evidunc.enn", "EvidentialMLP", "_forward_cached", "enn.forward", _forward),
    ("evidunc.enn", "EvidentialMLP", "alpha_gradient_to_param_gradients", "enn.backward", None),
    ("evidunc.enn", "Trainer", "_apply_step", "enn.step", None),
    ("evidunc.enn", "Trainer", "run_epoch", "enn.run_epoch", None),
    ("evidunc.pools", "SamplePool", "acquire_with_oracle", "pools.acquire", _ids),
    ("evidunc.pools", "SamplePool", "acquire_with_pseudo_labels", "pools.acquire", _ids),
    ("evidunc.pools", "SamplePool", "supervised_set", "pools.supervised_set", None),
    ("evidunc.pools", "SamplePool", "check_invariants", "pools.check_invariants", None),
    # Public selection entry points, and the helpers run_ada's inline round calls.
    ("evidunc.sampling", None, "uncertainty_sampling", "sampling.selection", _selected),
    ("evidunc.sampling", None, "certainty_sampling", "sampling.selection", _selected),
    ("evidunc.sampling", None, "_eu_order", "sampling.selection", None),
    ("evidunc.sampling", None, "_pick_uncertain", "sampling.selection", _selected),
    ("evidunc.sampling", None, "_pick_certain_tail", "sampling.selection", _selected),
    ("evidunc.sampling", None, "_pick_certain_balanced_tail", "sampling.selection", _selected),
    ("evidunc.sampling", None, "_log_rows", "sampling.selection", None),
    ("evidunc.sampling", None, "auroc", "metrics.auroc", _scores),
    ("evidunc.metrics", None, "auroc", "metrics.auroc", _scores),
    ("evidunc.sampling", None, "batch_uncertainties", "metrics.batch_uncertainties", _rows),
    ("evidunc.metrics", None, "batch_uncertainties", "metrics.batch_uncertainties", _rows),
    ("evidunc.sampling", None, "class_level_uncertainty_summary", "metrics.summary", None),
    ("evidunc.sampling", None, "rank_class_pairs", "metrics.summary", None),
    ("evidunc.cli", None, "quantify_record", "dirichlet.quantify_record", None),
    ("evidunc.dirichlet", "DirichletPrediction", "from_alpha", "dirichlet.from_alpha", None),
    ("evidunc.cli", None, "_parse_alpha_json", "cli.read", None),
    ("evidunc.cli", None, "_parse_alpha_csv", "cli.read", None),
    ("evidunc.experiments", None, "run_seed", "experiments.run_seed", None),
    ("evidunc.experiments", None, "_write_seed_outputs", "experiments.write", _dir_bytes),
    *[(m, None, f, f"synthetic.{f}", None)
      for m in ("evidunc.experiments", "evidunc.synthetic")
      for f in ("generate_domain_pair", "split_pools")],
    ("evidunc.config", None, "parse_config", "config.parse_config", None),
]

# Spans that record the delta of sampling.eu_sort_count() across the call.
EU_COUNTED = {"experiments.run_seed", "sampling.selection"}


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.main_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.base_depth = 0
        self.count = 0
        self.missing = []
        self.eu_sort_count = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.base_depth = len(self.stack)

    def _next_id(self):
        self.count += 1
        return self.pid * 1_000_000_000 + self.count

    def call(self, name, fn, args, kwargs=None, attrs=None):
        kwargs = kwargs or {}
        sid = self._next_id()
        parent = self.stack[-1] if self.stack else None
        counter = self.eu_sort_count if name in EU_COUNTED else None
        sorts = counter() if counter else 0
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close([sid, parent, name, start, time.perf_counter(), None])
            raise
        end = time.perf_counter()
        extra = attrs(args, kwargs, result) if attrs else {}
        if counter:
            extra["eu_sorts"] = counter() - sorts
        self._close([sid, parent, name, start, end, extra or None])
        return result

    def event(self, name, extra):
        now = time.perf_counter()
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self._next_id(), parent, name, now, now, extra])

    def _close(self, span):
        self.stack.pop()
        self.spans.append(span)
        if self.pid != self.main_pid and len(self.stack) == self.base_depth:
            self.dump()

    def dump(self):
        """Append this process's spans to its own file and forget them."""
        tag = "main" if self.pid == self.main_pid else str(self.pid)
        with open(self.out_dir / f"spans-{tag}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced


def install(out_dir) -> Tracer:
    """Wrap every target that exists; names not found go to tracer.missing."""
    tracer = Tracer(out_dir)
    sampling = importlib.import_module("evidunc.sampling")
    tracer.eu_sort_count = getattr(sampling, "eu_sort_count", None)
    for module_name, class_name, attr, name, attrs in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            tracer.missing.append(f"{module_name}.{class_name or ''}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, attrs)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, attrs))
    _install_cli(tracer, importlib.import_module("evidunc.cli"))
    _install_pools(tracer, importlib.import_module("evidunc.experiments"))
    return tracer


def _install_cli(tracer, cli):
    """cli reaches the JSON encoder as cli.json.dumps and the output file as
    cli.Path(...).write_text; wrap both without touching json or pathlib."""

    class TracedJson:
        dumps = staticmethod(tracer.wrap(cli.json.dumps, "cli.encode"))

        def __getattr__(self, attr):
            return getattr(json, attr)

    class TracedPath(type(Path())):
        def write_text(self, *args, **kwargs):
            return tracer.call("cli.write", super().write_text, args, kwargs)

    cli.json = TracedJson()
    cli.Path = TracedPath


def _install_pools(tracer, experiments):
    """Record an event for every process pool experiments starts."""
    base = experiments.ProcessPoolExecutor

    class CountedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            tracer.event("experiments.pool", {"workers": max_workers})
            super().__init__(max_workers, *args, **kwargs)

    experiments.ProcessPoolExecutor = CountedPool


def load_spans(out_dir):
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            spans.extend(json.loads(line))
    return spans


def self_times(spans):
    """Map span id to its self time: duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s[START]
        for c in sorted(children[s[0]], key=lambda c: c[START]):
            lo, hi = max(c[START], cursor), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s[0]] = (s[END] - s[START]) - covered
    return out


def roots(spans):
    """Map span id to the id of its root span."""
    parent = {s[0]: s[1] for s in spans}
    out = {}
    for sid in parent:
        path = []
        while sid not in out and parent.get(sid) is not None:
            path.append(sid)
            sid = parent[sid]
        root = out.get(sid, sid)
        out[sid] = root
        for p in path:
            out[p] = root
    return out


# Per-layer metrics: (name, unit, better). ".calls", ".self_s" and counts
# are per unit of the workload; ".s" is mean seconds per call.
PER_LAYER = [
    *[(f"special.{f}.{m}", u, "lower") for f in ("log_gamma", "digamma", "trigamma")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("special.elems", "count", "lower"),
    *[(f"losses.{f}.{m}", u, "lower") for f in ("edl_batch", "ug_batch")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("enn.forward.calls", "count", "lower"),
    ("enn.forward.rows", "count", "lower"),
    ("enn.forward.self_s", "s", "lower"),
    *[(f"enn.{f}.{m}", u, "lower") for f in ("backward", "step", "run_epoch")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("enn.clamp_frac", "fraction", "lower"),
    ("pools.acquire.calls", "count", "lower"),
    ("pools.acquire.ids", "count", "lower"),
    ("pools.acquire.self_s", "s", "lower"),
    ("pools.supervised_set.calls", "count", "lower"),
    ("pools.supervised_set.self_s", "s", "lower"),
    ("pools.check_invariants.self_s", "s", "lower"),
    ("sampling.selection.self_s", "s", "lower"),
    ("sampling.eu_sorts", "count", "lower"),
    ("sampling.selected", "count", "lower"),
    ("metrics.auroc.calls", "count", "lower"),
    ("metrics.auroc.n", "count", "lower"),
    ("metrics.auroc.self_s", "s", "lower"),
    ("metrics.batch_uncertainties.calls", "count", "lower"),
    ("metrics.batch_uncertainties.rows", "count", "lower"),
    ("metrics.batch_uncertainties.self_s", "s", "lower"),
    ("metrics.summary.self_s", "s", "lower"),
    *[(f"dirichlet.{f}.{m}", u, "lower") for f in ("quantify_record", "from_alpha")
      for m, u in (("calls", "count"), ("self_s", "s"))],
    ("cli.read_s", "s", "lower"),
    ("cli.encode_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("experiments.run_seed.calls", "count", "lower"),
    ("experiments.run_seed.s", "s", "lower"),
    ("experiments.write.self_s", "s", "lower"),
    ("experiments.write.bytes", "bytes", "lower"),
    ("experiments.pools_started", "count", "lower"),
    ("experiments.workers", "count", "higher"),
    ("experiments.worker_wait_s", "s", "lower"),
    ("synthetic.generate_domain_pair.s", "s", "lower"),
    ("synthetic.split_pools.s", "s", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def layer_metrics(spans, units: float, import_s: float, overhead_s: float) -> dict:
    """Per-layer metric values from the spans of a traced run.

    ``units`` is the number of workload units the traced run completed.
    """
    selfs = self_times(spans)
    root_of = roots(spans)
    by_id = {s[0]: s for s in spans}
    in_unit = [s for s in spans if by_id[root_of[s[0]]][2] == "unit"]
    count = defaultdict(int)
    self_s = defaultdict(float)
    attr = defaultdict(float)
    for s in in_unit:
        name, extra = s[2], s[5] or {}
        count[name] += 1
        self_s[name] += selfs[s[0]]
        for key, value in extra.items():
            if key in ("eu_sorts", "selected") and _has_ancestor_with(s, key, by_id):
                continue  # counted once, at the outermost span that reports it
            if key == "workers":
                attr[(name, key)] = max(attr[(name, key)], value or 0)
            else:
                attr[(name, key)] += value

    def mean_s(name):
        durations = [s[END] - s[START] for s in spans if s[2] == name]
        return statistics.fmean(durations) if durations else 0.0

    special = ("special.log_gamma", "special.digamma", "special.trigamma")
    values = {
        "special.elems": sum(attr[(n, "elems")] for n in special) / units,
        "enn.forward.rows": attr[("enn.forward", "rows")] / units,
        "enn.clamp_frac": attr[("enn.forward", "clamped")] / max(attr[("enn.forward", "logits")], 1),
        "pools.acquire.ids": attr[("pools.acquire", "ids")] / units,
        "sampling.eu_sorts": sum(v for (n, k), v in attr.items() if k == "eu_sorts") / units,
        "sampling.selected": attr[("sampling.selection", "selected")] / units,
        "metrics.auroc.n": attr[("metrics.auroc", "n")] / units,
        "metrics.batch_uncertainties.rows": attr[("metrics.batch_uncertainties", "rows")] / units,
        "cli.read_s": self_s["cli.read"] / units,
        "cli.encode_s": self_s["cli.encode"] / units,
        "cli.write_s": self_s["cli.write"] / units,
        "experiments.run_seed.s": mean_s("experiments.run_seed"),
        "experiments.write.bytes": attr[("experiments.write", "bytes")] / units,
        "experiments.pools_started": count["experiments.pool"] / units,
        "experiments.workers": _workers(attr, count),
        "experiments.worker_wait_s": _worker_wait(spans, in_unit, units, _workers(attr, count)),
        "synthetic.generate_domain_pair.s": mean_s("synthetic.generate_domain_pair"),
        "synthetic.split_pools.s": mean_s("synthetic.split_pools"),
        "config.parse_config.s": mean_s("config.parse_config"),
        "import_s": import_s,
        "trace.overhead_s": overhead_s,
        "trace.unattributed_s": self_s["unit"] / units,
    }
    for metric, unit, _ in PER_LAYER:
        if metric in values:
            continue
        span_name, kind = metric.rsplit(".", 1)
        values[metric] = (count[span_name] if kind == "calls" else self_s[span_name]) / units
    return {m: {"value": float(values[m]), "unit": unit} for m, unit, _ in PER_LAYER}


def _has_ancestor_with(span, key, by_id):
    parent = by_id.get(span[1])
    while parent is not None:
        if key in (parent[5] or {}):
            return True
        parent = by_id.get(parent[1])
    return False


def _workers(attr, count):
    if count["experiments.pool"]:
        return attr[("experiments.pool", "workers")]
    return 1.0 if count["experiments.run_seed"] else 0.0


def _worker_wait(spans, in_unit, units, workers):
    """workers x unit wall minus the time spent in run_seed, per unit."""
    if not workers:
        return 0.0
    unit_wall = sum(s[END] - s[START] for s in spans if s[2] == "unit" and s[1] is None)
    seed_time = sum(s[END] - s[START] for s in in_unit if s[2] == "experiments.run_seed")
    return (workers * unit_wall - seed_time) / units
