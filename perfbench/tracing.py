"""Spans around kttrace's layer boundaries, recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of the layer
modules at run time, in this process only; ``Tracer.restore`` puts every
original object back. A function object bound under several names (for
example ``pack_segments`` in ``data``, ``train``, ``metrics``,
``importance`` and ``model``) is replaced under every name, so calls are
timed whichever module makes them. Spans are recorded only while a stage
is open (``Tracer.stage``), so the benchmark's own checks are not traced.

A span is (name, start, end, parent index, round). Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("data", "model", "autograd", "train", "importance", "metrics")

# Called once per interaction or per id inside pack_segments; a span each
# would cost more than the work it times.
PER_ELEMENT = {
    "data.GlobalVocab.question_to_global", "data.GlobalVocab.kc_to_global",
    "data.GlobalVocab.unk_question", "data.GlobalVocab.unk_kc",
    "data.GlobalVocab.question_from_global", "data.GlobalVocab.kc_from_global",
}

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


# ---------------------------------------------------------------------------
# counters read off arguments and results


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _count_batch(c, args, kwargs, out):
    lengths = out.lengths.astype(np.int64)
    n, t = out.questions.shape
    c["real_tokens"] += int(lengths.sum())
    c["padded_cells"] += n * t
    c["attn_real_cells"] += int((lengths * (lengths + 1) // 2).sum())
    c["attn_cells"] += n * t * (t + 1) // 2


def _count_matmul(c, args, kwargs, out):
    a, b = _shape(args[0]), _shape(args[1])
    transpose_b = kwargs.get("transpose_b", args[2] if len(args) > 2 else False)
    n = b[-2] if transpose_b else b[-1]
    c["matmul_flop"] += 2 * int(np.prod(a[:-1])) * a[-1] * n


def _count_attention(c, args, kwargs, out):
    b, t, d = _shape(args[0])
    c["attention_flop"] += 4 * b * t * t * d   # q k^T and attn v over all T x T cells


def _count_clip(c, args, kwargs, out):
    max_norm = kwargs.get("max_norm", args[1] if len(args) > 1 else None)
    c["clip_calls"] += 1
    c["clip_fired"] += int(max_norm is not None and out[1] > max_norm)


def _count_checkpoint(c, args, kwargs, out):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    c["checkpoint_bytes"] += os.path.getsize(path)


def _count_frozen(c, args, kwargs, out):
    profile = kwargs.get("profile", args[0])
    for imp in profile.layers.values():
        c["frozen_units"] += int((np.asarray(imp.values) == 0).sum())
        c["gated_units"] += int(np.asarray(imp.values).size)


def _count_predictions(c, args, kwargs, out):
    c["predictions"] += int(np.size(out[0]))


HOOKS = {
    "data.pack_segments": _count_batch,
    "autograd.matmul": _count_matmul,
    "autograd.causal_attention": _count_attention,
    "train.clip_gradients": _count_clip,
    "train.save_checkpoint": _count_checkpoint,
    "importance.freeze_masks": _count_frozen,
    "metrics.collect_predictions": _count_predictions,
}


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, round]
        self.counters = {}         # round -> {counter: value}
        self.installed = set()     # span names that have a wrapper
        self._stack = []
        self._round = None
        self._patches = []         # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._round])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def stage(self, name, round_no):
        """Record spans under one root span ``cli.<name>`` for one round."""
        self._round = round_no
        self.counters.setdefault(round_no, defaultdict(int))
        idx = self._open(f"cli.{name}")
        try:
            yield
        finally:
            self._close(idx)
            self._round = None

    def _wrap_function(self, name, fn):
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if self._round is None:
                        item = next(it, _DONE)
                    else:
                        idx = self._open(name)
                        try:
                            item = next(it, _DONE)
                        finally:
                            self._close(idx)
                    if item is _DONE:
                        return
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._round is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters[self._round], args, kwargs, out)
            return out
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kttrace" or n.startswith("kttrace.")]
        for layer in LAYERS:
            module = importlib.import_module(f"kttrace.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap_function(name, obj)
                    for mod in modules:
                        for alias, bound in list(vars(mod).items()):
                            if bound is obj:
                                self._patch(mod, alias, wrapped)
                    self.installed.add(name)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)

    def _install_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in PER_ELEMENT:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap_function(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap_function(name, raw)
            else:
                continue   # properties, constants
            self._patch(cls, attr, wrapped)
            self.installed.add(name)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        """Put every original binding back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def round_stats(self, round_no):
        """Per span name: calls, total, self, and the list of durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, rnd in spans:
            if parent >= 0 and rnd == round_no:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, parent, rnd) in enumerate(spans):
            if rnd != round_no:
                continue
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
        return stats

    def span_dicts(self, workload):
        return [{"name": n, "start": s, "end": e, "parent": p, "round": r,
                 "workload": workload} for n, s, e, p, r in self.spans]


_DONE = object()


def tail(durations):
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(durations)
    out = {"n": n, "p50_s": float(np.median(durations)) if n else None}
    for p in PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            out[f"p{p:g}_s"] = float(np.percentile(durations, p))
            break
    return out
