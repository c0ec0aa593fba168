"""Span and counter recorder for the traced benchmark run.

The recorder wraps the names that gammatail's modules imported from one
another (for example ``tailprob.reg_gamma_q_detail`` or
``acceptance.oracle_gamma_q``), so every call across a layer boundary
records a span: name, start, end, parent span, and the op it belongs to.
Counters come from the records the calls return (``EvalDetail.method`` and
``n_iter``, ``QuadResult.n_panels`` and ``n_evals``, and so on); nothing
inside the program is edited.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children, accumulated as each child closes.  Each thread keeps its own span
stack; counters are updated under one lock, because acceptance criterion
C13 scans on a thread pool.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_KERNEL_CAP_DEFAULT = 100_000


class Recorder:
    """In-memory spans, per-name self time and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str,
             on_return: Optional[Callable[[Any, tuple, dict], str]] = None
             ) -> Callable:
        """fn wrapped in a span called `name`; a call that raises counts
        in `name`.raised.

        on_return(result, args, kwargs), run under the lock after a normal
        return, updates counters and may return a more specific span name
        (the kernel span is named after the branch that served the call).
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            frame = [next(rec._ids), 0]
            stack.append(frame)
            result = None
            raised = True
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                with rec._lock:
                    span_name = name
                    if raised:
                        rec.counts[name + ".raised"] += 1
                    elif on_return is not None:
                        span_name = on_return(result, args, kwargs) or name
                    if parent is not None:
                        parent[1] += dur
                    rec.self_ns[span_name] += dur - frame[1]
                    rec.total_ns[span_name] += dur
                    rec.counts[span_name + ".calls"] += 1
                    rec.spans.append((frame[0], rec.op_id, span_name, t0, t1,
                                      parent[0] if parent else -1))
        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (gzip)."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"fields": ["id", "op", "name", "start_ns", "end_ns",
                                  "parent"],
                       "spans": self.spans}, fh)


def _patch(original: Callable, wrapper: Callable) -> None:
    """Rebind every gammatail module attribute bound to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("gammatail."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap each layer's public functions at every site that imported them."""
    specfun = importlib.import_module("gammatail.specfun")
    tailprob = importlib.import_module("gammatail.tailprob")
    quadrature = importlib.import_module("gammatail.quadrature")
    oracle = importlib.import_module("gammatail.oracle")
    median = importlib.import_module("gammatail.median")
    certify = importlib.import_module("gammatail.certify")
    cap = getattr(specfun, "_KERNEL_MAX_ITER", _KERNEL_CAP_DEFAULT)
    counts = rec.counts
    maxima = rec.maxima

    def on_kernel(d, args, kwargs):
        branch = d.method
        counts["specfun.q.calls"] += 1
        counts[f"specfun.q.{branch}.iters"] += d.n_iter
        if d.n_iter > maxima["specfun.q.max_iters"]:
            maxima["specfun.q.max_iters"] = d.n_iter
        if d.n_iter >= cap:
            counts["specfun.q.cap_hits"] += 1
        return f"specfun.q.{branch}"

    def on_quad(r, args, kwargs):
        counts["quadrature.integrate.panels"] += r.n_panels
        counts["quadrature.integrate.evals"] += r.n_evals

    def on_mean_chain(report, args, kwargs):
        counts["certify.check_mean_chain.extended_pairs"] += sum(
            1 for e in report.entries if e.extended)

    # Counts taken as the difference of a lower layer's counter across the
    # call: tail-probability points per certification call, kernel calls
    # per median solve.  None of these calls nests inside itself.
    def counted(fn, counter, key, extra=None):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            before = counts[counter]
            try:
                return fn(*args, **kwargs)
            finally:
                n = counts[counter] - before
                counts[key] += n
                if extra is not None:
                    extra(n, args)
        return inner

    def scan_refine(n, args):
        scan = args[1] if len(args) > 1 else None
        if scan is not None:
            counts["certify.certify_monotone.refine_points"] += n - scan.n

    tp_calls = "tailprob.tail_prob_detail.calls"
    layers = [
        (specfun.reg_gamma_q_detail, "specfun.q", on_kernel, None),
        (tailprob.tail_prob_detail, "tailprob.tail_prob_detail", None, None),
        (tailprob.ratio_parts, "tailprob.ratio_parts", None, None),
        (quadrature.integrate, "quadrature.integrate", on_quad, None),
        (oracle.oracle_gamma_q, "oracle.oracle_gamma_q", None, None),
        (oracle.oracle_tail_prob, "oracle.oracle_tail_prob", None, None),
        (oracle.oracle_mean_gaps, "oracle.oracle_mean_gaps", None, None),
        (median.gamma_median, "median.gamma_median", None,
         lambda f: counted(f, "specfun.q.calls",
                           "median.gamma_median.kernel_calls")),
        (median.check_median_bracket, "median.check_median_bracket", None,
         None),
        (certify.certify_monotone, "certify.certify_monotone", None,
         lambda f: counted(f, tp_calls, "certify.certify_monotone.points",
                           scan_refine)),
        (certify.find_witness, "certify.find_witness", None,
         lambda f: counted(f, tp_calls, "certify.find_witness.points")),
        (certify.check_mean_chain, "certify.check_mean_chain", on_mean_chain,
         None),
        (certify.check_threshold_chain, "certify.check_threshold_chain",
         None, None),
        (certify.check_asymptotic_slope, "certify.check_asymptotic_slope",
         None, None),
    ]
    for original, name, on_return, decorate in layers:
        inner = decorate(original) if decorate is not None else original
        _patch(original, rec.wrap(inner, name, on_return))


def norm_cache_hit_ratio() -> float:
    """Hits over lookups across the oracle's normalisation caches."""
    oracle = importlib.import_module("gammatail.oracle")
    hits = lookups = 0
    for name in ("_norm_big", "_norm_mid", "_norm_small"):
        fn = getattr(oracle, name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            lookups += info.hits + info.misses
    return hits / lookups if lookups else 0.0
