"""Runs one workload's op list in a fresh interpreter and reports timings.

Started by run.py with gammatail's source on PYTHONPATH; reads a JSON job on
stdin and writes one JSON object on stdout.  The job carries the generated
ops only, so the program sees nothing but its inputs.  Ops run in a closed
loop with one client: the next op starts when the previous one returned.

The op list is replayed in passes until the job's time is up (at least
`min_passes`).  In each pass every op is called `repeats` times back to
back; each call is timed on its own and scaled to the reference speed by
the probe samples taken around it (calib.Sampler), and the op's time in
the pass is the median of its calls.  Outputs are compared across passes,
and their digest is reported so that two runs can be compared too.
"""
from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time

import calib
import spans


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


def _certify_ops(ops):
    certify = importlib.import_module("gammatail.certify")
    scan_spec = certify.ScanSpec
    certify_monotone = certify.certify_monotone
    find_witness = certify.find_witness
    calls = []
    for op in ops:
        c = op["c"]
        if op["kind"] == "witness":
            calls.append(lambda c=c: find_witness(c))
        else:
            calls.append(lambda c=c, a_min=op["a_min"]: certify_monotone(
                c, scan_spec(a_min, 200.0, 400, "log")))
    return calls


def _large_shape_ops(ops):
    tailprob = importlib.import_module("gammatail.tailprob")
    median = importlib.import_module("gammatail.median")
    query = tailprob.TailQuery
    tail_prob_detail = tailprob.tail_prob_detail
    gamma_median = median.gamma_median
    calls = []
    for op in ops:
        if op["kind"] == "median":
            calls.append(lambda a=op["a"]: gamma_median(a))
        else:
            calls.append(lambda a=op["a"], c=op["c"]: tail_prob_detail(
                query(a, c)))
    return calls


def _criteria_ops(ops, rec):
    acceptance = importlib.import_module("gammatail.acceptance")
    ops.extend({"cid": cid} for cid in acceptance.CRITERIA)
    calls = []
    for op in ops:
        fn = acceptance.CRITERIA[op["cid"]]
        if rec is not None:
            fn = rec.wrap(fn, "acceptance." + op["cid"])
        calls.append(lambda fn=fn: fn(1.0, None))
    return calls


def _summary(workload, op, result):
    """The part of an op's output that run.py checks against references."""
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    if workload == "certify":
        if op["kind"] == "witness":
            return {"a": [result.a1, result.a2, result.a3],
                    "p": [result.p1, result.p2, result.p3]}
        return {"direction": result.direction}
    if workload == "large-shape":
        if op["kind"] == "median":
            return {"median": result.median, "residual": result.residual}
        return {"value": result.value, "err_bound": result.err_bound,
                "method": result.method}
    return {"cid": op["cid"], "passed": result.passed}


def _add_median_bounds(ops, summaries):
    """err_bound of the kernel at each returned median, outside the timing."""
    specfun = importlib.import_module("gammatail.specfun")
    for op, s in zip(ops, summaries):
        if op["kind"] == "median" and "median" in s:
            s["kernel_err_bound"] = specfun.reg_gamma_q_detail(
                op["a"], s["median"]).err_bound


def run(job: dict) -> dict:
    rec = None
    if job["trace"]:
        importlib.import_module("gammatail")
        rec = spans.Recorder()
        spans.install(rec)
    workload = job["workload"]
    ops = job["ops"]
    if workload == "certify":
        calls = _certify_ops(ops)
    elif workload == "large-shape":
        calls = _large_shape_ops(ops)
    else:
        calls = _criteria_ops(ops, rec)

    sampler = calib.Sampler()
    sampler.start()
    deadline = time.perf_counter_ns() + int(job["seconds"] * 1e9)
    repeats = job["repeats"]
    op_times = []            # per pass, per op: [(t0, t1)] of each call
    summaries = None
    digests = []
    while True:
        timings = []
        h = hashlib.sha256()
        pass_summaries = []
        for i, (op, call) in enumerate(zip(ops, calls)):
            if rec is not None:
                rec.op_id = i
            calls_ns = []
            for _ in range(repeats):
                t0 = time.perf_counter_ns()
                try:
                    result = call()
                except Exception as exc:  # a failed op is data, not a crash
                    result = exc
                calls_ns.append((t0, time.perf_counter_ns()))
            timings.append(calls_ns)
            payload = (repr(result) if isinstance(result, Exception)
                       else _jsonable(result))
            h.update(json.dumps(payload, sort_keys=True).encode())
            if summaries is None:
                pass_summaries.append(_summary(workload, op, result))
        op_times.append(timings)
        digests.append(h.hexdigest())
        if summaries is None:
            summaries = pass_summaries
        if len(op_times) >= job["max_passes"]:
            break
        if (len(op_times) >= job["min_passes"]
                and time.perf_counter_ns() >= deadline):
            break
    time.sleep(2 * calib.INTERVAL_S)     # probes after the last op
    sampler.stop()
    passes = [[statistics.median(sampler.scaled(t0, t1) for t0, t1 in c)
               for c in timings] for timings in op_times]
    raw = [[statistics.median(t1 - t0 for t0, t1 in c) for c in timings]
           for timings in op_times]

    out = {
        "passes": passes,
        "raw_passes": raw,
        "digests": digests,
        "summaries": summaries,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if rec is not None:
        out["self_ns"] = dict(rec.self_ns)
        out["total_ns"] = dict(rec.total_ns)
        out["counts"] = dict(rec.counts)
        out["maxima"] = dict(rec.maxima)
        out["norm_cache_hit_ratio"] = spans.norm_cache_hit_ratio()
        out["n_spans"] = len(rec.spans)
        if job.get("spans_path"):
            rec.dump(job["spans_path"])
    if workload == "large-shape":
        _add_median_bounds(ops, summaries)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    out = run(job)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
