"""gammatail benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  With --trace 0 the run measures the end-to-end metrics;
with --trace 1 it replays the same ops in fresh interpreters with spans
around every layer boundary and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A detail record (environment, percentiles,
failures, counters) goes to .bench_out/ in the checkout.  See README.md in
this directory for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import checks
import ops as opgen
from launch import PROBE_TAG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CACHE_DIR = ROOT / ".bench_cache"

WORKLOADS = ("certify", "large-shape", "verify-all")
SETUP_RUNS = 16
IMPORTTIME_RUNS = 5
MIN_PASSES = 3
REPEATS = 3           # back-to-back calls per op and pass in a timed run
CHILD_TIMEOUT_S = 150
BRANCHES = ("cf", "series-complement", "tail-series")

# import.* metric -> (module name in -X importtime output, column).  numpy is
# a dependency, so its whole subtree counts; gammatail modules count alone.
IMPORT_METRICS = {
    "import.numpy_ms": ("numpy", "cumulative"),
    "import.gammatail._series_ms": ("gammatail._series", "self"),
    "import.gammatail.specfun_ms": ("gammatail.specfun", "self"),
    "import.gammatail.oracle_ms": ("gammatail.oracle", "self"),
    "import.gammatail.certify_ms": ("gammatail.certify", "self"),
    "import.gammatail.acceptance_ms": ("gammatail.acceptance", "self"),
    "import.gammatail_ms": ("gammatail", "self"),
}

SPAN_METRICS = (
    "tailprob.tail_prob_detail", "tailprob.ratio_parts",
    "quadrature.integrate", "oracle.oracle_gamma_q",
    "oracle.oracle_tail_prob", "oracle.oracle_mean_gaps",
    "median.gamma_median", "median.check_median_bracket",
    "certify.certify_monotone", "certify.find_witness",
    "certify.check_mean_chain", "certify.check_threshold_chain",
    "certify.check_asymptotic_slope",
)
CALL_METRICS = (
    "tailprob.tail_prob_detail", "tailprob.ratio_parts",
    "quadrature.integrate", "oracle.oracle_gamma_q",
    "oracle.oracle_tail_prob", "oracle.oracle_mean_gaps",
    "median.gamma_median", "certify.certify_monotone",
    "certify.find_witness",
)
COUNTER_METRICS = (
    "quadrature.integrate.panels", "quadrature.integrate.evals",
    "median.gamma_median.kernel_calls", "certify.certify_monotone.points",
    "certify.certify_monotone.refine_points", "certify.find_witness.points",
    "certify.check_mean_chain.extended_pairs", "specfun.q.cap_hits",
)
CRITERION_IDS = tuple(f"C{i:02d}" for i in range(1, 14))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _run_child(cmd: list[str], input_text: str | None = None
               ) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, input=input_text, capture_output=True,
                          text=True, env=_child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)


def _launched(args: list[str], python_flags: tuple[str, ...] = ()
              ) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run launch.py with args.  Returns the wall ns from spawn to exit
    scaled to the reference speed, the scale factor (from the child's own
    probes) and the completed process."""
    cmd = [sys.executable, *python_flags, str(HERE / "launch.py"), *args]
    t0 = time.perf_counter_ns()
    proc = _run_child(cmd)
    wall = time.perf_counter_ns() - t0
    mean_ns, spent_ns = calib.REF_NS, 0.0
    for line in proc.stderr.splitlines():
        if line.startswith(PROBE_TAG):
            _n, mean_ns, spent_ns = map(float, line[len(PROBE_TAG):].split())
    scale = calib.REF_NS / mean_ns
    return (wall - spent_ns) * scale, scale, proc


def _check_child(proc: subprocess.CompletedProcess, what: str) -> None:
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


def measure_setup(runs: int) -> list[float]:
    """Scaled wall times (s) of fresh interpreters importing gammatail."""
    samples = []
    for _ in range(runs):
        wall, _scale, proc = _launched(["import"])
        _check_child(proc, "import gammatail")
        samples.append(wall / 1e9)
    return samples


def import_breakdown() -> dict[str, float]:
    """import.* metrics from `python -X importtime`, median over runs, ms."""
    runs: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    for _ in range(IMPORTTIME_RUNS):
        _wall, scale, proc = _launched(["import"], ("-X", "importtime"))
        _check_child(proc, "python -X importtime")
        table = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                own = int(parts[0].split(":")[1])
                cumulative = int(parts[1])
            except ValueError:
                continue                                  # the header line
            table[parts[2].strip()] = {"self": own, "cumulative": cumulative}
        for name, (module, column) in IMPORT_METRICS.items():
            us = table.get(module, {}).get(column, 0)
            runs[name].append(us * scale / 1e3)
    return {name: statistics.median(v) for name, v in runs.items()}


def run_worker(workload: str, job_ops: list[dict], seconds: float,
               min_passes: int, max_passes: int, trace: bool,
               spans_path: Path | None = None, repeats: int = 1) -> dict:
    job = {"workload": workload, "ops": opgen.program_inputs(job_ops),
           "seconds": seconds, "min_passes": min_passes,
           "max_passes": max_passes, "repeats": repeats, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    proc = _run_child([sys.executable, str(HERE / "worker.py")],
                      json.dumps(job))
    _check_child(proc, "benchmark worker")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile with at
    least 10 samples beyond it, but not below p75, which it is for fewer
    than 40 samples."""
    s = sorted(samples)
    n = len(s)
    pct = max(75.0, 100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100.0 * n - 1e-9))
    return s[rank - 1], pct, n


def latency_metrics(passes: list[list[float]]) -> tuple[dict, dict]:
    """End-to-end timing metrics from scaled per-pass op times (ns).

    An op's latency is its median over passes.  With fewer than 11 ops in
    the list (verify-all: one CLI run) every timed run is a sample.
    """
    n_ops = len(passes[0])
    per_op = [statistics.median(p[i] for p in passes) for i in range(n_ops)]
    samples = per_op if n_ops >= 11 else [t for p in passes for t in p]
    suite_ns = statistics.median(sum(p) for p in passes)
    tail_ns, pct, n = tail(samples)
    metrics = {
        "ops_per_s": n_ops / (suite_ns / 1e9),
        "op_p50_ms": statistics.median(samples) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "suite_s": suite_ns / 1e9,
    }
    return metrics, {"op_tail_percentile": pct, "op_tail_samples": n,
                     "passes": len(passes),
                     "op_latency_ms": [t / 1e6 for t in per_op]}


def run_cli_suite(seconds: float
                  ) -> tuple[list[list[float]], list[str], float]:
    """Cold `python -m gammatail verify-all --json` runs, one at a time,
    until `seconds` have passed (at least MIN_PASSES runs).  Returns the
    scaled time of each run, the failures and the median raw time (s)."""
    deadline = time.perf_counter() + seconds
    passes, failures, outputs, raw = [], [], [], []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        wall, scale, proc = _launched(["cli", "verify-all", "--json"])
        passes.append([wall])
        raw.append(wall / scale / 1e9)
        try:
            all_pass = json.loads(proc.stdout)["all_pass"] is True
        except (ValueError, KeyError, TypeError):
            all_pass = False
        if proc.returncode != 0 or not all_pass:
            failures.append(f"run {len(passes)}: exit {proc.returncode}, "
                            f"all_pass {all_pass}: {proc.stderr[-500:]}")
        outputs.append(proc.stdout)
    if len(set(outputs)) > 1:
        failures.append("verify-all output bytes differ between runs")
    return passes, failures, statistics.median(raw)


def known_defects(workload: str, refs: checks.References
                  ) -> tuple[int, list[str], float]:
    """Runs the fixed known-defect ops (large-shape only) once, untimed, in
    a fresh worker and checks them like the timed ops.  Returns the number
    of ops, their failures and the worst |value - ref| / err_bound."""
    if workload != "large-shape":
        return 0, [], 0.0
    probe = opgen.known_defect_ops()
    out = run_worker(workload, probe, 0, 1, 1, trace=False)
    misses, worst = checks.check_large_shape(probe, out["summaries"], refs)
    return len(probe), misses, max(worst.values(), default=0.0)


def check_outputs(workload: str, job_ops: list[dict], out: dict,
                  refs: checks.References) -> tuple[list[str], dict]:
    summaries = out["summaries"]
    worst: dict = {}
    if workload == "certify":
        failures = checks.check_certify(job_ops, summaries, refs)
    elif workload == "large-shape":
        failures, worst = checks.check_large_shape(job_ops, summaries, refs)
    else:
        failures = checks.check_criteria(summaries)
    if len(set(out["digests"])) > 1:
        failures.append("outputs differ between passes of one run")
    return failures, worst


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(), "cpu_affinity": affinity,
        "python": platform.python_version(), "numpy": numpy_version,
        "mpmath": checks.mpmath.__version__, "git_commit": commit or None,
        "src_sha256": digest.hexdigest(), "calib_ref_ns": calib.REF_NS,
    }


def end_to_end(workload: str, seconds: float, job_ops: list[dict],
               refs: checks.References) -> tuple[dict, int, list, dict]:
    # Half the set-up samples before the timed phase and half after it, so
    # that the median spans the run rather than one moment of the machine.
    _check_child(_launched(["import"])[2], "import gammatail")  # bytecode
    setup_samples = measure_setup(SETUP_RUNS // 2)
    if workload == "verify-all":
        passes, failures, raw_suite_s = run_cli_suite(seconds)
        attempted = len(passes)
    else:
        out = run_worker(workload, job_ops, seconds, MIN_PASSES, 10_000,
                         trace=False, repeats=REPEATS)
        passes = out["passes"]
        failures, _worst = check_outputs(workload, job_ops, out, refs)
        attempted = len(job_ops)
        raw_suite_s = statistics.median(
            sum(p) for p in out["raw_passes"]) / 1e9
    setup_samples += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
    # Peak over every child; the worker or CLI child is the largest.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    n_probe, misses, _worst = known_defects(workload, refs)
    metrics, extra = latency_metrics(passes)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
    # The known-defect ops count here, and only here: they stay visible in
    # the headline figure without failing the run.
    failed = min(len(failures), attempted)
    metrics["pass_frac"] = ((attempted - failed + n_probe - len(misses))
                            / (attempted + n_probe))
    extra["known_defects"] = {"ops": n_probe, "missed": misses}
    extra["setup_samples_s"] = setup_samples
    extra["raw_suite_s"] = raw_suite_s
    return metrics, attempted, failures, extra


def per_layer(workload: str, seed: int, job_ops: list[dict],
              refs: checks.References) -> tuple[dict, int, list, dict]:
    imports = import_breakdown()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    base = run_worker(workload, job_ops, 0, 1, 1, trace=False)
    first = run_worker(workload, job_ops, 0, 1, 1, trace=True,
                       spans_path=spans_path)
    second = run_worker(workload, job_ops, 0, 1, 1, trace=True)

    failures, worst = check_outputs(workload, job_ops, first, refs)
    attempted = len(first["summaries"])
    counted_first = {**first["counts"], **first["maxima"]}
    counted_second = {**second["counts"], **second["maxima"]}
    if counted_first != counted_second:
        differ = sorted(k for k in set(counted_first) | set(counted_second)
                        if counted_first.get(k) != counted_second.get(k))
        failures.append(f"counts differ between two traced runs: {differ}")
    if len({base["digests"][0], first["digests"][0],
            second["digests"][0]}) > 1:
        failures.append("output digests differ between the untraced and "
                        "the two traced runs")

    counts, self_ns = first["counts"], first["self_ns"]
    metrics = dict(imports)
    for b in BRANCHES:
        name = f"specfun.q.{b}"
        metrics[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        metrics[f"{name}.iters"] = counts.get(f"{name}.iters", 0)
        metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        metrics[f"{name}.worst_err_ratio"] = worst.get(b, 0.0)
    metrics["specfun.q.max_iters"] = first["maxima"].get(
        "specfun.q.max_iters", 0)
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in SPAN_METRICS:
        metrics[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in COUNTER_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["median.gamma_median.failed"] = counts.get(
        "median.gamma_median.raised", 0)
    metrics["oracle.norm_cache_hit_ratio"] = first["norm_cache_hit_ratio"]
    n_probe, misses, worst_probe = known_defects(workload, refs)
    metrics["defects.missed"] = len(misses)
    metrics["defects.worst_err_ratio"] = worst_probe
    for cid in CRITERION_IDS:
        metrics[f"acceptance.{cid}_s"] = (
            first["total_ns"].get(f"acceptance.{cid}", 0) / 1e9)
    base_s = sum(base["passes"][0])
    traced_s = sum(first["passes"][0])
    metrics["trace.overhead_ratio"] = traced_s / base_s - 1.0
    extra = {"counts": counts, "spans_file": str(spans_path.relative_to(ROOT)),
             "n_spans": first["n_spans"],
             "known_defects": {"ops": n_probe, "missed": misses},
             "untraced_pass_s": base_s / 1e9, "traced_pass_s": traced_s / 1e9}
    return metrics, attempted, failures, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gammatail" / "__init__.py").is_file():
        print(f"gammatail source not found under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "certify":
        job_ops = opgen.certify_ops(args.seed)
    elif args.workload == "large-shape":
        job_ops = opgen.large_shape_ops(args.seed)
    else:
        job_ops = []
    refs = checks.References(CACHE_DIR / "mpmath-q.json")
    try:
        if args.trace:
            metrics, attempted, failures, extra = per_layer(
                args.workload, args.seed, job_ops, refs)
        else:
            metrics, attempted, failures, extra = end_to_end(
                args.workload, args.seconds, job_ops, refs)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        refs.save()

    units = UNITS
    failed = min(len(failures), attempted)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "extra": extra, "failures": failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} on "
          f"{env['cpu_model']} (nproc {env['nproc']}), Python {env['python']},"
          f" numpy {env['numpy']}, mpmath {env['mpmath']}, commit "
          f"{env['git_commit'] or 'n/a'} (src {env['src_sha256'][:12]})")
    for k, v in metrics.items():
        note = ""
        if k == "op_tail_ms":
            note = (f"  (p{extra['op_tail_percentile']:g} of "
                    f"{extra['op_tail_samples']} samples)")
        print(f"{k} = {v:.6g} {units[k]}{note}")
    if metrics.get("specfun.q.cap_hits", 0) > 0:
        print(f"WARNING: specfun.q.cap_hits = {metrics['specfun.q.cap_hits']}"
              ": kernel calls stopped at the iteration cap without "
              "converging")
    probe = extra["known_defects"]
    if probe["ops"]:
        print(f"known defects: {len(probe['missed'])} of {probe['ops']} "
              "fixed ops in the regions the timed ops avoid missed their "
              "check (counted in pass_frac, not in failed)")
        for line in probe["missed"]:
            print(f"KNOWN DEFECT {line}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures in .bench_out/")
    result = {
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "suite_s": "s", "peak_rss_mb": "MB",
    "pass_frac": "ratio", "specfun.q.max_iters": "count",
    "median.gamma_median.failed": "count",
    "oracle.norm_cache_hit_ratio": "ratio", "trace.overhead_ratio": "ratio",
    "defects.missed": "count", "defects.worst_err_ratio": "ratio",
}
UNITS.update({name: "ms" for name in IMPORT_METRICS})
for _b in BRANCHES:
    UNITS.update({f"specfun.q.{_b}.calls": "count",
                  f"specfun.q.{_b}.iters": "count",
                  f"specfun.q.{_b}.self_s": "s",
                  f"specfun.q.{_b}.worst_err_ratio": "ratio"})
UNITS.update({f"{n}.calls": "count" for n in CALL_METRICS})
UNITS.update({f"{n}.self_s": "s" for n in SPAN_METRICS})
UNITS.update({n: "count" for n in COUNTER_METRICS})
UNITS.update({f"acceptance.{c}_s": "s" for c in CRITERION_IDS})


if __name__ == "__main__":
    sys.exit(main())
