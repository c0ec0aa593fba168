"""Launcher for the processes whose whole wall time the benchmark measures.

    python perfbench/launch.py import               # import gammatail
    python perfbench/launch.py cli verify-all --json # python -m gammatail ...

Runs the speed probe (calib.Sampler) for the life of the process, then
imports gammatail, or runs its command line as `python -m gammatail` does.
At exit the probe summary goes to stderr as one line: PROBE_TAG, the probe
count, the mean probe time and the total time spent in probes (ns), which
run.py reads to scale the measured wall time.
"""
from __future__ import annotations

import atexit
import sys

import calib

PROBE_TAG = "perfbench-probe "


def _report(sampler: calib.Sampler) -> None:
    sampler.stop()
    sys.stderr.write(f"{PROBE_TAG}{len(sampler.durations)} "
                     f"{sampler.mean_ns()} {sum(sampler.spent)}\n")


def main() -> None:
    sampler = calib.Sampler()
    sampler.start()
    atexit.register(_report, sampler)
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "import":
        import gammatail  # noqa: F401
    elif mode == "cli":
        import runpy
        sys.argv = ["gammatail"] + sys.argv[2:]
        runpy.run_module("gammatail", run_name="__main__", alter_sys=True)
    else:
        sys.exit("usage: launch.py import | cli ARGS...")


if __name__ == "__main__":
    main()
