"""Fresh-interpreter side of the benchmark.

``setup`` imports the package and builds one workload's inputs, so the
parent can time set-up from interpreter start. ``validate`` runs
``strongcouple validate --strict`` the way the console script does,
optionally traced, with a :class:`speed.SpeedProbe` running from before
the package is imported to the end; the report holds its samples, so
that the parent can take them out of the operation's wall time and
scale that to the reference speed. Both write a small JSON report to
``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path

import workloads as wl
from speed import SpeedProbe
from tracer import Tracer


def validate(trace: bool) -> tuple[dict, int]:
    """Run ``validate --strict`` under a speed probe; report and exit code."""
    probe = SpeedProbe()
    report = {}
    with probe.installed():
        begin = probe.clock()
        pkg = wl.import_package()
        tracer = Tracer(clock=probe.net_clock)
        with (tracer.installed(pkg, extra=[pkg.cli.main]) if trace
              else contextlib.nullcontext()):
            start = probe.net_clock()
            rc = pkg.cli.main(["validate", "--strict"])
            report["op_s"] = probe.net_clock() - start
    if trace:
        report["trace"] = tracer.snapshot()
    report["speed"] = probe.summary(begin, probe.clock())
    return report, rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "validate"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    wl.cap_threads()
    if args.mode == "setup":
        pkg = wl.import_package()
        wl.WORKLOADS[args.workload]().build(args.seed, Path(args.work), pkg)
        report, rc = {}, 0
    else:
        report, rc = validate(args.trace)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
