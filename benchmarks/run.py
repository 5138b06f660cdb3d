"""Benchmark of the ``strongcouple`` entry points.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload default --seed 1 --seconds 10 \
        --trace 0

One closed-loop caller in one process runs the workload's operation
back to back for ``--seconds`` (at least one operation), checks every
output, and prints a metric table, a ``record:`` line with the seed and
the environment, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Operation times are scaled to a reference CPU speed: a
``speed.SpeedProbe`` samples the CPU's speed every 10 ms inside the
measured thread, the samples' own time is taken out of each operation's
wall time, and the rest is divided by the CPU's slowness measured around
the operation (see ``speed.py``). Raw wall times are recorded too.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (see ``tracer.py``) together with
the tracing overhead. Workloads are described in ``workloads.py`` and
``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import workloads as wl
from speed import SpeedProbe
from tracer import Tracer

LAYERS = ("channels", "spectra", "firstlaw", "infomeasures", "experiment",
          "cli")
SETUP_PROBES = 20
EIGENSOLVERS = ("eig_hermitian", "trace_norm")
EMPTY_TRACE = {"layers": {}, "names": {}}
# speed of a validate operation whose process reported no samples
UNMEASURED = {"probe_s": 0.0, "samples": 0, "slowness": 1.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(caps) -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {"nproc": wl.nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "thread_caps": caps}


def run_ops(workload, pkg, seconds, traced, probe):
    """Run operations for ``seconds``; traced runs alternate plain/traced.

    Each record holds the operation's ``span`` on ``probe.clock``. An
    in-process operation is sampled by ``probe``, which the caller
    installs around the whole loop; a ``validate`` operation samples
    itself in its own process and its record holds the ``speed`` it
    reports.
    """
    ops = []
    start = probe.clock()
    while True:
        trace_this = traced and len(ops) % 2 == 1
        workload.prepare()
        tracer = Tracer(clock=probe.net_clock)
        rec = {"traced": trace_this, "rss_kb": 0, "trace": None,
               "inner_s": None}
        t0 = probe.clock()
        try:
            if workload.in_process:
                with (tracer.installed(pkg, extra=[pkg.cli.main])
                      if trace_this else contextlib.nullcontext()):
                    t0 = probe.clock()
                    out = workload.op(pkg)
                    rec["span"] = (t0, probe.clock())
            else:
                out = workload.op(pkg, trace=trace_this)
                rec["span"] = (t0, probe.clock())
                rec.update(speed=out.speed, inner_s=out.op_s,
                           trace=out.trace, rss_kb=out.maxrss_kb)
            outcome = workload.check(out)
        except Exception as exc:  # an operation that raises is a failed op
            rec.setdefault("span", (t0, probe.clock()))
            outcome = wl.Outcome(False, workload.units, 0,
                                 f"raised {type(exc).__name__}: {exc}")
        if workload.in_process and trace_this:
            rec["trace"] = tracer.snapshot()
        rec["outcome"] = outcome
        ops.append(rec)
        done = probe.clock() - start >= seconds
        if done and (not traced or len(ops) % 2 == 0):
            return ops


def scale_ops(ops, probe, in_process):
    """Add each operation's wall, net and reference-speed times.

    Called once the probe is uninstalled, so that the window around
    every operation holds all its samples.
    """
    for rec in ops:
        t0, t1 = rec["span"]
        speed = probe.summary(t0, t1) if in_process \
            else rec.get("speed") or UNMEASURED
        net_s = t1 - t0 - speed["probe_s"]
        rec.update(wall_s=t1 - t0, net_s=net_s, speed=speed,
                   slowness=speed["slowness"],
                   op_s=net_s / speed["slowness"])
        if rec["inner_s"] is None:
            rec["inner_s"] = net_s


def tail(times):
    """Highest percentile with at least ten operations beyond it."""
    n = len(times)
    if n < 11:
        return None
    k = n - 11
    return {"value": sorted(times)[k], "percentile": 100.0 * (k + 1) / n,
            "count": n}


def end_to_end(ops, setup_times, rss_kb) -> tuple[dict, dict]:
    times = [o["op_s"] for o in ops]
    walls = [o["wall_s"] for o in ops]
    units = sum(o["outcome"].units for o in ops)
    ok_units = sum(o["outcome"].ok_units for o in ops)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "ok_rows_per_s": (ok_units / sum(times), "1/s"),
        "ok_frac": (ok_units / units, "frac"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {"op_s.tail": tail(times), "op_count": len(times),
             "op_wall_s.p50": statistics.median(walls),
             "slowness.p50": statistics.median(o["slowness"] for o in ops),
             "failed_frac": 1.0 - ok_units / units, "units": units,
             "ok_units": ok_units, "setup_probes_s": setup_times}
    return metrics, extra


def per_layer(ops) -> tuple[dict, dict]:
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    n = len(traced)

    def mean_of(fn):
        return sum(fn(o["trace"] or EMPTY_TRACE) for o in traced) / n

    def layer(trace, name):
        return trace["layers"].get(name, [0.0, 0, 0])

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = (
            mean_of(lambda t: layer(t, name)[0]), "s")
        metrics[f"{name}.calls"] = (
            mean_of(lambda t: layer(t, name)[1]), "count")
        metrics[f"{name}.errors"] = (
            mean_of(lambda t: layer(t, name)[2]), "count")
    metrics["spectra.eigensolves"] = (
        mean_of(lambda t: sum(t["names"].get(k, 0) for k in EIGENSOLVERS)),
        "count")
    metrics["spectra.density_checks"] = (
        mean_of(lambda t: t["names"].get("DensityOperator", 0)), "count")
    traced_s = statistics.median(o["op_s"] for o in traced)
    plain_s = statistics.median(o["op_s"] for o in plain)
    attributed = mean_of(lambda t: sum(v[0] for v in t["layers"].values()))
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    metrics["trace.attributed_frac"] = (
        attributed / statistics.mean(o["inner_s"] for o in traced), "frac")
    extra = {"traced_ops": n, "untraced_ops": len(plain),
             "untraced_op_s": plain_s}
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    caps = wl.cap_threads()
    try:
        pkg = wl.import_package()
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(caps)
    workload = wl.WORKLOADS[args.workload]()
    scratch = wl.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload.build(args.seed, work, pkg)
        setup_times = [] if args.trace else [
            wl.time_setup(args.workload, args.seed, work)
            for _ in range(SETUP_PROBES)]
        probe = SpeedProbe()
        with (probe.installed() if workload.in_process
              else contextlib.nullcontext()):
            ops = run_ops(workload, pkg, args.seconds, bool(args.trace),
                          probe)
        scale_ops(ops, probe, workload.in_process)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(ops)
    else:
        # in-process workloads: this process; validate: its op processes
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            if workload.in_process else max(o["rss_kb"] for o in ops)
        metrics, extra = end_to_end(ops, setup_times, rss_kb)
    failed = [o for o in ops if not o["outcome"].ok]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "extra": extra,
        "ops": [{"op_s": o["op_s"], "wall_s": o["wall_s"],
                 "speed": o["speed"], "traced": o["traced"],
                 "ok": o["outcome"].ok, "detail": o["outcome"].detail}
                for o in ops],
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(ops)} ops  {len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if not args.trace:
        t = extra["op_s.tail"]
        print(f"  {'failed_frac':28s} {extra['failed_frac']:14.6g} frac "
              f"({extra['units'] - extra['ok_units']}/{extra['units']})")
        print(f"  {'op_wall_s.p50':28s} {extra['op_wall_s.p50']:14.6g} s "
              f"(slowness {extra['slowness.p50']:.4f})")
        print(f"  {'op_s.tail':28s} " + (
            f"{t['value']:14.6g} s (p{t['percentile']:.1f} of {t['count']})"
            if t else f"{'n/a':>14s}   (needs 11 ops, have {len(ops)})"))
    for o in failed:
        print(f"  failed op: {o['outcome'].detail}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
