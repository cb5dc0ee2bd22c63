"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload learned-ccas --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics (host time, untraced);
``--trace 1`` also runs traced passes and prints the per-layer table.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 measured (``correct`` says whether every output checked
out), 2 the checkout holds no ``src/repro`` to measure, 3 the work
counts did not repeat at the seed (no numbers are reported).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: end-to-end metrics in output order; ``fail_rate`` is printed, and
#: carried in the JSON's ``attempted``/``failed``
END_TO_END = ("wall_s", "pkts_per_s", "warm_wall_s", "setup_s",
              "peak_rss_mb")
#: layer rows of the per-layer table, in datapath order
LAYERS = ("simnet.engine", "simnet.link", "simnet.endpoint", "simnet.batched",
          "cca", "core.libra", "rl", "env.features", "learning", "scenarios",
          "parallel.jobs", "parallel.cache")


def _import_repro() -> str | None:
    """Put this checkout's ``src`` first on the path; an error or None."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return (f"no src/repro under {ROOT}; run from the root of a full "
                f"checkout")
    sys.path[:0] = [src, ROOT]
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, src]) != src:
        return f"imported repro from {where}, not from {src}"
    return None


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):d}"
    return f"{value:.6g}"


def print_end_to_end(run, metrics: dict) -> None:
    timed = run.end_to_end(scaled=False)
    passes = len(run.untraced)
    warm = sum(len(p.warm_walls) for p in run.untraced)
    stats = {"wall_s": f"per-job min of {passes} passes" +
             (" x median wall/busy" if run.workers > 1 else ""),
             "pkts_per_s": "packets / wall_s",
             "warm_wall_s": f"min of {warm} warm passes",
             "setup_s": f"median of {len(run.setup)} processes",
             "peak_rss_mb": "peak over the run"}
    kernels = sum(len(p.kernels) for p in run.untraced + run.traced)
    print(f"value = as timed x {run.factor:.4f}: reference-host seconds "
          f"(perfbench/calibrate.py, {kernels} kernel runs)")
    print(f"{'metric':<14}{'value':>14}{'as timed':>14}  {'unit':<10}"
          f"statistic")
    for name in END_TO_END:
        value, unit = metrics[name]
        print(f"{name:<14}{_fmt(value):>14}{_fmt(timed[name][0]):>14}  "
              f"{unit:<10}{stats[name]}")
    rate = run.failed / run.attempted
    print(f"{'fail_rate':<14}{_fmt(rate):>14}{'':>14}  {'ratio':<10}"
          f"{run.failed} of {run.attempted} jobs attempted")


def print_per_layer(run, layers: dict) -> None:
    workers = run.workers
    traced_wall = run.wall_s(run.traced)
    untraced_wall = run.wall_s(run.untraced)
    # self times are medians over traced passes, so their base is too
    pass_wall = statistics.median(p.wall_s for p in run.traced)
    base = workers * pass_wall
    print(f"per-layer, median of {len(run.traced)} traced pass(es); share "
          f"base = {workers} worker(s) x median traced pass {pass_wall:.4f} s")
    print(f"{'layer':<16}{'calls':>11}{'self_s':>11}{'share':>8}")
    for layer in LAYERS:
        calls = statistics.median(r.get(layer, (0, 0.0))[0]
                                  for r in run.layer_rows)
        self_s = statistics.median(r.get(layer, (0, 0.0))[1]
                                   for r in run.layer_rows)
        print(f"{layer:<16}{_fmt(calls):>11}{self_s:>11.4f}"
              f"{self_s / base:>8.1%}")
    t = run.traced[-1]
    jobs = len(run.labels)
    pkts = sum(w[0] for w in t.work if w is not None)
    v = {name: value for name, (value, _) in layers.items()}
    print("ratios (value = numerator / base):")
    rows = [
        ("simnet.engine.events_per_pkt", f"{_fmt(v['simnet.engine.events'])} "
         f"events / {pkts} data packets"),
        ("cca.bbr.on_ack_us", "Bbr.on_ack time / calls"),
        ("cca.cubic.on_ack_us", "Cubic.on_ack time / calls"),
        ("rl.act_us", f"act time / {_fmt(v['rl.act_calls'])} calls"),
        ("simnet.batched.job_share", f"batched jobs / {jobs} jobs"),
        ("simnet.batched.pkt_share", f"batched packets / {pkts} packets"),
        ("parallel.pool.overhead_s", f"{workers} x wall_s - busy_s "
         f"{v['parallel.pool.busy_s']:.4f} s"),
        ("parallel.pool.result_bytes", f"pickled bytes / {jobs} results"),
        ("parallel.cache.hit_ratio", f"hits / {t.cache_hits + t.cache_misses}"
         f" gets"),
        ("trace.overhead_ratio", f"traced wall_s {traced_wall:.4f} s / "
         f"untraced {untraced_wall:.4f} s - 1"),
    ]
    for name, basis in rows:
        print(f"  {name:<30}{_fmt(v[name]):>14}  {basis}")
    print(f"spans written to {os.path.relpath(run.spans_path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # SIGTERM unwinds like an exception, so the pool reaps its workers
    # and the scratch directory is removed; forked workers just exit.
    main_pid = os.getpid()

    def on_term(signum, _frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    error = _import_repro()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench.check import DeterminismError
    from perfbench.runner import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    try:
        run = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT)
    except DeterminismError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"workload {workload.name} seed={run.seed}: {workload.why}")
    print(f"closed-loop batch, {len(run.labels)} jobs, "
          f"{workload.workers} worker(s); fingerprints: "
          f"{'committed' if run.expected else 'first pass (none committed)'}")
    for label, engine in zip(run.labels, run.engines):
        print(f"  job {label:<34} engine={engine}")
    seen = set()
    for p in run.untraced + run.traced:
        for label, fields in p.mismatches:
            key = (label, tuple(fields))
            if key not in seen:
                seen.add(key)
                shown = ", ".join(fields[:8])
                more = f" (+{len(fields) - 8} more)" if len(fields) > 8 else ""
                print(f"MISMATCH {label}: {shown}{more}")
    e2e = run.end_to_end()
    print_end_to_end(run, e2e)
    if args.trace:
        layers = run.per_layer()
        print_per_layer(run, layers)
        chosen = layers
    else:
        chosen = e2e
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
