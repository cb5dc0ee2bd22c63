"""Timed and traced passes over one workload's job set.

One *pass* runs the whole job set once, cold (every job simulates), then
serves it again from a warm :class:`~repro.parallel.ResultCache` (every
job a hit).  A run repeats passes for the requested number of seconds
and reports its fastest repetitions.  Untraced passes run with no
wrapper installed; with tracing on, traced passes alternate with
untraced ones, and the difference in their wall times is the tracing
overhead.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from repro.parallel import (FailedRun, JobFailedError, JobResult, ResultCache,
                            code_salt, execute, run_jobs)
from repro.sanitize.diff import metric_fingerprint

from . import check
from .calibrate import scale, slowdown
from .tracer import Tracer
from .workloads import WORKLOADS, Workload

#: per-attempt timeout of a pool job (seconds); a job timing out twice
#: fails the pass
JOB_TIMEOUT = 120.0
#: warm passes per untraced iteration (a warm pass is short)
WARM_REPEATS = 8
#: fresh processes timed for ``setup_s``
SETUP_PROBES = 7
#: short simulated duration of the untimed warm-up pass
WARMUP_DURATION = 0.3
#: environment variables that would change what a job does or where it
#: writes (forced sanitizers, failure bundles, the default cache)
SCRUBBED_ENV = ("REPRO_SANITIZE", "REPRO_FAILURES_DIR", "REPRO_CACHE_DIR")


@dataclass
class Pass:
    """One cold + warm execution of a job set.

    Times are as timed.  ``kernels`` are the host slowdowns measured
    between the pass's in-process timings: the jobs of a serial cold
    pass and the warm passes (see :mod:`perfbench.calibrate`).
    """

    wall_s: float
    warm_walls: list
    kernels: list
    #: cold-pass JobResults in job order; dropped once the pass is
    #: checked, so memory (and peak RSS) does not grow with pass count
    job_results: list | None
    elapsed: list              # per job, seconds (see ``_cold``)
    failed: set                # indices of failed or mismatching jobs
    mismatches: list           # (label, fields) of fingerprint mismatches
    fingerprints: list         # per job, None when the job failed
    work: list                 # per job (packets, events), None if failed
    cache_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _cold(workload: Workload, jobs: list, cache: ResultCache) -> tuple:
    """Run every job; returns (wall_s, per-job seconds, [JobResult],
    host slowdowns).

    Serial jobs are timed one by one here, with a kernel measurement
    between each two; a pool job's seconds are its worker-side
    ``JobResult.elapsed``.
    """
    if workload.workers == 1:
        results, times, kernels = [], [], [slowdown()]
        for job in jobs:
            gc.collect()  # every job starts from the same collector state
            t0 = time.perf_counter()
            results.append(execute(job, capture_errors=True))
            times.append(time.perf_counter() - t0)
            kernels.append(slowdown())
        for job, jr in zip(jobs, results):
            if jr.failure is None:
                cache.put(job, jr)
        return sum(times), times, results, kernels
    t0 = time.perf_counter()
    try:
        results = run_jobs(jobs, workers=workload.workers, cache=cache,
                           timeout=JOB_TIMEOUT, on_error="collect")
    except JobFailedError as exc:  # crashed or timed out past its retries
        failure = FailedRun("pool", "pool", 0, repr(exc))
        results = [JobResult(None, failure=failure) for _ in jobs]
    wall = time.perf_counter() - t0
    return wall, [jr.elapsed for jr in results], results, []


def run_pass(workload: Workload, labeled: list, workdir: str,
             reference: list | None, warm_repeats: int = WARM_REPEATS,
             tracer: Tracer | None = None) -> Pass:
    """One cold + warm pass; checks outputs against ``reference``.

    ``reference`` is one fingerprint per job (``None`` entries are not
    checked).  The pass's cache directory lives in ``workdir`` and is
    removed before returning.
    """
    labels = [label for label, _ in labeled]
    jobs = [job for _, job in labeled]
    cache_root = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    try:
        cache = ResultCache(root=cache_root, salt=code_salt())
        if tracer is not None:
            tracer.clear()
            tracer.job_ids = {id(job): i for i, job in enumerate(jobs)}
            tracer.install()
        try:
            gc.collect()
            wall, times, results, kernels = _cold(workload, jobs, cache)
            # A warm pass runs in this process (every job is a hit), on
            # every workload, so a kernel measurement precedes each one.
            warm_walls, warm = [], None
            for _ in range(warm_repeats):
                kernels.append(slowdown())
                gc.collect()
                t0 = time.perf_counter()
                warm = run_jobs(jobs, workers=workload.workers, cache=cache,
                                timeout=JOB_TIMEOUT, on_error="collect")
                warm_walls.append(time.perf_counter() - t0)
            kernels.append(slowdown())
        finally:
            if tracer is not None:
                tracer.restore()
                tracer.collect_spool()
        out = Pass(wall_s=wall, warm_walls=warm_walls, kernels=kernels,
                   job_results=results, elapsed=times, failed=set(),
                   mismatches=[], fingerprints=[], work=[],
                   cache_bytes=_dir_bytes(cache_root),
                   cache_hits=cache.hits, cache_misses=cache.misses)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    for i, (label, jr) in enumerate(zip(labels, results)):
        if jr.failure is not None or jr.result is None:
            out.failed.add(i)
            out.fingerprints.append(None)
            out.work.append(None)
            error = jr.failure.error if jr.failure is not None else "no result"
            out.mismatches.append((label, [f"raised {error}"]))
            continue
        fp = metric_fingerprint(jr.result)
        out.fingerprints.append(fp)
        out.work.append(check.work_counts(jr.result))
        fields = []
        if reference is not None and reference[i] is not None:
            fields = check.diff_fields(reference[i], fp)
        if warm is not None:
            hit = warm[i]
            if hit.result is None or not hit.cached:
                fields.append("warm pass: not served from the cache")
            else:
                fields += [f"warm:{name}" for name in
                           check.diff_fields(fp, metric_fingerprint(hit.result))]
        if fields:
            out.failed.add(i)
            out.mismatches.append((label, fields))
    return out


def layer_totals(summary: dict) -> dict:
    """``{layer: (calls, self_s)}`` from a :meth:`Tracer.summary`."""
    out: dict[str, tuple] = {}
    for row in summary.values():
        calls, self_s = out.get(row["layer"], (0, 0.0))
        out[row["layer"]] = (calls + row["calls"], self_s + row["self_s"])
    return out


def layer_metrics(workload: Workload, p: Pass, summary: dict) -> dict:
    """Per-layer numbers of one traced pass (name -> (value, unit))."""
    totals = layer_totals(summary)
    layer_calls = {layer: calls for layer, (calls, _) in totals.items()}
    layer_self = {layer: self_s for layer, (_, self_s) in totals.items()}

    def per_call_us(name: str) -> float:
        row = summary.get(name)
        return row["incl_s"] / row["calls"] * 1e6 if row and row["calls"] \
            else 0.0

    runs = [jr.result for jr in p.job_results if jr.result is not None]
    pkts = sum(check.work_counts(r)[0] for r in runs)
    events = sum(r.events_processed for r in runs)
    batched = [r for r in runs if r.engine_used == "batched"]
    busy = sum(jr.elapsed for jr in p.job_results)
    sizes = [len(pickle.dumps(jr, protocol=pickle.HIGHEST_PROTOCOL))
             for jr in p.job_results]
    cca_acks = sum(row["calls"] for name, row in summary.items()
                   if row["layer"] == "cca" and name.endswith(".on_ack"))
    gets = p.cache_hits + p.cache_misses
    return {
        "simnet.engine.events": (events, "count"),
        "simnet.engine.events_per_pkt": (events / pkts if pkts else 0.0,
                                         "ratio"),
        "simnet.engine.self_s": (layer_self["simnet.engine"], "s"),
        "simnet.link.send_calls": (summary["BottleneckLink.send"]["calls"],
                                   "count"),
        "simnet.link.self_s": (layer_self["simnet.link"], "s"),
        "simnet.link.drops": (sum(r.link_dropped_packets + r.link_random_drops
                                  for r in runs), "count"),
        "simnet.endpoint.calls": (layer_calls["simnet.endpoint"], "count"),
        "simnet.endpoint.self_s": (layer_self["simnet.endpoint"], "s"),
        "simnet.batched.calls": (layer_calls["simnet.batched"], "count"),
        "simnet.batched.self_s": (layer_self["simnet.batched"], "s"),
        "simnet.batched.job_share": (len(batched) / len(runs) if runs else 0.0,
                                     "ratio"),
        "simnet.batched.pkt_share": (
            sum(check.work_counts(r)[0] for r in batched) / pkts
            if pkts else 0.0, "ratio"),
        "cca.on_ack_calls": (cca_acks, "count"),
        "cca.self_s": (layer_self["cca"], "s"),
        "cca.bbr.on_ack_us": (per_call_us("Bbr.on_ack"), "us"),
        "cca.cubic.on_ack_us": (per_call_us("Cubic.on_ack"), "us"),
        "core.libra.calls": (layer_calls["core.libra"], "count"),
        "core.libra.self_s": (layer_self["core.libra"], "s"),
        "rl.act_calls": (summary["GaussianActorCritic.act"]["calls"], "count"),
        "rl.act_us": (per_call_us("GaussianActorCritic.act"), "us"),
        "env.features.self_s": (layer_self["env.features"], "s"),
        "learning.self_s": (layer_self["learning"], "s"),
        "scenarios.build_s": (layer_self["scenarios"], "s"),
        "parallel.pool.busy_s": (busy, "s"),
        "parallel.pool.overhead_s": (workload.workers * p.wall_s - busy, "s"),
        "parallel.pool.result_bytes": (statistics.fmean(sizes), "B"),
        "parallel.pool.retries": (sum(jr.retries for jr in p.job_results),
                                  "count"),
        "parallel.pool.failed": (sum(1 for jr in p.job_results
                                     if jr.failure is not None), "count"),
        "parallel.cache.get_s": (summary["ResultCache.get"]["incl_s"], "s"),
        "parallel.cache.put_s": (summary["ResultCache.put"]["incl_s"], "s"),
        "parallel.cache.hit_ratio": (p.cache_hits / gets if gets else 0.0,
                                     "ratio"),
        "parallel.cache.bytes_written": (p.cache_bytes, "B"),
        # Job.run minus the simulation: controller construction and
        # result assembly
        "parallel.jobs.self_s": (layer_self["parallel.jobs"], "s"),
    }


def probe_setup(root: str, workload: str, seed: int,
                probes: int = SETUP_PROBES) -> list[float]:
    """``setup_s`` of ``probes`` fresh processes (see ``setup_probe.py``)."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "setup_probe.py")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    out = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, script, root, workload,
                               str(seed)], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Run:
    """Everything one benchmark invocation measured."""

    workload: str
    seed: int
    workers: int
    labels: list
    engines: list
    untraced: list
    traced: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    layer_rows: list = field(default_factory=list)
    #: setup_s of each set-up probe, as timed
    setup: list = field(default_factory=list)
    expected: bool = False
    spans_path: str = ""

    @property
    def attempted(self) -> int:
        return sum(len(p.elapsed) for p in self.untraced + self.traced)

    @property
    def failed(self) -> int:
        return sum(len(p.failed) for p in self.untraced + self.traced)

    @property
    def factor(self) -> float:
        """Turns this run's seconds into reference-host seconds."""
        return scale([k for p in self.untraced + self.traced
                      for k in p.kernels])

    def wall_s(self, passes: list) -> float:
        """Time of the job set as timed: its fastest repetition.

        Bursts of contention from other tenants only ever add time, so
        the fastest of several spread-out repetitions is the steady
        estimate; a median moves with how much of the run a burst
        covered.  A serial job set takes the sum of its jobs' times, so
        it is the sum of per-job minima: a burst then spoils one job's
        sample, not a whole pass.  A pool pass's makespan has no such
        split, but it is the jobs' busy time times the pass's
        wall / busy ratio (how the pool packs them, plus its overhead),
        and that ratio holds within a few percent while contention moves
        both; so it is the sum of per-job minima of the worker-side times
        times the median ratio of the passes.
        """
        fastest = sum(min(p.elapsed[j] for p in passes)
                      for j in range(len(self.labels)))
        if self.workers == 1:
            return fastest
        ratios = [p.wall_s / sum(p.elapsed) for p in passes
                  if sum(p.elapsed) > 0]  # a crashed pool reports no times
        if not ratios:
            return min(p.wall_s for p in passes)
        return fastest * statistics.median(ratios)

    def end_to_end(self, scaled: bool = True) -> dict:
        """name -> (value, unit) over the untraced passes, in
        reference-host seconds or (``scaled=False``) as timed."""
        factor = self.factor if scaled else 1.0
        wall = self.wall_s(self.untraced) * factor
        pkts = sum(w[0] for w in self.untraced[0].work if w is not None)
        return {
            "wall_s": (wall, "s"),
            "pkts_per_s": (pkts / wall, "packets/s"),
            "warm_wall_s": (min(w for p in self.untraced
                                for w in p.warm_walls) * factor, "s"),
            "setup_s": (statistics.median(self.setup) * factor, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    def per_layer(self) -> dict:
        """name -> (value, unit), medians over the traced passes."""
        out = {}
        for name, (_, unit) in self.layers[0].items():
            out[name] = (statistics.median(m[name][0] for m in self.layers),
                         unit)
        out["trace.overhead_ratio"] = (
            self.wall_s(self.traced) / self.wall_s(self.untraced) - 1.0,
            "ratio")
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str, min_passes: int | None = None,
                 duration: float | None = None,
                 probes: int = SETUP_PROBES,
                 warm_repeats: int = WARM_REPEATS) -> Run:
    """Measure workload ``name`` at ``seed`` for about ``seconds``.

    ``duration`` shortens every job and ``probes`` (the least number of
    set-up probes) and ``min_passes`` trim the run (self-tests).  All
    scratch files live in one directory under ``root`` that is removed
    on return.
    """
    workload = WORKLOADS[name]
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    labeled = workload.jobs(seed, duration)
    expected = check.load_expected(name, seed) if duration is None else None
    reference = [expected.get(label) for label, _ in labeled] \
        if expected is not None else None
    if min_passes is None:
        min_passes = 2 if trace else 3

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=root)
    try:
        spool = os.path.join(workdir, "spool")
        os.mkdir(spool)
        tracer = Tracer(spool_dir=spool) if trace else None
        # Untimed warm-up: lazy imports, policy loads, allocator growth.
        warm_labeled = workload.jobs(seed, WARMUP_DURATION)
        for _, job in warm_labeled:
            job.run()

        run = Run(workload=name, seed=seed, workers=workload.workers,
                  labels=[label for label, _ in labeled],
                  engines=[], untraced=[],
                  expected=expected is not None)
        work_ref = None
        t_start = time.perf_counter()
        while True:
            # One set-up probe per pass spreads them over the run, so a
            # burst of machine noise skews one probe, not all of them.
            if len(run.setup) < probes:
                run.setup += probe_setup(root, name, seed, 1)
            p = run_pass(workload, labeled, workdir, reference, warm_repeats)
            run.untraced.append(p)
            if reference is None:  # later passes must repeat the first
                reference = p.fingerprints
            if work_ref is None:
                work_ref = p.work
                run.engines = [jr.result.engine_used if jr.result else "-"
                               for jr in p.job_results]
            check.check_work(work_ref, p.work, run.labels)
            p.job_results = p.fingerprints = None
            if tracer is not None:
                t = run_pass(workload, labeled, workdir, reference, 1, tracer)
                check.check_work(work_ref, t.work, run.labels)
                run.traced.append(t)
                summary = tracer.summary()
                run.layers.append(layer_metrics(workload, t, summary))
                run.layer_rows.append(layer_totals(summary))
                t.job_results = t.fingerprints = None
            elapsed = time.perf_counter() - t_start
            done = len(run.untraced)
            if done >= min_passes and elapsed * (done + 1) / done > seconds:
                break
        if probes > len(run.setup):
            run.setup += probe_setup(root, name, seed,
                                     probes - len(run.setup))
        run.setup = run.setup or [0.0]
        if tracer is not None:
            out_dir = os.path.join(root, ".perfbench-out")
            run.spans_path = os.path.join(out_dir, f"{name}-seed{seed}.npz")
            tracer.save(run.spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run
