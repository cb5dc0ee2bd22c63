"""Seeded job sets of the benchmark's three workloads.

Every workload is a closed-loop batch: the next job starts only when
the previous one finished (serial) or a worker slot freed up (pool).
The seed is the benchmark's argument; the program under test receives
only the generated :class:`~repro.parallel.Job` list.  Jobs keep each
scenario's default ``engine``: the benchmark never forces one, so a
change of default shows up as a measured change.

Simulated durations are shorter than the paper figures' so that one job
set takes a few seconds of host time and a run can repeat it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.parallel import FlowSpec, Job, single_flow_job
from repro.scale.churn import churn_job, churn_preset
from repro.scenarios.presets import (LTE, WIRED, fairness_scenario,
                                     scale_scenario, stress_scenario)
from repro.simnet.faults import FAULT_PROFILES

#: Fig. 13 roster: each CCA shares the fairness link with one CUBIC flow
LEARNED_PAIRS = ("cubic", "bbr", "copa", "aurora", "proteus", "orca",
                 "c-libra", "b-libra")
#: single flows on the seeded LTE driving trace
LEARNED_LTE = ("c-libra", "b-libra", "orca", "aurora")
#: short enough that a run repeats the job set about ten times; at 3 s
#: the BBR pair alone took about 2 s of host time, and the sum of
#: per-job minima spread by a fifth of its median between runs
LEARNED_DURATION = 1.5

FAULT_CCAS = ("cubic", "c-libra")
FAULT_PROFILE_NAMES = ("clean",) + tuple(sorted(FAULT_PROFILES))
#: long enough that every canned fault window (the last delay spike
#: ends at 9.0 s) lies inside the run
FAULT_DURATION = 9.5
FAULT_WORKERS = 2

FANIN_FLOWS = 64
FANIN_STAGGER_S = 1.0
FANIN_DURATION = 8.0
#: RNG stream tag of the fan-in start times (kept apart from every
#: stream the simulator draws)
FANIN_STREAM_TAG = 0xFA41


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a seeded job-set generator plus its shape."""

    name: str
    why: str
    #: 1 = serial, in-process ``Job.run`` calls; >1 = ``run_jobs`` pool
    workers: int
    make: Callable[[int], list]

    def jobs(self, seed: int, duration: float | None = None) -> list:
        """``[(label, Job), ...]`` for ``seed``; ``duration`` shortens
        every job (warm-up passes and self-tests), ``None`` keeps the
        workload's own durations."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        out = self.make(seed)
        if duration is not None:
            out = [(label, replace(job, duration=duration))
                   for label, job in out]
        return out


def learned_ccas(seed: int) -> list:
    fair = fairness_scenario()
    jobs = [(f"fairness:{cca}+cubic",
             Job(scenario=fair,
                 flows=(FlowSpec.make(cca, seed=seed),
                        FlowSpec.make("cubic", seed=seed + 100)),
                 seed=seed, duration=LEARNED_DURATION))
            for cca in LEARNED_PAIRS]
    lte = LTE["lte-driving"]
    jobs += [(f"lte-driving:{cca}",
              single_flow_job(cca, lte, seed=seed, duration=LEARNED_DURATION))
             for cca in LEARNED_LTE]
    return jobs


def fault_grid(seed: int) -> list:
    jobs = []
    for cca in FAULT_CCAS:
        for profile in FAULT_PROFILE_NAMES:
            jobs.append((f"stress-{profile}:{cca}",
                         single_flow_job(cca, stress_scenario(profile),
                                         seed=seed, duration=FAULT_DURATION)))
        codel = stress_scenario("clean").with_(aqm="codel")
        jobs.append((f"stress-clean+codel:{cca}",
                     single_flow_job(cca, codel, seed=seed,
                                     duration=FAULT_DURATION)))
    return jobs


def fanin_churn(seed: int) -> list:
    rng = np.random.default_rng((FANIN_STREAM_TAG, seed))
    starts = np.sort(rng.uniform(0.0, FANIN_STAGGER_S, FANIN_FLOWS))
    fanin = Job(scenario=WIRED["wired-96"],
                flows=tuple(FlowSpec.make("cubic", seed=i, start=float(t))
                            for i, t in enumerate(starts)),
                seed=seed, duration=FANIN_DURATION)
    churn = churn_job(churn_preset("churn-512"), "cubic", scale_scenario(),
                      seed=seed, duration=FANIN_DURATION)
    return [(f"wired-96:fanin-{FANIN_FLOWS}xcubic", fanin),
            ("scale-96:churn-512xcubic", churn)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("learned-ccas",
             "Fig. 13 pairs vs CUBIC at 100 ms plus LTE single flows: the "
             "classic-CCA, Libra-core, RL and learning layers do most of "
             "the work", 1, learned_ccas),
    Workload("fault-grid",
             "cubic/c-libra x 7 fault profiles + CoDel through a 2-worker "
             "pool, cold then warm result cache: pool, cache and faults",
             FAULT_WORKERS, fault_grid),
    Workload("fanin-churn",
             "64 long CUBIC flows (reference engine) and 512 churning "
             "finite flows (batched): the per-packet datapath, no learned "
             "controller", 1, fanin_churn),
)}
