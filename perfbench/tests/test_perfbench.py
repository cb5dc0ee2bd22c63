"""Self-tests of the benchmark's own code.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.parallel import canonical_spec

from perfbench import calibrate, check, runner
from perfbench.tracer import Tracer, default_targets, self_times
from perfbench.workloads import WORKLOADS

#: simulated seconds per job in these tests: enough for real traffic
SHORT = 0.3


def _spec(labeled):
    return json.dumps([[label, canonical_spec(job)] for label, job in labeled],
                      sort_keys=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_lists_repeat_per_seed_and_differ_across_seeds(name):
    workload = WORKLOADS[name]
    first = workload.jobs(1)
    assert _spec(first) == _spec(workload.jobs(1))
    other = workload.jobs(2)
    assert [label for label, _ in first] == [label for label, _ in other]
    assert _spec(first) != _spec(other)
    assert len({label for label, _ in first}) == len(first)


def test_self_times_on_synthetic_span_tree():
    # root [0,10] > a [1,4] > grandchild [2,3]; root > b [5,9], c [8,9.5]
    # (overlapping siblings), and d [9.8,11] sticking out of root.
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.8]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = self_times(start, end, parent)
    # root loses a (3), the union of b and c (4.5) and d's inside part (0.2)
    assert got == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])
    # properly nested spans take the vectorized path; same arithmetic
    nested = self_times([0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0],
                        [-1, 0, 1, 0])
    assert nested == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_scale_uses_a_low_quantile_of_the_slowdowns():
    assert calibrate.scale([1.0]) == 1.0
    # one lucky fast measurement does not set the scale
    assert calibrate.scale([0.25] + [2.0] * 11 + [5.0] * 8) == 0.5
    assert calibrate.scale([1.0, 1.0, 4.0, 5.0, 5.0], 0.5) == 0.25
    assert calibrate.kernel() == calibrate.kernel() == 20000
    assert calibrate.slowdown() > 0.0


def test_diff_fields_names_fields_and_treats_nan_as_equal():
    a = {"x": 1.0, "fin": math.nan, "y": 2.0}
    assert check.diff_fields(a, dict(a)) == []
    assert check.diff_fields(a, {**a, "y": 2.5}) == ["y"]
    assert check.diff_fields(a, {"x": 1.0, "fin": math.nan}) == ["y"]


def _small(name, n=2, seed=1):
    return WORKLOADS[name], WORKLOADS[name].jobs(seed, SHORT)[:n]


def test_tampered_expected_fingerprint_counts_as_failure(tmp_path):
    workload, labeled = _small("learned-ccas")
    clean = runner.run_pass(workload, labeled, str(tmp_path), None, 1)
    assert clean.failed == set()
    reference = [dict(fp) for fp in clean.fingerprints]
    reference[1]["flow0.delivered_bytes"] += 1500.0
    tampered = runner.run_pass(workload, labeled, str(tmp_path), reference, 1)
    assert tampered.failed == {1}
    assert tampered.mismatches == [(labeled[1][0], ["flow0.delivered_bytes"])]


def test_committed_fingerprints_cover_every_job():
    for name, workload in WORKLOADS.items():
        for seed in (check.DEFAULT_SEED, check.HELD_OUT_SEED):
            expected = check.load_expected(name, seed)
            assert expected is not None, (name, seed)
            assert set(expected) == {label for label, _ in workload.jobs(seed)}


def test_determinism_guard_refuses_changed_work():
    check.check_work([(10, 40)], [(10, 40)], ["job"])
    with pytest.raises(check.DeterminismError, match="job"):
        check.check_work([(10, 40)], [(10, 41)], ["job"])


def _originals():
    return {(cls, method): cls.__dict__[method]
            for _, cls, method in default_targets()}


def test_wrappers_are_restored_after_a_traced_pass(tmp_path):
    before = _originals()
    workload, labeled = _small("learned-ccas")
    tracer = Tracer()
    p = runner.run_pass(workload, labeled, str(tmp_path), None, 1, tracer)
    assert not tracer.installed
    after = _originals()
    assert all(after[key] is fn for key, fn in before.items())
    summary = tracer.summary()
    assert summary["Dumbbell.run"]["calls"] == len(labeled)
    assert summary["Job.run"]["calls"] == len(labeled)
    assert p.failed == set()


def test_wrappers_are_restored_when_a_pass_raises(tmp_path, monkeypatch):
    before = _originals()

    def boom(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner, "_cold", boom)
    workload, labeled = _small("learned-ccas")
    with pytest.raises(RuntimeError, match="boom"):
        runner.run_pass(workload, labeled, str(tmp_path), None, 1, Tracer())
    assert all(_originals()[key] is fn for key, fn in before.items())
    assert os.listdir(tmp_path) == []


def test_pool_time_is_per_job_minima_times_the_median_packing_ratio():
    def fake(wall, elapsed):
        return runner.Pass(wall_s=wall, warm_walls=[], kernels=[],
                           job_results=None, elapsed=elapsed, failed=set(),
                           mismatches=[], fingerprints=[], work=[])

    passes = [fake(3.0, [2.0, 4.0]), fake(2.0, [1.0, 3.0]),
              fake(4.0, [3.0, 3.0])]
    run = runner.Run(workload="fault-grid", seed=1, workers=2,
                     labels=["a", "b"], engines=[], untraced=passes)
    # per-job minima 1 + 3; wall / busy 0.5, 0.5, 0.67 -> median 0.5
    assert run.wall_s(passes) == pytest.approx(2.0)
    run.workers = 1
    assert run.wall_s(passes) == pytest.approx(4.0)


def test_fault_grid_removes_its_cache_directory(tmp_path):
    run = runner.run_workload("fault-grid", 1, 0.1, True, str(tmp_path),
                              min_passes=1, duration=SHORT, probes=0,
                              warm_repeats=1)
    assert run.failed == 0
    assert run.attempted == 2 * len(run.labels)
    leftovers = [e for e in os.listdir(tmp_path)
                 if e.startswith(".perfbench-work-")]
    assert leftovers == []
    # spans from the forked workers made it back, tagged with job ids
    spans = np.load(run.spans_path)
    names = list(spans["names"])
    engine = spans["name"] == names.index("Dumbbell.run")
    assert engine.sum() == len(run.labels)
    assert sorted(spans["job"][engine]) == list(range(len(run.labels)))
    layers = run.per_layer()
    assert layers["parallel.cache.hit_ratio"][0] == 0.5
    assert layers["parallel.pool.failed"][0] == 0
