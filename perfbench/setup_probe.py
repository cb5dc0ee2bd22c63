"""Time one workload's set-up in a fresh process; print ``{"setup_s": ...}``.

Set-up runs from before ``import repro`` through building the job list,
one build of every distinct scenario, the first ``make_controller`` of
every CCA the workload uses (policy ``.npz`` loads) and ``ResultCache``
construction (the code salt).  It stops before the first job runs.

Usage: ``python3 perfbench/setup_probe.py <checkout> <workload> <seed>``
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path[:0] = [os.path.join(root, "src"), root]
    from repro.parallel import ResultCache
    from repro.registry import make_controller

    from perfbench.workloads import WORKLOADS

    jobs = [job for _, job in WORKLOADS[workload].jobs(seed)]
    scenarios = {}
    for job in jobs:
        scenarios.setdefault(repr(job.scenario), job.scenario)
    for scenario in scenarios.values():
        scenario.build(seed=seed)
    for cca in sorted({flow.cca for job in jobs for flow in job.flows}):
        make_controller(cca, seed=seed)
    ResultCache(root=os.path.join(root, ".perfbench-probe-unused"))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
