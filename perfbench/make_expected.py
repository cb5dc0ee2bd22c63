"""Write the committed fingerprints: ``perfbench/expected/<workload>.json``.

Runs every workload's jobs once, serially, at the default seed and at
the held-out seed.  Only a change that deliberately alters results (a
benchmark change of its own) reruns this.

Usage: ``python3 perfbench/make_expected.py [workload ...]``
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.sanitize.diff import metric_fingerprint

    from perfbench import check
    from perfbench.workloads import WORKLOADS

    for name in sys.argv[1:] or sorted(WORKLOADS):
        by_seed = {}
        for seed in (check.DEFAULT_SEED, check.HELD_OUT_SEED):
            by_seed[seed] = {label: metric_fingerprint(job.run())
                             for label, job in WORKLOADS[name].jobs(seed)}
        print(check.write_expected(name, by_seed))


if __name__ == "__main__":
    main()
