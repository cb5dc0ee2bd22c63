"""Correctness checks: committed fingerprints and the determinism guard.

A job's output is reduced to ``repro.sanitize.diff.metric_fingerprint``
(run-semantics metrics only; engine-invariant by the differential
oracle's guarantee).  ``perfbench/expected/<workload>.json`` holds the
fingerprints of every job at the default seed and at one held-out seed.
A run at a seed with no committed fingerprints checks each pass against
the run's first pass instead.

A deliberate change to results is a new benchmark change; it does not
mean editing these files.
"""

from __future__ import annotations

import json
import math
import os

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")
#: the seed the committed fingerprints were made at, and a held-out one
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


class DeterminismError(RuntimeError):
    """Two passes of one job set at one seed did different work."""


def diff_fields(expected: dict, actual: dict) -> list[str]:
    """Names of the fingerprint fields that differ (NaN equals NaN)."""
    out = []
    for name in sorted(set(expected) | set(actual)):
        a, b = expected.get(name), actual.get(name)
        if a is None or b is None:
            out.append(name)
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            out.append(name)
    return out


def work_counts(result) -> tuple[int, int]:
    """(data packets sent, events fired) — the determinism-guard key."""
    return (sum(f.sent_packets for f in result.flows),
            int(result.events_processed))


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: str, seed: int) -> dict | None:
    """``{label: fingerprint}`` committed for ``seed``, or ``None``."""
    path = expected_path(workload)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    return doc["seeds"].get(str(seed))


def write_expected(workload: str, by_seed: dict) -> str:
    """Write ``{seed: {label: fingerprint}}`` for ``workload``."""
    path = expected_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"workload": workload,
           "seeds": {str(seed): fps for seed, fps in sorted(by_seed.items())}}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def check_work(reference: list, counts: list, labels: list) -> None:
    """Raise :class:`DeterminismError` unless ``counts`` repeat ``reference``."""
    for label, want, got in zip(labels, reference, counts):
        if want is not None and got is not None and want != got:
            raise DeterminismError(
                f"{label}: work counts (packets, events) {got} differ from "
                f"{want} at the same seed; refusing to report numbers")
