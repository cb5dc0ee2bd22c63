"""Span tracer that wraps public ``repro`` methods at class level.

The wrappers live in the benchmark, not in ``src/``: :meth:`Tracer.install`
replaces each target method on its class before a network is built and
:meth:`Tracer.restore` puts the original function objects back, so
untraced runs execute with no wrapper at all.

Each call records one span — name, start, end, parent span and job id —
in flat in-memory arrays that are written out once, when the run ends.
A layer is named after the module that defines the method, and its self
time is its spans' duration minus the time their child spans cover.

Pool workers are forked after :meth:`install`, so they inherit the
wrappers.  A worker runs one job; when that job's ``Job.run`` span
closes, the worker spools its spans to ``spool_dir`` and the parent
merges them with :meth:`Tracer.collect_spool`.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import time
from array import array

import numpy as np

#: layer of ``Job.run``, the root span of every simulated job
JOB_LAYER = "parallel.jobs"


def _controller_targets(package: str, layer: str,
                        methods=("on_ack", "on_loss", "on_interval")):
    """(layer, class, method) for controller callbacks defined in
    ``package``'s modules — only methods a class defines itself, so an
    inherited method is wrapped once, on the class that owns it."""
    import importlib
    import pkgutil

    from repro.cca.base import Controller

    pkg = importlib.import_module(package)
    out = []
    for info in sorted(pkgutil.iter_modules(pkg.__path__),
                       key=lambda m: m.name):
        module = importlib.import_module(f"{package}.{info.name}")
        for _, cls in sorted(vars(module).items()):
            if not (inspect.isclass(cls) and issubclass(cls, Controller)
                    and cls.__module__ == module.__name__):
                continue
            for name in methods:
                if inspect.isfunction(cls.__dict__.get(name)):
                    out.append((layer, cls, name))
    return out


def default_targets():
    """Every (layer, class, method) the benchmark traces."""
    from repro.core.libra import LibraController
    from repro.env.features import FeatureSet, Normalizer, StateBuilder
    from repro.parallel import Job, ResultCache
    from repro.rl.policy import GaussianActorCritic
    from repro.scenarios.presets import Scenario
    from repro.simnet.batched import BatchedBottleneckLink, FlowPipe
    from repro.simnet.endpoint import Receiver, Sender
    from repro.simnet.link import BottleneckLink
    from repro.simnet.network import Dumbbell

    targets = [
        (JOB_LAYER, Job, "run"),
        ("scenarios", Scenario, "build"),
        ("simnet.engine", Dumbbell, "run"),
        ("simnet.link", BottleneckLink, "send"),
        ("simnet.endpoint", Sender, "process_ack"),
        ("simnet.endpoint", Receiver, "on_packet"),
        ("simnet.batched", BatchedBottleneckLink, "send_scalar"),
        ("simnet.batched", FlowPipe, "arrive"),
        ("simnet.batched", FlowPipe, "deliver"),
        ("core.libra", LibraController, "on_ack"),
        ("core.libra", LibraController, "on_loss"),
        ("core.libra", LibraController, "on_interval"),
        ("rl", GaussianActorCritic, "act"),
        ("env.features", StateBuilder, "push"),
        ("env.features", StateBuilder, "state"),
        ("env.features", Normalizer, "observe"),
        ("env.features", FeatureSet, "extract"),
        ("parallel.cache", ResultCache, "get"),
        ("parallel.cache", ResultCache, "put"),
    ]
    targets += _controller_targets("repro.cca", "cca")
    targets += _controller_targets("repro.learning", "learning")
    return targets


class Tracer:
    """Class-level method wrapper recording nested spans."""

    def __init__(self, targets=None, spool_dir: str | None = None):
        self.targets = default_targets() if targets is None else targets
        self.spool_dir = spool_dir
        #: span name -> layer; span names are ``Class.method``
        self.names: list[str] = []
        self.layers: list[str] = []
        for layer, cls, method in self.targets:
            self.names.append(f"{cls.__qualname__}.{method}")
            self.layers.append(layer)
        #: id(job) -> job index, set by the caller before a pass
        self.job_ids: dict[int, int] = {}
        self._saved: list = []
        self._pid = os.getpid()
        self._base = 0
        self.clear()

    # -- recording -------------------------------------------------------

    def clear(self) -> None:
        self.r_name = array("i")
        self.r_parent = array("i")
        self.r_job = array("i")
        self.r_start = array("d")
        self.r_end = array("d")
        self._stack: list[int] = []
        self.job = -1

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for index, (layer, cls, method) in enumerate(self.targets):
            original = cls.__dict__[method]
            job_arg = {"Job.run": 0, "ResultCache.get": 1,
                       "ResultCache.put": 1}.get(self.names[index])
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(index, original, job_arg,
                                            root=layer == JOB_LAYER))

    def restore(self) -> None:
        """Put every original function object back on its class."""
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _wrap(self, name_id: int, fn, job_arg: int | None, root: bool):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.r_name)
            if root and not stack and os.getpid() != tracer._pid:
                tracer._base = idx  # first span in a forked worker
            saved_job = tracer.job
            if job_arg is not None:
                tracer.job = tracer.job_ids.get(id(args[job_arg]), -1)
            tracer.r_name.append(name_id)
            tracer.r_parent.append(stack[-1] if stack else -1)
            tracer.r_job.append(tracer.job)
            tracer.r_end.append(0.0)
            stack.append(idx)
            tracer.r_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.r_end[idx] = perf()
                stack.pop()
                tracer.job = saved_job
                if root and not stack and os.getpid() != tracer._pid:
                    tracer._spool(idx)

        return wrapper

    def _spool(self, first: int) -> None:
        """Write a forked worker's spans (from ``first`` on) for the parent."""
        if self.spool_dir is None:
            return
        base = self._base
        parent = np.asarray(self.r_parent[base:], dtype=np.int64)
        parent = np.where(parent >= base, parent - base, -1)
        doc = {"name": np.asarray(self.r_name[base:], dtype=np.int32),
               "parent": parent,
               "job": np.asarray(self.r_job[base:], dtype=np.int32),
               "start": np.asarray(self.r_start[base:]),
               "end": np.asarray(self.r_end[base:])}
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}-{first}.pkl")
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(doc, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(path + ".tmp", path)

    def collect_spool(self) -> int:
        """Append spooled worker spans to this tracer; returns how many."""
        if self.spool_dir is None:
            return 0
        added = 0
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-") or not entry.endswith(".pkl"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, "rb") as fh:
                doc = pickle.load(fh)
            os.remove(path)
            parent = doc["parent"]
            parent = np.where(parent >= 0, parent + len(self.r_name), -1)
            for buf, values, dtype in (
                    (self.r_name, doc["name"], np.int32),
                    (self.r_parent, parent, np.int32),
                    (self.r_job, doc["job"], np.int32),
                    (self.r_start, doc["start"], np.float64),
                    (self.r_end, doc["end"], np.float64)):
                buf.frombytes(np.ascontiguousarray(values, dtype).tobytes())
            added += len(parent)
        return added

    # -- results ---------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy arrays."""
        return {"name": np.asarray(self.r_name, dtype=np.int32),
                "parent": np.asarray(self.r_parent, dtype=np.int64),
                "job": np.asarray(self.r_job, dtype=np.int32),
                "start": np.asarray(self.r_start),
                "end": np.asarray(self.r_end)}

    def save(self, path: str) -> None:
        """Write the spans and the name/layer tables as one ``.npz``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 layers=np.asarray(self.layers), **self.spans())

    def summary(self) -> dict:
        """Per span name: ``{"calls", "incl_s", "self_s", "layer"}``."""
        spans = self.spans()
        self_s = self_times(spans["start"], spans["end"], spans["parent"])
        dur = spans["end"] - spans["start"]
        names = spans["name"]
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        incl = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_s, minlength=n)
        return {self.names[i]: {"calls": int(calls[i]),
                                "incl_s": float(incl[i]),
                                "self_s": float(own[i]),
                                "layer": self.layers[i]}
                for i in range(n)}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    siblings are merged first, so no instant is subtracted twice.
    Properly nested single-threaded spans never overlap; the merge is
    the general case.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if not len(kids):
        return out
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.minimum(end[kids], end[par])
    order = np.lexsort((lo, par))
    kids, par, lo, hi = kids[order], par[order], lo[order], hi[order]
    overlap = (par[1:] == par[:-1]) & (lo[1:] < hi[:-1])
    if not overlap.any():
        np.subtract.at(out, par, np.maximum(hi - lo, 0.0))
        return out
    covered: dict[int, list] = {}
    for p, a, b in zip(par.tolist(), lo.tolist(), hi.tolist()):
        runs = covered.setdefault(p, [])
        if runs and a < runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        elif b > a:
            runs.append([a, b])
    for p, runs in covered.items():
        out[p] -= sum(b - a for a, b in runs)
    return out
