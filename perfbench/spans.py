"""In-memory span recorder and the wrappers the traced run installs.

A span is (name, start, end, parent span, request id, attributes);
times are ``time.perf_counter`` seconds.  Spans nest per thread.  They
stay in memory and are written out once, when the run ends.  Self time
is a span's duration minus the part of it that its child spans cover.

Untraced runs use a disabled recorder, whose ``span`` does nothing, and
install no wrappers.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time


class Recorder:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = {"id": len(self.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "request_id": self.request_id, "attrs": attrs,
                    "start": 0.0, "end": 0.0}
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def total(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.named(name))

    def with_self_time(self) -> list[dict]:
        """Spans with ``self_s``: duration minus the union of children."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = []
        for span in self.spans:
            covered, reach = 0.0, span["start"]
            for child in sorted(children.get(span["id"], []),
                                key=lambda c: c["start"]):
                lo, hi = max(child["start"], reach), min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append({**span, "self_s": span["end"] - span["start"] - covered})
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": self.with_self_time()}, handle)


def _task_key(task):
    """(instance label, seed) of an engine task, as the service builds it."""
    spec = getattr(task, "spec", None)
    return None if spec is None else [spec.label, getattr(task, "seed", None)]


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap the program's layer entry points with spans, then restore them.

    Covers the calls the benchmark does not make itself: pool fan-out
    (pipeline waves and service groups) and request fingerprinting.
    """
    from repro.engine.wavefront import WavefrontPool
    from repro.service.queue import SolveRequest

    map_outcomes = WavefrontPool.map_outcomes
    fingerprint = SolveRequest.fingerprint

    def traced_map_outcomes(self, fn, tasks, *args, **kwargs):
        tasks = list(tasks)
        keys = [key for key in map(_task_key, tasks) if key is not None]
        with recorder.span("engine.pool_map", tasks=len(tasks), keys=keys):
            return map_outcomes(self, fn, tasks, *args, **kwargs)

    def traced_fingerprint(self):
        with recorder.span("service.fingerprint"):
            return fingerprint(self)

    WavefrontPool.map_outcomes = traced_map_outcomes
    SolveRequest.fingerprint = traced_fingerprint
    try:
        yield
    finally:
        WavefrontPool.map_outcomes = map_outcomes
        SolveRequest.fingerprint = fingerprint
