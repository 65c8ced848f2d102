"""Outside-in tracing of the satqkd layers.

The tracer replaces public names in the program's modules (for example
``satqkd.optimizer.skl_real_arrays``, the name the optimizer calls) with
timing wrappers, so the program itself is never edited. Spans are kept in
memory while a job runs and written out once, when the benchmark ends.

Each span is the list ``[name, start_ns, end_ns, parent, job, counts]``:
``parent`` is the index of the enclosing span (or None), ``job`` the id of
the job that caused it, and ``counts`` an optional tuple of work counts
taken from the call's arguments and result.
"""
from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self.found: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        """Wrap each ``(module, attribute path, span name, count fn)``.

        A target that no longer exists is recorded in ``missing`` and its
        span name stays out of ``found``, so the metrics built on it can be
        marked absent instead of crashing the run.
        """
        self.found = set()
        self.missing = []
        for module_name, attr_path, span_name, count in targets:
            *parents, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, count))
            self.found.add(span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            record = [name, perf_counter_ns(), 0, tracer._stack[-1], tracer.job, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                tracer._stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return wrapped

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; wrapped calls record spans only inside it."""
        record = ["job", perf_counter_ns(), 0, None, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.job = job_id
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self.job = None
            self._stack.pop()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed counts.

        Self time is a span's duration minus the durations of its direct
        children; calls into one layer are sequential, so children never
        overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _job, _counts in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, _job, counts) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": []})
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child_ns[index]) * 1e-9
            if counts:
                sums = entry["counts"]
                sums.extend([0] * (len(counts) - len(sums)))
                for i, value in enumerate(counts):
                    sums[i] += value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "job", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")
