"""Outside-in tracing of sensopt's layers for the traced benchmark run.

Nothing here touches the sensopt sources. While a traced op runs, the
public functions of each layer are replaced by timing wrappers at the
place their caller looks them up: the modules import names directly
(``from .network import forward``), so ``sensopt.training.forward`` and
``sensopt.network.forward`` are separate bindings and are both patched.
The originals are put back when the op ends.

Spans live in memory as (name, start, end, parent, op) and are written
out once, when the run ends.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# (module or class path, attribute, span name, kind).  kind is "function"
# (a plain function or method), "classmethod", or "generator": one span
# per next(), because a generator's body runs between its yields.  The
# CLI's other callees are wrapped too, so that cli.self_s is only the
# CLI's own work: config, manifest, input digests and JSON writes.
PATCH_POINTS = (
    ("sensopt.training", "forward", "network.forward", "function"),
    ("sensopt.network", "forward", "network.forward", "function"),
    ("sensopt.training", "backprop", "network.backprop", "function"),
    ("sensopt.training", "adam_step", "network.adam_step", "function"),
    ("sensopt.sweep", "predict", "network.predict", "function"),
    ("sensopt.network", "encode_inputs", "data.encode_inputs", "function"),
    ("sensopt.data", "encode_inputs", "data.encode_inputs", "function"),
    ("sensopt.sweep", "criteria", "curves.criteria", "function"),
    ("sensopt.curves.Curve", "from_samples", "curves.from_samples", "classmethod"),
    ("sensopt.sweep", "predict_curves", "sweep.predict_curves", "generator"),
    ("sensopt.cli", "predict_curves", "sweep.predict_curves", "generator"),
    ("sensopt.sweep", "rank_candidates", "sweep.rank_candidates", "function"),
    ("sensopt.sweep", "select", "sweep.select", "function"),
    ("sensopt.cli", "run_sweep", "sweep.run_sweep", "function"),
    ("sensopt.cli", "write_report_csv", "sweep.write_report_csv", "function"),
    ("sensopt.cli", "write_curve_csv", "curves.write_curve_csv", "function"),
    ("sensopt.cli", "generate_dataset", "oracle.generate_dataset", "function"),
    ("sensopt.oracle.SensorOracle", "simulate_block", "oracle.simulate_block", "function"),
    ("sensopt.cli", "write_csv", "data.write_csv", "function"),
    ("sensopt.cli", "read_csv", "data.read_csv", "function"),
    ("sensopt.cli", "split", "data.split", "function"),
    ("sensopt.cli", "prepare_training_data", "training.prepare_training_data", "function"),
    ("sensopt.cli", "train", "training.train", "function"),
    ("sensopt.training.TrainHistory", "write_csv", "training.write_history_csv", "function"),
    ("sensopt.cli", "evaluate", "training.evaluate", "function"),
    ("sensopt.cli", "write_prediction_csvs", "training.write_prediction_csvs", "function"),
    ("sensopt.cli", "save_model", "network.save_model", "function"),
    ("sensopt.cli", "load_model", "network.load_model", "function"),
)


def _resolve(path: str):
    """Import `a.b.C` as module `a.b` plus attribute `C`, or a plain module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span recorder plus counters measured at the same boundaries."""

    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _observe(self, name: str, args, result) -> None:
        # Counts that ratios need, taken where the work happens.
        if name == "network.forward":
            inputs = args[2]
            self.counters["network.forward.rows"] += inputs.shape[0] if inputs.ndim == 2 else 1
        elif name == "data.read_csv":
            self.counters["data.read_csv.rows"] += len(result)
        elif name == "curves.criteria":
            if all(math.isfinite(v) for v in result.as_tuple()):
                self.counters["curves.criteria.scorable"] += 1

    def _wrap(self, name: str, func, kind: str):
        tracer = self

        if kind == "generator":
            def wrapper(*args, **kwargs):
                iterator = func(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                index = tracer._open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer._observe(name, args, result)
                return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Patch every layer boundary for the duration of one benchmark op."""
        self._op = op_id
        saved = []
        try:
            for owner_path, attr, name, kind in PATCH_POINTS:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if kind == "classmethod":
                    patched = classmethod(self._wrap(name, original.__func__, kind))
                else:
                    patched = self._wrap(name, original, kind)
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._op = -1

    # -- reporting ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so children never
        overlap one another.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[index]
            calls[name] += 1
        return total, own, calls

    def dump(self, path) -> None:
        """Write every span as gzipped CSV: op, name, start, end, parent."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "index", "name", "start", "end", "parent"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([op, index, name, repr(start), repr(end), parent])
