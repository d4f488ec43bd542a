"""Per-layer spans for fedstudent, recorded from outside the package.

`Tracer.install` replaces each traced function with a wrapper under every name
a fedstudent module resolves at call time (``fedstudent.federation.forward_outcome``,
``fedstudent.evaluate.forward_outcome``, ...) and patches traced methods on
their class.  A wrapped call appends one span (function, start, end, parent
span) to an in-memory list; nothing is written while the workload runs.
Forked pool workers start with empty lists and write theirs when they exit.
Self time is derived afterwards: a span's duration minus the part its direct
child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util

# "<module>.<attribute path>" under the fedstudent package.
SPANNED = (
    "network.forward_outcome",
    "network.backward",
    "network.forward_pretrain",
    "network.backward_pretrain",
    "pretrain.run_pretraining",
    "federation.meta_gradient",
    "federation.local_adaptation",
    "federation.adapt_for_eval",
    "federation.BatchObjective.loss",
    "federation.BatchObjective.loss_and_gradient",
    "federation.train_epoch",
    "optim.optimizer_step",
    "params.params_axpy",
    "params.ModelParams.__add__",
    "params.ModelParams.__mul__",
    "federation.fedavg_aggregate",
    "federation.fedatt_aggregate",
    "federation.fedirt_round",
    "irt.fit_rasch",
    "metrics.auc",
    "dataio.load_records",
    "evaluate.export_embeddings",
    "evaluate.embeddings_to_csv",
    "params.load_params",
    "params.save_params",
    "evaluate.cross_validate",
    "evaluate.execute_run",
    "evaluate.pretrain_for_fold",
)
# Called too often for a span each; only their calls are counted.
COUNTED = ("activity.sequence_matrix", "tracking.AccessMonitor.record")
# The bodies of pool tasks; their spans in worker processes are task busy time.
TASKS = ("evaluate.execute_run", "evaluate.pretrain_for_fold")


def _forward_steps(args) -> int:
    return len(args[1])


def _backward_steps(args) -> int:
    return args[0].gru.H.shape[0]


# GRU steps each network pass runs, for the computed FLOP and byte counts.
# A pass whose arguments no longer have these shapes is counted as unsized.
STEP_COUNTERS = {
    "network.forward_outcome": _forward_steps,
    "network.forward_pretrain": _forward_steps,
    "network.backward": _backward_steps,
    "network.backward_pretrain": _backward_steps,
}


def _resolve(path: str):
    """(owner object, attribute name, current value) for a traced path."""
    module_name, *attrs = path.split(".")
    owner = sys.modules[f"fedstudent.{module_name}"]
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return owner, attrs[-1], getattr(owner, attrs[-1])


class Tracer:
    """In-memory span recorder for one process and the pool workers it forks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []           # (function index, start, end, parent index)
        self.stack: list[int] = []
        self.counts = [0] * len(COUNTED)
        self.steps = dict.fromkeys([*STEP_COUNTERS, "unsized"], 0)
        self.pools: list[tuple] = []           # (start, end, max_workers)

    # -- installation -----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced name; returns the names the package no longer has."""
        absent = []
        for fid, path in enumerate(SPANNED):
            if not self._replace(path, self._span_wrapper(fid, path)):
                absent.append(path)
        for cid, path in enumerate(COUNTED):
            if not self._replace(path, self._count_wrapper(cid)):
                absent.append(path)
        evaluate = sys.modules["fedstudent.evaluate"]
        evaluate.ProcessPoolExecutor = self._timed_pool_class()
        mp_util.register_after_fork(self, Tracer._after_fork)
        return absent

    def _replace(self, path: str, make_wrapper) -> bool:
        try:
            owner, attr, original = _resolve(path)
        except (KeyError, AttributeError):
            return False
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return True
        for name, module in list(sys.modules.items()):
            if name == "fedstudent" or name.startswith("fedstudent."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return True

    def _span_wrapper(self, fid: int, path: str):
        spans, stack, steps = self.spans, self.stack, self.steps
        clock = time.perf_counter
        step_count = STEP_COUNTERS.get(path)

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (fid, start, end, parent)
                    if step_count is not None:
                        try:
                            steps[path] += step_count(args)
                        except (AttributeError, IndexError, TypeError):
                            steps["unsized"] += 1
            return wrapper
        return make

    def _count_wrapper(self, cid: int):
        counts = self.counts

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[cid] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def _timed_pool_class(self):
        pools = self.pools
        clock = time.perf_counter

        class TimedPool(ProcessPoolExecutor):
            """Records each pool's wall time, from construction to the end of shutdown."""

            def __init__(self, max_workers=None, *args, **kwargs):
                self._bench_start = clock()
                self._bench_workers = max_workers or os.cpu_count() or 1
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                pools.append((self._bench_start, clock(), self._bench_workers))

        return TimedPool

    # -- pool workers -----------------------------------------------------

    def _after_fork(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts[:] = [0] * len(COUNTED)
        for name in self.steps:
            self.steps[name] = 0
        self.pools.clear()
        mp_util.Finalize(self, self._write_child, exitpriority=100)

    def _write_child(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self._snapshot(), fh)

    def _snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": self.counts,
            "steps": self.steps,
            "pools": self.pools,
        }

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Write this process's spans, then derive per-function calls, busy and
        self time over this process and its pool workers."""
        snapshots = [self._snapshot()]
        own_file = f"spans-{os.getpid()}.json"
        with open(os.path.join(self.out_dir, own_file), "w", encoding="utf-8") as fh:
            json.dump(snapshots[0], fh)
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("spans-") and entry != own_file:
                with open(os.path.join(self.out_dir, entry), encoding="utf-8") as fh:
                    snapshots.append(json.load(fh))
        calls = [0] * len(SPANNED)
        busy = [0.0] * len(SPANNED)
        own = [0.0] * len(SPANNED)
        task_busy = 0.0
        task_ids = {SPANNED.index(name) for name in TASKS}
        counts = [0] * len(COUNTED)
        steps = dict.fromkeys(self.steps, 0)
        pool_capacity = 0.0
        for snap in snapshots:
            spans = snap["spans"]
            covered = [0.0] * len(spans)
            for fid, start, end, parent in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (fid, start, end, parent), child_time in zip(spans, covered):
                calls[fid] += 1
                busy[fid] += end - start
                own[fid] += end - start - child_time
                if snap is not snapshots[0] and parent < 0 and fid in task_ids:
                    task_busy += end - start
            for cid, count in enumerate(snap["counts"]):
                counts[cid] += count
            for name, count in snap["steps"].items():
                steps[name] += count
            for start, end, workers in snap["pools"]:
                pool_capacity += workers * (end - start)
        out = {}
        for fid, name in enumerate(SPANNED):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.busy_s"] = busy[fid]
            out[f"{name}.self_s"] = own[fid]
        for cid, name in enumerate(COUNTED):
            out[f"{name}.calls"] = counts[cid]
        return {
            "layers": out,
            "steps": steps,
            "pool_task_busy_s": task_busy,
            "pool_capacity_s": pool_capacity,
            "processes": len(snapshots),
        }
