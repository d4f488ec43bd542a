"""fedstudent benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload fed-plain --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  Set-up (import plus input building) runs
SETUP_REPEATS times in fresh processes; then the workload's measured phase
runs in fresh processes until --seconds have passed (at least MIN_ITERATIONS
times).  Every time is scaled to one reference CPU speed, which a probe beside
the program samples (worker.SpeedProbe).  With --trace 0 every end-to-end
metric is printed; with --trace 1 untraced and traced iterations alternate and
the per-layer metrics are printed.  The last line of standard output is one JSON object; README.md in
this directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracer import COUNTED, SPANNED  # noqa: E402

WORKLOADS = ("fed-plain", "fed-meta", "cli-pretrain", "score")
STRATEGIES = ("Local", "Central", "FedAvg", "FedAtt", "FedIRT", "PerFedAvgAgg", "PerFedAttn")
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
CLI_JOBS = 2
# Children still running this long after start are stopped; the whole run
# must end within 180 s.
DEADLINE_S = 165.0
# One BLAS thread per process, so `--jobs 2` uses no more than two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Time metrics are scaled to a CPU on which one repetition of worker.SpeedProbe's
# reference kernel takes this much CPU time, about its median on a 2-vCPU
# "Intel(R) Xeon(R) Processor" VM: a time scaled by this reads in the seconds
# that host takes at its usual speed.  Unscaled times are printed and recorded too.
PROBE_NOMINAL_S = 3.2e-4

# The end-to-end metrics of the result line; the rest of the 14 are printed above it.
END_TO_END = ("setup_s", "wall_s", "sequences_per_s", "cpu_s", "peak_rss_mb")
# Traced functions every workload calls.
CALLED_BY_ALL = ("network.forward_outcome.",)
# Sizes the computed FLOP and byte counts use: hidden width and input width
# of every workload's model.
K, D = 24, 19


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, set-up failure, timeout)."""


class Runner:
    """Starts worker processes, each in its own process group, and stops them at the deadline."""

    def __init__(self, workdir: str):
        self.start = time.monotonic()
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
        self.serial = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run worker.py with the given arguments; returns (its result, wall seconds)."""
        self.serial += 1
        result_path = os.path.join(self.workdir, f"result-{self.serial}.json")
        log_path = os.path.join(self.workdir, f"log-{self.serial}.txt")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--result", result_path]
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("time limit reached before the run finished")
        began = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            # A blocking wait times the child exactly; Popen.wait(timeout) polls
            # in steps of up to 50 ms.  The watchdog enforces the deadline.
            watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                # Stop any pool processes the worker left behind.
                _kill_group(proc.pid)
        wall = time.perf_counter() - began
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            reason = ("was stopped at the deadline" if code == -signal.SIGKILL
                      else f"exited with {code}")
            raise BenchError(f"worker {' '.join(args)} {reason}:\n{tail}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh), wall


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def read_steal_ticks():
    """Steal ticks summed over all CPUs, from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def median(values):
    return statistics.median(values) if values else 0.0


def speed_scale(probe: dict) -> float:
    """Factor that turns a time measured beside this probe report into reference seconds."""
    return PROBE_NOMINAL_S / probe["cpu_per_rep_s"]


def scaled(result: dict, key: str) -> float:
    return result[key] * speed_scale(result["probe"])


def computed_network_work(steps: dict, calls: dict) -> dict:
    """FLOPs and bytes of the GRU and attention, from GRU steps and layer shapes.

    Matrix products count 2 flop per multiply-add, elementwise operations 1
    each.  Bytes count float64 activations read or written once per step plus
    the layer's weights once per call (twice in backward: read and gradient).
    """
    fwd_steps = steps["network.forward_outcome"] + steps["network.forward_pretrain"]
    bwd_steps = steps["network.backward"] + steps["network.backward_pretrain"]
    fwd_calls = calls["network.forward_outcome"] + calls["network.forward_pretrain"]
    bwd_calls = calls["network.backward"] + calls["network.backward_pretrain"]
    gru_weights = 3 * K * D + 3 * K * K + 3 * K
    attn_weights = K * K + K
    return {
        "network.gru_flops": fwd_steps * (6 * D * K + 6 * K * K + 12 * K)
        + bwd_steps * (6 * D * K + 12 * K * K + 20 * K),
        "network.attention_flops": fwd_steps * (2 * K * K + 5 * K + 3)
        + bwd_steps * (4 * K * K + 9 * K),
        "network.gru_bytes": 8 * (fwd_steps * (D + 10 * K) + fwd_calls * gru_weights
                                  + bwd_steps * (D + 12 * K) + 2 * bwd_calls * gru_weights),
        "network.attention_bytes": 8 * (fwd_steps * (3 * K + 1) + fwd_calls * attn_weights
                                        + bwd_steps * (4 * K + 2) + 2 * bwd_calls * attn_weights),
    }


def per_layer_metrics(traced: list[dict], untraced: list[dict], inputs: dict,
                      kernels: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and any way their counts failed to repeat."""
    problems = []
    summaries = [r["trace"] for r in traced]
    first = summaries[0]
    for other in summaries[1:]:
        for name, value in first["layers"].items():
            if name.endswith(".calls") and other["layers"][name] != value:
                problems.append(f"{name}: {value} then {other['layers'][name]}")
        if other["steps"] != first["steps"]:
            problems.append(f"GRU steps: {first['steps']} then {other['steps']}")
    metrics = {}
    for name in SPANNED:
        metrics[f"{name}.calls"] = (first["layers"][f"{name}.calls"], "count")
        for part in ("busy_s", "self_s"):
            metrics[f"{name}.{part}"] = (median(
                [r["trace"]["layers"][f"{name}.{part}"] * speed_scale(r["probe"])
                 for r in traced]), "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (first["layers"][f"{name}.calls"], "count")
    calls = {name: first["layers"][f"{name}.calls"] for name in SPANNED}
    forwards = calls["network.forward_outcome"] + calls["network.forward_pretrain"]
    backwards = calls["network.backward"] + calls["network.backward_pretrain"]
    metrics["network.forwards_per_backward"] = (
        forwards / backwards if backwards else 0.0, "ratio")
    metrics["activity.sequence_matrix.calls_per_student"] = (
        first["layers"]["activity.sequence_matrix.calls"] / inputs["students"], "ratio")
    idle = [1.0 - s["pool_task_busy_s"] / s["pool_capacity_s"]
            for s in summaries if s["pool_capacity_s"] > 0]
    metrics["evaluate.pool.idle_share"] = (median(idle), "ratio")
    metrics["trace.overhead_share"] = (
        median([scaled(r, "wall_s") for r in traced])
        / median([scaled(r, "wall_s") for r in untraced]) - 1.0, "ratio")
    for name, value in computed_network_work(first["steps"], calls).items():
        metrics[name] = (value, "flop" if name.endswith("flops") else "B")
    kernel_scale = speed_scale(kernels["probe"])
    metrics["network.gru_forward.kernel_us"] = (kernels["gru_forward"] * kernel_scale, "us")
    metrics["network.attention_pool.kernel_us"] = (
        kernels["attention_pool"] * kernel_scale, "us")
    return metrics, problems


def reported_per_layer(metrics: dict) -> dict:
    """The per-layer metrics of the result line: every one but the busy and self
    times of functions some workload never calls, which would read 0.0 on every
    run of that workload.  Those are printed above the result line instead."""
    return {name: value for name, value in metrics.items()
            if not name.endswith(("busy_s", "self_s")) or name.startswith(CALLED_BY_ALL)}


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "fedstudent", "__init__.py")):
        raise BenchError(f"no fedstudent package under {ROOT}/src; run from a checkout root")
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir)
    runner = Runner(workdir)
    jobs = min(CLI_JOBS, os.cpu_count() or 1)
    environment = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "blas_env": BLAS_ENV,
        "steal_ticks_start": read_steal_ticks(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    problems = []

    # Set-up: import plus input building, several times; the inputs must repeat.
    setup_walls, setup_scaled, setup_digests = [], [], []
    for _ in range(SETUP_REPEATS):
        meta, wall = runner.worker("setup", "--workload", args.workload,
                                   "--seed", str(args.seed), "--dir", inputs_dir)
        wall -= meta["probe"]["wall_s"]
        setup_walls.append(wall)
        setup_scaled.append(wall * speed_scale(meta["probe"]))
        setup_digests.append(meta["digests"])
    environment.update(meta["environment"])
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("set-up built different inputs from the same seed")

    # Measured phase.
    iterate = ["iterate", "--workload", args.workload, "--dir", inputs_dir,
               "--jobs", str(jobs if args.workload == "cli-pretrain" else 1)]
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while (len(untraced) + len(traced) < MIN_ITERATIONS
           or time.monotonic() < deadline):
        use_trace = args.trace and len(untraced) > len(traced)
        result, _ = runner.worker(*iterate, "--trace", "1" if use_trace else "0")
        (traced if use_trace else untraced).append(result)
    iterations = untraced + traced

    attempted = sum(len(r["ops"]) for r in iterations)
    failed = sum(1 for r in iterations for op in r["ops"] if not op["ok"])
    problems.extend(f"{op['op']}: {op['error']}" for r in iterations for op in r["ops"]
                    if not op["ok"])
    reference = iterations[0]["digest"]
    for r in iterations[1:]:
        if r["digest"] != reference and all(op["ok"] for op in r["ops"]):
            failed += len(r["ops"])
            problems.append("an iteration's report or models differ from the first iteration's")
    if args.workload == "cli-pretrain":
        # --jobs 1 reference: the manifest must not depend on the worker count.
        ref, _ = runner.worker("iterate", "--workload", args.workload, "--dir", inputs_dir,
                               "--jobs", "1", "--trace", "0")
        attempted += 1
        if not ref["ops"][0]["ok"] or ref["digest"] != reference:
            failed += 1
            problems.append("--jobs 1 manifest differs from the --jobs 2 manifest")

    with open(os.path.join(inputs_dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    walls = [scaled(r, "wall_s") for r in untraced]
    full = {
        "setup_s": (median(setup_scaled), "s"),
        "wall_s": (median(walls), "s"),
        "sequences_per_s": (median([inputs["passes"] / w for w in walls]), "1/s"),
        "cpu_s": (median([scaled(r, "cpu_s") for r in untraced]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    unscaled = {
        "setup_s": median(setup_walls),
        "wall_s": median([r["wall_s"] for r in untraced]),
        "cpu_s": median([r["cpu_s"] for r in untraced]),
        "speed_scale": median([speed_scale(r["probe"]) for r in untraced]),
    }
    for strategy in STRATEGIES:
        values = [r["test_auc"][strategy] for r in iterations if strategy in r["test_auc"]]
        full[f"test_auc.{strategy}"] = (median(values) if values else None, "AUC")
    losses = [r["pretrain_loss"] for r in iterations if r["pretrain_loss"] is not None]
    full["pretrain_loss"] = (median(losses) if losses else None, "MSE")

    if args.trace:
        kernels, _ = runner.worker("kernels", "--seed", str(args.seed))
        layers, count_problems = per_layer_metrics(traced, untraced, inputs, kernels)
        problems.extend(count_problems)
        metrics = reported_per_layer(layers)
        absent = sorted({name for r in traced for name in r["absent"]})
        if absent:
            environment["absent_traced_names"] = absent
    else:
        layers = {}
        metrics = {name: full[name] for name in END_TO_END}

    environment["steal_ticks_end"] = read_steal_ticks()
    return {
        "environment": environment,
        "inputs": inputs,
        "setup_walls_s": setup_walls,
        "iterations": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "probe", "digest",
                                          "ops")} for r in iterations],
        "end_to_end": full,
        "unscaled": unscaled,
        "per_layer": layers,
        "metrics": metrics,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=2, sort_keys=True)
    print("environment: " + json.dumps(outcome["environment"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(outcome['iterations'])} iterations, {outcome['inputs']['passes']} passes each")
    for name, (value, unit) in outcome["end_to_end"].items():
        shown = "n/a (not run by this workload)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<24} {shown}")
    print("unscaled times (speed scale {speed_scale:.4g}): setup_s {setup_s:.6g} s, "
          "wall_s {wall_s:.6g} s, cpu_s {cpu_s:.6g} s".format(**outcome["unscaled"]))
    if outcome["per_layer"]:
        print("per-layer (traced iterations; times are medians at reference speed):")
        for name, (value, unit) in outcome["per_layer"].items():
            print(f"  {name:<52} {value:.6g} {unit}")
    for problem in outcome["problems"]:
        print(f"  problem: {problem}")
    print(f"full record: {os.path.relpath(record, ROOT)}")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
