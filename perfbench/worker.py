"""One benchmark process: build a workload's inputs, run its measured phase once,
or time the network kernels.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D --result R
    python3 perfbench/worker.py iterate --workload W --dir D --jobs J --trace 0|1 --result R
    python3 perfbench/worker.py kernels --seed N --result R

run.py starts it from the checkout root with PYTHONPATH set to the checkout's
src/ and the BLAS pinned to one thread.  Results go to the JSON file --result;
standard output is only the program's own chatter.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.getcwd()

# Every cohort is generated at the seed of the criterion-6 test and the shipped
# example config, so that every run seed asks for the same work; the run seed
# selects the rest: initial weights, batch order,
# dropout and pretraining shuffles, and the scored model's weights.
COHORT_GEN_SEED = 314

# fed-plain and fed-meta: the criterion-6 cohort and plan (tests/test_acceptance.py),
# scaled down to fewer rounds and one seed so that a run fits in a few seconds.
N_VIDEOS_ACCEPT = 12
FED_ROUNDS = 1
FED_LOCAL_ITERS = 1
FED_FOLD_SEED = 2024

# cli-pretrain: the shipped example cohort with fewer students per subgroup.
EXAMPLE_SPEC = os.path.join("examples_config", "cohort.json")
CLI_POPULATION = 100
CLI_STRATEGIES = ["Central", "FedAvg"]
CLI_PRETRAIN_EPOCHS = 1
CLI_ROUNDS = 1

# score: a large cohort with long-tailed lengths (low dispersion, capped at 256).
SCORE_POPULATION = 1000
SCORE_LENGTH_DISPERSION = 0.5
HIDDEN_DIM = 24

# Kernel timing at the fed-plain shapes: k = 24, d = 19, L = 20 (mean length 19.4).
KERNEL_LENGTH = 20
KERNEL_CALLS = 200
KERNEL_BLOCKS = 7

# Speed probe: a chunk of PROBE_REPS reference repetitions (about 4 ms) runs
# every PROBE_PERIOD_S while the measured phase runs in this process, and
# PROBE_EDGE_CHUNKS chunks run just before and just after it.
PROBE_REPS = 10
PROBE_PERIOD_S = 0.1
PROBE_EDGE_CHUNKS = 5
# A set-up lasts well under a second, too short for many samples in flight.
PROBE_SETUP_CHUNKS = 20


class SpeedProbe:
    """Samples how fast this CPU runs right now, with a fixed reference kernel.

    A virtual machine that shares its cores with other guests can run the same
    code up to 2x slower from one second or minute to the next.  The probe
    times a frozen piece of code shaped like the program's hot path (a 20-step
    GRU at k = 24, d = 19 in small numpy operations, plus some pure-Python
    record handling), so run.py can scale every measured time to one reference
    speed.  The kernel lives here, not in src/, so no change to the program
    moves it.

    Each chunk's CPU time (CLOCK_THREAD_CPUTIME_ID) is recorded per
    repetition; CPU time leaves out any wait for a core.  ``start`` samples
    from a SIGALRM handler, which runs in the main thread between bytecodes;
    the wall time the handler takes is recorded so it can be taken out of the
    measured phase's wall time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20240601)
        k, d, L = HIDDEN_DIM, N_VIDEOS_ACCEPT + 7, KERNEL_LENGTH
        self.k = k
        self.W_in = rng.standard_normal((3 * k, d)) * 0.3
        self.U = rng.standard_normal((3 * k, k)) * 0.3
        self.b = rng.standard_normal(3 * k) * 0.1
        self.X = np.zeros((L, d))
        self.X[np.arange(L), rng.integers(0, d, L)] = 1.0
        self.rows = [(f"s{i}", i % 7, float(i) * 0.5) for i in range(40)]
        self.per_rep_cpu: list[float] = []
        self.wall_spent = 0.0
        self.cpu_spent = 0.0
        self._chunk()  # warm-up, not recorded

    def _chunk(self) -> tuple[float, float]:
        np, k = self.np, self.k
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        for _ in range(PROBE_REPS):
            XW = self.X @ self.W_in.T + self.b
            h = np.zeros(k)
            for t in range(XW.shape[0]):
                zr = 1.0 / (1.0 + np.exp(-(XW[t, :2 * k] + self.U[:2 * k] @ h)))
                c = np.tanh(XW[t, 2 * k:] + self.U[2 * k:] @ (zr[k:] * h))
                h = (1.0 - zr[:k]) * h + zr[:k] * c
            totals: dict[int, float] = {}
            for name, group, value in self.rows:
                totals[group] = totals.get(group, 0.0) + value + len(name)
            ",".join(f"{v:.4f}" for v in totals.values())
        return time.perf_counter() - wall0, time.thread_time() - cpu0

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            wall, cpu = self._chunk()
            self.per_rep_cpu.append(cpu / PROBE_REPS)
            self.wall_spent += wall
            self.cpu_spent += cpu

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self) -> dict:
        return {"cpu_per_rep_s": statistics.fmean(self.per_rep_cpu),
                "chunks": len(self.per_rep_cpu),
                "wall_s": self.wall_spent, "cpu_s": self.cpu_spent}


def import_fedstudent():
    """Import the package from this checkout's src/, never from site-packages."""
    import fedstudent
    import fedstudent.cli  # noqa: F401  (loads every module the tracer patches)

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(fedstudent.__file__).startswith(src):
        raise SystemExit(f"fedstudent was imported from {fedstudent.__file__}, not from {src}")
    return fedstudent


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def finite(value) -> bool:
    return value is not None and math.isfinite(value)


def scheduled_passes(strategy: str, rounds: int, local_iters: int, split) -> int:
    """Student-sequence passes a strategy's schedule asks for, from the split sizes.

    A training pass, an adaptation pass and a scored student each count once,
    however many forward and backward calls the program spends on it.
    """
    train = sum(len(a.train) for a in split.assignments.values())
    val = sum(len(a.val) for a in split.assignments.values())
    test = sum(len(a.test) for a in split.assignments.values())
    epochs = rounds * local_iters
    if strategy in ("Local", "Central"):
        # Validation after every epoch.
        return epochs * (train + val) + test
    passes = epochs * train + rounds * val + test
    if strategy in ("FedIRT", "PerFedAvgAgg", "PerFedAttn"):
        # One adaptation epoch per client before each validation and before the test.
        passes += (rounds + 1) * train
    return passes


# ---------------------------------------------------------------------------
# fed-plain and fed-meta: evaluate.execute_run on the criterion-6 cohort.
# ---------------------------------------------------------------------------

def _acceptance_transition(watch_share, noanswer_share=0.15, stay=0.25):
    import numpy as np

    base = np.empty(7)
    answered = watch_share * (1.0 - noanswer_share)
    base[:3] = answered / 3.0
    base[3] = watch_share * noanswer_share
    base[4:] = (1.0 - watch_share) / 3.0
    rows = np.tile(base, (7, 1)) * (1.0 - stay)
    rows[np.diag_indices(7)] += stay
    return rows


def acceptance_cohort_spec(pop=400, w_correct=5.0, w_forum=6.0):
    import numpy as np
    from fedstudent.synthgen import CohortSpec, SubgroupProfile

    half = N_VIDEOS_ACCEPT // 2
    access_a = np.zeros(N_VIDEOS_ACCEPT)
    access_b = np.zeros(N_VIDEOS_ACCEPT)
    access_a[:half] = 1.0 / half
    access_b[half:] = 1.0 / half
    quiz_rate, watch_a, watch_b = 0.5, 0.7, 0.45
    answered_share = 0.85
    profiles = [
        SubgroupProfile(
            name="M", population=pop, transition=_acceptance_transition(watch_a),
            video_access=access_a, quiz_correct_prob=quiz_rate,
            length_mean=20.0, length_dispersion=4.0,
            pass_intercept=-(w_correct * quiz_rate * answered_share + w_forum * (1 - watch_a)),
            pass_weight_correct=w_correct, pass_weight_forum=w_forum,
        ),
        SubgroupProfile(
            name="F", population=pop, transition=_acceptance_transition(watch_b),
            video_access=access_b, quiz_correct_prob=quiz_rate,
            length_mean=20.0, length_dispersion=4.0,
            pass_intercept=-(w_correct * quiz_rate * answered_share - w_forum * (1 - watch_b)),
            pass_weight_correct=w_correct, pass_weight_forum=-w_forum,
        ),
    ]
    return CohortSpec(
        n_videos=N_VIDEOS_ACCEPT, quiz_videos=set(range(N_VIDEOS_ACCEPT)),
        profiles=profiles,
    )


def acceptance_plan(strategies, seed):
    from fedstudent.evaluate import ExperimentPlan
    from fedstudent.federation import AttnAggConfig, MetaConfig, TrainSettings

    return ExperimentPlan(
        variable="G",
        include_unspecified=False,
        strategies=tuple(strategies),
        rounds=FED_ROUNDS,
        local_iters=FED_LOCAL_ITERS,
        settings=TrainSettings(hidden_dim=HIDDEN_DIM, dropout=0.5, batch_size=8,
                               opt_kind="adam", lr=1e-3, decay=1e-3),
        meta=MetaConfig(inner_lr=0.1, outer_lr=0.25, meta_batch=8),
        attn=AttnAggConfig(step=1.0),
        folds=1,
        seeds=(seed,),
        fold_seed=FED_FOLD_SEED,
    )


class FedWorkload:
    """execute_run for each strategy, fold 0, the run's seed as the training seed."""

    def __init__(self, strategies):
        self.strategies = tuple(strategies)

    def setup(self, seed: int, inputs: str) -> dict:
        from fedstudent.evaluate import build_fold_split
        from fedstudent.synthgen import generate_cohort

        records = generate_cohort(acceptance_cohort_spec(), COHORT_GEN_SEED)
        with open(os.path.join(inputs, "records.pkl"), "wb") as fh:
            pickle.dump(records, fh, protocol=pickle.HIGHEST_PROTOCOL)
        plan = acceptance_plan(self.strategies, seed)
        split = build_fold_split({r.student_id: r for r in records}, plan, 0)
        passes = sum(scheduled_passes(s, plan.rounds, plan.local_iters, split)
                     for s in self.strategies)
        return {"seed": seed, "cohort_seed": COHORT_GEN_SEED, "fold_seed": FED_FOLD_SEED,
                "passes": passes, "students": len(records), "files": ["records.pkl"]}

    def load(self, inputs: str, meta: dict, jobs: int) -> dict:
        # The file was written by this benchmark's own setup step.
        with open(os.path.join(inputs, "records.pkl"), "rb") as fh:
            records = pickle.load(fh)
        return {"records": records, "plan": acceptance_plan(self.strategies, meta["seed"]),
                "seed": meta["seed"]}

    def measure(self, state: dict):
        from fedstudent.evaluate import execute_run

        results = []
        for strategy in self.strategies:
            try:
                results.append((strategy, execute_run(
                    state["records"], state["plan"], strategy, 0, state["seed"])))
            except Exception as exc:  # a failed strategy run is counted, not fatal
                results.append((strategy, exc))
        return results

    def check(self, state: dict, raw) -> dict:
        ops, test_auc, digest = [], {}, hashlib.sha256()
        for strategy, outcome in raw:
            if isinstance(outcome, Exception):
                ops.append({"op": strategy, "ok": False, "error": repr(outcome)})
                continue
            aucs = outcome.subgroup_auc
            ok = bool(aucs) and all(finite(v) for v in aucs.values())
            ops.append({"op": strategy, "ok": ok,
                        "error": None if ok else f"undefined or non-finite AUC: {aucs}"})
            if ok:
                test_auc[strategy] = statistics.fmean(aucs.values())
            digest.update(repr((strategy, sorted(aucs.items()), outcome.rounds)).encode())
            for name, model in sorted(outcome.eval_models.items()):
                digest.update(name.encode())
                for layer in model.names():
                    digest.update(model[layer].tobytes())
        return {"ops": ops, "test_auc": test_auc, "pretrain_loss": None,
                "digest": digest.hexdigest()}


# ---------------------------------------------------------------------------
# cli-pretrain and score: the user's path through cli.main.
# ---------------------------------------------------------------------------

def _example_spec(population: int):
    from fedstudent.synthgen import load_cohort_spec

    spec = load_cohort_spec(os.path.join(ROOT, EXAMPLE_SPEC))
    for profile in spec.profiles:
        profile.population = population
    return spec


def _write_cohort_csv(records, inputs: str) -> None:
    from fedstudent.dataio import write_events_csv, write_students_csv

    write_events_csv(records, os.path.join(inputs, "events.csv"))
    write_students_csv(records, os.path.join(inputs, "students.csv"))


class CliPretrainWorkload:
    """`fedstudent run` with masked pretraining, two strategies and two seeds."""

    strategies = tuple(CLI_STRATEGIES)

    def setup(self, seed: int, inputs: str) -> dict:
        from fedstudent.evaluate import ExperimentPlan, build_fold_split
        from fedstudent.synthgen import generate_cohort

        spec = _example_spec(CLI_POPULATION)
        records = generate_cohort(spec, COHORT_GEN_SEED)
        _write_cohort_csv(records, inputs)
        seeds = [seed, seed + 1]
        config = {
            "version": 1,
            "dataset": {"kind": "csv", "events_path": "events.csv",
                        "students_path": "students.csv", "n_videos": spec.n_videos},
            "variable": "G",
            "strategies": CLI_STRATEGIES,
            "rounds": CLI_ROUNDS,
            "local_iters": 1,
            "model": {"hidden_dim": HIDDEN_DIM, "dropout": 0.5, "batch_size": 8},
            "optimizer": {"kind": "adam", "lr": 1e-3, "decay": 1e-3},
            "pretrain": {"enabled": True, "epochs": CLI_PRETRAIN_EPOCHS},
            "folds": 1,
            "seeds": seeds,
            "output_dir": "out",
        }
        with open(os.path.join(inputs, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        plan = ExperimentPlan(variable="G", strategies=self.strategies, rounds=CLI_ROUNDS,
                              local_iters=1, folds=1, seeds=tuple(seeds))
        index = {r.student_id: r for r in records}
        split = build_fold_split(index, plan, 0)
        instances = sum(len(index[sid].sequence) for sid in split.all_train_ids()
                        if len(index[sid].sequence) >= 2)
        per_seed = CLI_PRETRAIN_EPOCHS * instances + sum(
            scheduled_passes(s, CLI_ROUNDS, 1, split) for s in self.strategies)
        return {"seed": seed, "cohort_seed": COHORT_GEN_SEED, "training_seeds": seeds,
                "passes": len(seeds) * per_seed, "students": len(records),
                "files": ["events.csv", "students.csv", "config.json"]}

    def load(self, inputs: str, meta: dict, jobs: int) -> dict:
        import fedstudent.cli as cli

        out = os.path.join(inputs, f"out-jobs{jobs}")
        shutil.rmtree(out, ignore_errors=True)
        reports = []
        run_experiment = cli.cross_validate

        def keep_report(*args, **kwargs):
            report = run_experiment(*args, **kwargs)
            reports.append(report)
            return report

        # Only to read the pretraining losses, which no output file carries.
        cli.cross_validate = keep_report
        return {"argv": ["run", "--config", os.path.join(inputs, "config.json"),
                         "--jobs", str(jobs), "--out", out],
                "out": out, "reports": reports}

    def measure(self, state: dict):
        import fedstudent.cli as cli

        return cli.main(state["argv"])

    def check(self, state: dict, code) -> dict:
        out = state["out"]
        problems = []
        test_auc, pretrain_loss, digest = {}, None, None
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            with open(os.path.join(out, "report.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            by_strategy: dict[str, list[float]] = {}
            for row in rows:
                by_strategy.setdefault(row["strategy"], []).append(float(row["mean_auc"]))
            for strategy in self.strategies:
                values = by_strategy.get(strategy, [])
                if len(values) != 2 or not all(finite(v) for v in values):
                    problems.append(f"{strategy}: AUCs {values}")
                else:
                    test_auc[strategy] = statistics.fmean(values)
            final = {o.seed: o.pretrain_losses[-1] for r in state["reports"] for o in r.outcomes
                     if o.pretrain_losses}
            if len(final) != 2 or not all(finite(v) for v in final.values()):
                problems.append(f"pretraining losses {final}")
            else:
                pretrain_loss = statistics.fmean(final.values())
            digest = sha256_file(os.path.join(out, "manifest.json"))
        return {"ops": [{"op": "fedstudent run", "ok": not problems,
                         "error": "; ".join(problems) or None}],
                "test_auc": test_auc, "pretrain_loss": pretrain_loss, "digest": digest}


class ScoreWorkload:
    """`fedstudent dump-embeddings`: forward-only scoring of every student."""

    strategies = ()

    def setup(self, seed: int, inputs: str) -> dict:
        import numpy as np
        from fedstudent.params import ModelParams, save_params
        from fedstudent.synthgen import generate_cohort

        spec = _example_spec(SCORE_POPULATION)
        for profile in spec.profiles:
            profile.length_dispersion = SCORE_LENGTH_DISPERSION
        records = generate_cohort(spec, COHORT_GEN_SEED)
        _write_cohort_csv(records, inputs)
        model = ModelParams.initialized(HIDDEN_DIM, spec.n_videos + 7, np.random.default_rng(seed))
        save_params(model, os.path.join(inputs, "model.params"))
        lengths = sorted(len(r.sequence) for r in records)
        return {"seed": seed, "cohort_seed": COHORT_GEN_SEED,
                "passes": len(records), "students": len(records),
                "timesteps": sum(lengths), "max_length": lengths[-1],
                "files": ["events.csv", "students.csv", "model.params"]}

    def load(self, inputs: str, meta: dict, jobs: int) -> dict:
        out = os.path.join(inputs, "embeddings.csv")
        if os.path.exists(out):
            os.remove(out)
        return {"argv": ["dump-embeddings", "--model", os.path.join(inputs, "model.params"),
                         "--events", os.path.join(inputs, "events.csv"),
                         "--students", os.path.join(inputs, "students.csv"),
                         "--out", out, "--variable", "G"],
                "out": out, "students": meta["students"]}

    def measure(self, state: dict):
        import fedstudent.cli as cli

        return cli.main(state["argv"])

    def check(self, state: dict, code) -> dict:
        problems, digest = [], None
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            with open(state["out"], newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                rows = list(reader)
            if len(rows) != state["students"]:
                problems.append(f"{len(rows)} rows for {state['students']} students")
            width = len(header)
            bad = sum(1 for row in rows
                      if len(row) != width or not all(finite(float(v)) for v in row[2:]))
            if bad:
                problems.append(f"{bad} rows malformed or non-finite")
            digest = sha256_file(state["out"])
        return {"ops": [{"op": "fedstudent dump-embeddings", "ok": not problems,
                         "error": "; ".join(problems) or None}],
                "test_auc": {}, "pretrain_loss": None, "digest": digest}


WORKLOADS = {
    "fed-plain": FedWorkload(("Local", "Central", "FedAvg", "FedAtt", "FedIRT")),
    "fed-meta": FedWorkload(("PerFedAvgAgg", "PerFedAttn")),
    "cli-pretrain": CliPretrainWorkload(),
    "score": ScoreWorkload(),
}


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def numpy_environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads()}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return func()
    return None


def cmd_setup(args) -> dict:
    probe = SpeedProbe()
    probe.start()
    import_fedstudent()
    workload = WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    meta = workload.setup(args.seed, args.dir)
    meta["digests"] = {name: sha256_file(os.path.join(args.dir, name)) for name in meta["files"]}
    with open(os.path.join(args.dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    probe.stop()
    # run.py times the whole process; it takes the probe's wall time out again.
    probe.sample(PROBE_SETUP_CHUNKS)
    meta["environment"] = numpy_environment()
    meta["probe"] = probe.report()
    return meta


def cmd_iterate(args) -> dict:
    import_fedstudent()
    workload = WORKLOADS[args.workload]
    tracer, absent = None, []
    if args.trace:
        from tracer import Tracer

        span_dir = os.path.join(args.dir, "spans")
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        tracer = Tracer(span_dir)
        absent = tracer.install()
    with open(os.path.join(args.dir, "inputs.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    state = workload.load(args.dir, meta, args.jobs)
    probe = SpeedProbe()
    # Sampling during the phase is left out where it would distort what is
    # measured: in a traced run it would land inside spans, and beside a pool
    # it would take a core from the pool's workers.
    in_flight = not args.trace and args.jobs == 1
    gc.collect()
    probe.sample(PROBE_EDGE_CHUNKS)
    wall0, cpu0 = probe.wall_spent, probe.cpu_spent
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if in_flight:
        probe.start()
    start = time.perf_counter()
    raw = workload.measure(state)
    wall = time.perf_counter() - start
    probe.stop()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(getattr(b, f) - getattr(a, f)
              for a, b in ((self0, self1), (kids0, kids1)) for f in ("ru_utime", "ru_stime"))
    wall -= probe.wall_spent - wall0
    cpu -= probe.cpu_spent - cpu0
    probe.sample(PROBE_EDGE_CHUNKS)
    result = workload.check(state, raw)
    result.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "probe": probe.report(),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "trace": tracer.summary() if tracer else None,
        "absent": absent,
    })
    return result


def cmd_kernels(args) -> dict:
    """Median microseconds per call of network.gru_forward and network.attention_pool."""
    import_fedstudent()
    import numpy as np
    from fedstudent import network
    from fedstudent.params import ModelParams

    rng = np.random.default_rng(args.seed)
    d = N_VIDEOS_ACCEPT + 7
    params = ModelParams.initialized(HIDDEN_DIM, d, rng)
    X = np.zeros((KERNEL_LENGTH, d))
    X[np.arange(KERNEL_LENGTH), rng.integers(0, N_VIDEOS_ACCEPT, KERNEL_LENGTH)] = 1.0
    X[np.arange(KERNEL_LENGTH), N_VIDEOS_ACCEPT + rng.integers(0, 7, KERNEL_LENGTH)] = 1.0
    H = network.gru_forward(params, X)
    probe = SpeedProbe()
    out = {}
    for name, call in (("gru_forward", lambda: network.gru_forward(params, X)),
                       ("attention_pool", lambda: network.attention_pool(params, H))):
        blocks = []
        for _ in range(KERNEL_BLOCKS):
            probe.sample()
            start = time.perf_counter()
            for _ in range(KERNEL_CALLS):
                call()
            blocks.append((time.perf_counter() - start) / KERNEL_CALLS * 1e6)
        out[name] = statistics.median(blocks)
    probe.sample()
    out["probe"] = probe.report()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["setup", "iterate", "kernels"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    command = {"setup": cmd_setup, "iterate": cmd_iterate, "kernels": cmd_kernels}[args.command]
    result = command(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
