import ast
import csv
import dataclasses
import inspect
import json
import os
import pathlib
import re
from operator import attrgetter

import numpy as np
import pytest

from fedstudent import cli, evaluate, synthgen
from fedstudent.cli import main
from fedstudent.config import KEYS, PLAN_KEYS, REQUIRED, ConfigError, check_plan, parse_config
from fedstudent.dataio import load_records
from fedstudent.evaluate import EvalReport, ExperimentPlan, ReportRow, cross_validate, report_to_csv
from fedstudent.params import ModelParams, load_params, save_params
from fedstudent.synthgen import (
    PROFILE_KEYS,
    SPEC_KEYS,
    CohortSpec,
    CohortSpecError,
    SubgroupProfile,
    kind_biased_transition,
    save_cohort_spec,
    spec_from_dict,
    spec_to_dict,
)

N_VIDEOS = 5


def write_spec(path, pop=16):
    profiles = []
    for name, watch_share in (("M", 0.8), ("F", 0.4)):
        profiles.append(SubgroupProfile(
            name=name,
            population=pop,
            transition=kind_biased_transition(watch_share),
            video_access=np.full(N_VIDEOS, 1.0 / N_VIDEOS),
            quiz_correct_prob=0.6,
            length_mean=6.0,
            pass_intercept=-1.0,
            pass_weight_correct=3.0,
        ))
    spec = CohortSpec(n_videos=N_VIDEOS, quiz_videos=set(range(N_VIDEOS)), profiles=profiles)
    save_cohort_spec(spec, str(path))
    return spec


CSV_DATASET = {"kind": "csv", "events_path": "data/events.csv",
               "students_path": "data/students.csv", "n_videos": N_VIDEOS}


def write_config(path, spec_path, out_dir, strategies=("FedAvg",), seeds=(0,), **extra):
    config = {
        "version": 1,
        "dataset": {"kind": "generated", "spec_path": os.path.basename(spec_path), "seed": 3},
        "variable": "G",
        "include_unspecified": False,
        "strategies": list(strategies),
        "rounds": 1,
        "local_iters": 1,
        "model": {"hidden_dim": 6, "dropout": 0.0, "batch_size": 4},
        "optimizer": {"kind": "adam", "lr": 1e-3, "decay": 1e-3},
        "meta": {"inner_lr": 0.05, "outer_lr": 0.01},
        "pretrain": {"enabled": False, "epochs": 1},
        "folds": 1,
        "seeds": list(seeds),
        "output_dir": os.path.basename(out_dir),
    }
    config.update(extra)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return config


class TestGenerate:
    def test_writes_cohort_files(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out = tmp_path / "data"
        assert main(["generate", "--spec", str(spec_path), "--seed", "5", "--out", str(out)]) == 0
        assert (out / "events.csv").exists()
        assert (out / "students.csv").exists()

    def test_missing_spec_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["generate", "--spec", str(missing), "--seed", "0", "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_directory_spec_exits_2_and_names_path(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        assert main(["generate", "--spec", str(spec_dir), "--seed", "0", "--out", str(tmp_path)]) == 2
        assert str(spec_dir) in capsys.readouterr().err

    # (the --out flag, the file in the way, which the error names)
    @pytest.mark.parametrize("out_flag, blocker", [("taken", "taken"), ("taken/sub", "taken")])
    def test_output_path_not_a_directory_exits_2_before_generating(
        self, tmp_path, capsys, monkeypatch, out_flag, blocker
    ):
        def no_generating(spec, seed):
            raise AssertionError("the cohort was generated")

        monkeypatch.setattr(cli, "generate_cohort", no_generating)
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        (tmp_path / blocker).write_text("a file\n")
        argv = ["generate", "--spec", str(spec_path), "--seed", "0", "--out", str(tmp_path / out_flag)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and str(tmp_path / blocker) in err
        assert (tmp_path / blocker).read_text() == "a file\n"

    def test_rerun_same_seed_identical_files(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--spec", str(spec_path), "--seed", "9", "--out", str(out1)])
        main(["generate", "--spec", str(spec_path), "--seed", "9", "--out", str(out2)])
        assert (out1 / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()
        assert (out1 / "students.csv").read_bytes() == (out2 / "students.csv").read_bytes()

    def test_generated_files_round_trip_through_ingest(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out = tmp_path / "data"
        main(["generate", "--spec", str(spec_path), "--seed", "5", "--out", str(out)])
        records = load_records(str(out / "events.csv"), str(out / "students.csv"), N_VIDEOS)
        assert len(records) == 32
        assert all(r.length >= 1 for r in records)


class TestRun:
    def test_run_writes_report_and_models(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", strategies=("FedAvg", "PerFedAttn"))
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == 0
        out = tmp_path / "out"
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "strategy,variable,subgroup,mean_auc,std_auc,n_runs"
        strategies = {line.split(",")[0] for line in report[1:]}
        assert strategies == {"FedAvg", "PerFedAttn"}
        assert (out / "rounds.csv").exists()
        assert (out / "manifest.json").exists()
        assert any(p.suffix == ".params" for p in (out / "models").iterdir())

    def test_missing_config_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "nope.json", tmp_path):
            assert main(["run", "--config", str(path)]) == 2
            assert str(path) in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", typo_key=True)
        assert main(["run", "--config", str(config_path)]) == 2
        assert "typo_key" in capsys.readouterr().err

    # One row per section holding a number: (top-level key, its value, the key the error names).
    @pytest.mark.parametrize("key, value, name", [
        ("rounds", "ten", "rounds"),
        ("dataset", {"kind": "generated", "spec_path": "spec.json", "seed": "three"}, "dataset.seed"),
        ("model", {"hidden_dim": [3]}, "model.hidden_dim"),
        ("optimizer", {"lr": [0.1]}, "optimizer.lr"),
        ("meta", {"meta_batch": {"size": 4}}, "meta.meta_batch"),
        ("aggregation", {"step": None}, "aggregation.step"),
        ("pretrain", {"enabled": True, "epochs": "two"}, "pretrain.epochs"),
    ])
    def test_wrongly_typed_number_exits_2_naming_key(self, tmp_path, capsys, key, value, name):
        self.assert_rejected(tmp_path, capsys, key, value, name)

    # Rates that are not finite or have the wrong sign; each used to fail late or train backwards.
    @pytest.mark.parametrize("key, value, name", [
        ("optimizer", {"lr": -0.5}, "optimizer.lr"),
        ("optimizer", {"lr": 0.0}, "optimizer.lr"),
        ("optimizer", {"lr": float("nan")}, "optimizer.lr"),
        ("optimizer", {"decay": -1.0}, "optimizer.decay"),
        ("meta", {"inner_lr": float("nan")}, "meta.inner_lr"),
        ("meta", {"outer_lr": float("inf")}, "meta.outer_lr"),
        ("meta", {"hessian_step": float("nan")}, "meta.hessian_step"),
        ("aggregation", {"step": float("inf")}, "aggregation.step"),
    ])
    def test_bad_rate_exits_2_naming_key(self, tmp_path, capsys, key, value, name):
        self.assert_rejected(tmp_path, capsys, key, value, name)

    # Values each used to be accepted and to fail late (an unknown optimizer) or to run
    # silently wrong: twice the runs, a feature switched on by the string "false", or a
    # sequence cap that drops the oldest events or no cap at all.
    @pytest.mark.parametrize("key, value, name", [
        ("optimizer", {"kind": "adamw"}, "optimizer.kind"),
        ("strategies", ["FedAvg", "FedAvg"], "strategies"),
        ("include_unspecified", "false", "include_unspecified"),
        ("pretrain", {"enabled": "false", "epochs": 1}, "pretrain.enabled"),
        ("dataset", {**CSV_DATASET, "max_sequence": -3}, "dataset.max_sequence"),
        ("dataset", {**CSV_DATASET, "max_sequence": 0}, "dataset.max_sequence"),
        ("dataset", {**CSV_DATASET, "n_videos": 0}, "dataset.n_videos"),
    ])
    def test_bad_setting_exits_2_naming_key(self, tmp_path, capsys, key, value, name):
        write_spec(tmp_path / "spec.json")
        main(["generate", "--spec", str(tmp_path / "spec.json"), "--seed", "5",
              "--out", str(tmp_path / "data")])
        self.assert_rejected(tmp_path, capsys, key, value, name)

    @staticmethod
    def assert_rejected(tmp_path, capsys, key, value, name):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", **{key: value})
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_seed_override_gives_single_run(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", seeds=(0, 1))
        assert main(["run", "--config", str(config_path), "--seed", "7", "--jobs", "1"]) == 0
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert all(line.endswith(",1") for line in report[1:])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_naming_flag(self, tmp_path, capsys, jobs):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out")
        assert main(["run", "--config", str(config_path), "--jobs", jobs]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # (the config's output_dir, the --out flag or None, the file in the way, which the error names)
    @pytest.mark.parametrize("output_dir, out_flag, blocker", [
        ("taken", None, "taken"),
        ("out", "taken", "taken"),
        ("out", "taken/sub", "taken"),
        ("out", None, "out/models"),
    ])
    def test_output_path_not_a_directory_exits_2_before_loading(
        self, tmp_path, capsys, monkeypatch, output_dir, out_flag, blocker
    ):
        def no_loading(config):
            raise AssertionError("the cohort was loaded")

        monkeypatch.setattr(cli, "_load_dataset", no_loading)
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / output_dir)
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("a file\n")
        argv = ["run", "--config", str(config_path), "--jobs", "1"]
        if out_flag is not None:
            argv += ["--out", str(tmp_path / out_flag)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory") and str(tmp_path / blocker) in err
        assert (tmp_path / blocker).read_text() == "a file\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_student_subgroup_exits_2_naming_it(self, tmp_path, capsys, jobs):
        """The split fails inside a run task; at --jobs 2 its error crosses the pool."""
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        spec = json.loads(spec_path.read_text())
        spec["profiles"][1]["population"] = 1  # the one F student
        spec_path.write_text(json.dumps(spec))
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", seeds=(0, 1))
        assert main(["run", "--config", str(config_path), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: subgroup G:F too small for a 1-fold split\n"
        assert not (tmp_path / "out").exists()

    def test_subgroups_without_validation_students_warn(self, tmp_path, capsys):
        """Two students per label leave G:F and G:M no validation students at one fold, so
        FedAvg's validation AUC is never defined; the run keeps the final model and prints
        the warning on its own line."""
        data = tmp_path / "data"
        data.mkdir()
        students = [(f"s{i}", "FM"[i // 4], i % 2) for i in range(8)]
        (data / "students.csv").write_text("student_id,gender,continent,birth_year,label\n" + "".join(
            f"{sid},{gender},,,{label}\n" for sid, gender, label in students))
        (data / "events.csv").write_text("student_id,timestamp,kind,video_index,points,max_points\n" + "".join(
            f"{sid},0,watch_correct,1,1.0,1.0\n{sid},1,forum_post,,,\n" for sid, _, _ in students))
        config_path = tmp_path / "config.json"
        write_config(config_path, tmp_path / "unused.json", tmp_path / "out", dataset=CSV_DATASET)
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "warning: FedAvg: validation AUC never defined for G:F, G:M; using the final model" in lines

    def test_fedirt_without_quiz_responses_exits_1_naming_task(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = spec_to_dict(write_spec(spec_path))
        spec["quiz_videos"] = []
        spec_path.write_text(json.dumps(spec))
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", strategies=("FedIRT",))
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == 1
        assert capsys.readouterr().err == ("error: FedIRT fold 0 seed 0: subgroup G:F: cannot fit "
                                           "responses: no student has any quiz responses\n")

    def test_byte_identical_reports_across_jobs(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", seeds=(0, 1))
        main(["run", "--config", str(config_path), "--jobs", "1", "--out", str(tmp_path / "o1")])
        main(["run", "--config", str(config_path), "--jobs", "2", "--out", str(tmp_path / "o2")])
        assert (tmp_path / "o1" / "report.csv").read_bytes() == (tmp_path / "o2" / "report.csv").read_bytes()
        m1 = sorted((tmp_path / "o1" / "models").iterdir())
        m2 = sorted((tmp_path / "o2" / "models").iterdir())
        assert [p.name for p in m1] == [p.name for p in m2]
        for p1, p2 in zip(m1, m2):
            assert p1.read_bytes() == p2.read_bytes()


# Wrongly typed values for each type a config or cohort spec row can have; a boolean is
# never a number, and a number is finite.
WRONG_TYPE = {"integer": [2.7, True, "3"], "number": [True, "0.1", float("nan"), float("inf")],
              "boolean": [0, "false"], "string": [5], "file": [5], "dir": [5], "object": [5]}


def bad_values(key):
    """Values `key`'s row rejects: wrongly typed ones, ones out of its bound or set (in
    an array, as its one item), and its absence (`REQUIRED`) where it is required."""
    if key.type.endswith(" array"):
        item = dataclasses.replace(key, type=key.type.removesuffix(" array"), default=None)
        bad = ["x"] + [[value] for value in bad_values(item)]
    else:
        bad = list(WRONG_TYPE[key.type])
        if key.choices is not None:
            bad.append("x" if key.type == "string" else max(key.choices) + 1)
        if key.low is not None:
            bad.append(key.low if key.strict else key.low - 1)
        if key.high is not None:
            bad.append(key.high + 1 if key.closed else key.high)
        if key.type == "file":
            bad.append("missing.json")
    return bad + ([REQUIRED] if key.default is REQUIRED else [])


def case_id(name, value):
    return f"{name}=" + ("<missing>" if value is REQUIRED else repr(value))


def config_bad_values(key):
    """Values a config row rejects: `bad_values`, and for an array also an empty one and
    one that repeats a value."""
    return bad_values(key) + ([[], key.default[:1] * 2] if key.type.endswith(" array") else [])


def table_cases():
    """(dotted name, the dataset kind it needs, a value to reject) for every row of the
    config table: `config_bad_values`, and a non-object for every section."""
    cases = [pytest.param(key.name, key.dataset, value, id=case_id(key.name, value))
             for key in KEYS for value in config_bad_values(key)]
    sections = sorted({key.name.partition(".")[0] for key in KEYS if "." in key.name})
    return cases + [pytest.param(name, None, 5, id=f"{name}=5") for name in sections]


@pytest.mark.parametrize("name, dataset_kind, value", table_cases())
def test_config_table_rejects_naming_key(tmp_path, capsys, name, dataset_kind, value):
    spec_path = tmp_path / "spec.json"
    write_spec(spec_path)
    config = write_config(tmp_path / "config.json", spec_path, tmp_path / "out")
    if dataset_kind == "csv":
        (tmp_path / "data").mkdir()
        for path in (CSV_DATASET["events_path"], CSV_DATASET["students_path"]):
            (tmp_path / path).touch()
        config["dataset"] = dict(CSV_DATASET)
    section, _, field = name.rpartition(".")
    holder = config.setdefault(section, {}) if section else config
    if value is REQUIRED:
        del holder[field]
    else:
        holder[field] = value
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp_path / "config.json"), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


EXAMPLE_DIR = os.path.join(os.path.dirname(__file__), "..", "examples_config")
# A config with only the required keys; every plan key takes its default.
REQUIRED_ONLY = {"version": 1, "dataset": {"kind": "generated", "spec_path": "cohort.json"}}


def with_value(plan, attr, value):
    """`plan` with the attribute at the dotted path `attr` set to `value`."""
    part, _, name = attr.rpartition(".")
    if part:
        value = dataclasses.replace(getattr(plan, part), **{name: value})
        name = part
    return dataclasses.replace(plan, **{name: value})


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=case_id(key.name, value))
    for key in PLAN_KEYS for value in config_bad_values(key)
])
def test_code_built_plan_rejects_naming_key(monkeypatch, key, value):
    """A plan built in code whose value a config row rejects (an array given as a tuple)
    fails in cross_validate before any task, with the error a JSON config gets."""
    with open(os.path.join(EXAMPLE_DIR, "experiment.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    section, _, field = key.name.rpartition(".")
    (config.setdefault(section, {}) if section else config)[field] = value
    with pytest.raises(ConfigError) as from_json:
        parse_config(config, base_dir=EXAMPLE_DIR)

    def no_tasks(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(evaluate, "_task_mapper", no_tasks)
    plan = with_value(ExperimentPlan(), key.attr, tuple(value) if isinstance(value, list) else value)
    with pytest.raises(ConfigError) as from_code:
        cross_validate([], plan)
    assert str(from_code.value) == str(from_json.value)
    assert key.name in str(from_code.value)


def test_config_names_every_fault_in_table_order():
    """Two values out of bounds and an unknown key are all named, in table order, and a
    plan built in code with the same two values gets the same text for them."""
    with open(os.path.join(EXAMPLE_DIR, "experiment.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    config["typo"] = 1
    config["model"] = dict(config.get("model", {}), dropout=2.0)
    config["rounds"] = -1
    both = "rounds must be >= 0, got -1; model.dropout must be < 1, got 2.0"
    with pytest.raises(ConfigError) as from_json:
        parse_config(config, base_dir=EXAMPLE_DIR)
    assert str(from_json.value) == both + "; unknown keys: ['typo']"
    plan = with_value(with_value(ExperimentPlan(), "rounds", -1), "settings.dropout", 2.0)
    with pytest.raises(ConfigError) as from_code:
        check_plan(plan)
    assert str(from_code.value) == both


def test_one_reader_walks_every_key_table():
    """Only `config.py` refers to `REQUIRED` or calls `violation`, so the config, a plan
    built in code, the cohort spec and its profiles are all read by its `read_keys`."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    readers = {
        path.name for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if {getattr(node, field, None) for field in ("id", "attr", "name")} & {"REQUIRED", "violation"}
    }
    assert readers == {"config.py"}


@pytest.mark.parametrize("key", PLAN_KEYS, ids=lambda key: key.name)
def test_json_default_is_the_plan_default(key):
    """A plan key left out of a config reads as `ExperimentPlan()`'s value, so a plan
    built in code and its JSON twin agree on every key that neither sets."""
    parsed = parse_config(REQUIRED_ONLY, base_dir=EXAMPLE_DIR).plan
    assert attrgetter(key.attr)(parsed) == attrgetter(key.attr)(ExperimentPlan())


def test_required_keys_alone_parse_to_the_default_plan():
    assert parse_config(REQUIRED_ONLY, base_dir=EXAMPLE_DIR).plan == ExperimentPlan()
    with_null = dict(REQUIRED_ONLY, meta={"outer_lr": None, "meta_batch": None})
    assert parse_config(with_null, base_dir=EXAMPLE_DIR).plan == ExperimentPlan()


def write_changed_spec(tmp_path, path, value):
    """A valid spec with the value at `path` in its plain form set to `value`, or
    deleted for `REQUIRED`; returns the spec file's path."""
    return write_spec_changes(tmp_path, {path: value})


def write_spec_changes(tmp_path, changes):
    """A valid spec with the value at each path of `changes` in its plain form set to
    its value, or deleted for `REQUIRED`; returns the spec file's path."""
    data = spec_to_dict(write_spec(tmp_path / "good.json"))
    for path, value in changes.items():
        holder = data
        for part in path[:-1]:
            holder = holder[part]
        if value is REQUIRED:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data))
    return spec_path


def spec_table_cases():
    """(path to the key in a spec's plain form, the name errors give it, a value to
    reject) for every row of the cohort spec's tables; profile rows in profiles[0]."""
    cases = []
    for keys, path, prefix in ((SPEC_KEYS, (), ""), (PROFILE_KEYS, ("profiles", 0), "profiles[0].")):
        for key in keys:
            name = prefix + key.name
            cases += [pytest.param(path + (key.name,), name, value, id=case_id(name, value))
                      for value in bad_values(key)]
    return cases


def test_cohort_spec_names_missing_and_misspelt_profile_key(tmp_path):
    data = spec_to_dict(write_spec(tmp_path / "spec.json"))
    data["profiles"][0]["populaton"] = data["profiles"][0].pop("population")
    with pytest.raises(CohortSpecError) as info:
        spec_from_dict(data)
    assert str(info.value) == ("invalid cohort spec: profiles[0].population is required; "
                               "unknown keys: ['profiles[0].populaton']")


@pytest.mark.parametrize("path, name, value", spec_table_cases())
def test_cohort_spec_table_rejects_naming_key(tmp_path, capsys, path, name, value):
    spec_path = write_changed_spec(tmp_path, path, value)
    assert main(["generate", "--spec", str(spec_path), "--seed", "0", "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


# Cohort spec values that were truncated (n_videos, quiz_videos), read as 1 (a boolean),
# accepted (a fractional population), or ended in a traceback (a string, a non-array,
# ragged transition rows, an unknown variable, a sequence cap below 1); and the open
# ends of two bounds, which the table-generated cases take from the table itself.
@pytest.mark.parametrize("path, value, name", [
    (("n_videos",), 12.9, "n_videos"),
    (("max_sequence",), True, "max_sequence"),
    (("profiles", 0, "population"), 400.7, "profiles[0].population"),
    (("quiz_videos",), [0.5], "quiz_videos"),
    (("profiles", 0, "population"), "400", "profiles[0].population"),
    (("profiles",), 5, "profiles"),
    (("profiles", 0, "transition"), [[1.0], [0.5, 0.5]], "profiles[0].transition"),
    (("demographic_variable",), "Q", "demographic_variable"),
    (("max_sequence",), 0, "max_sequence"),
    (("unspecified_fraction",), 1.0, "unspecified_fraction"),
    (("profiles", 0, "length_dispersion"), 0.0, "profiles[0].length_dispersion"),
])
def test_cohort_spec_types_exit_2_naming_key(tmp_path, capsys, path, value, name):
    spec_path = write_changed_spec(tmp_path, path, value)
    assert main(["generate", "--spec", str(spec_path), "--seed", "0", "--out", str(tmp_path / "data")]) == 2
    assert name in capsys.readouterr().err
    write_config(tmp_path / "config.json", spec_path, tmp_path / "out")
    assert main(["run", "--config", str(tmp_path / "config.json"), "--jobs", "1"]) == 2
    assert name in capsys.readouterr().err


NEGATIVE_ROW = kind_biased_transition(0.8)
NEGATIVE_ROW[0] = [1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
RAGGED = kind_biased_transition(0.8).tolist()
RAGGED[3] = RAGGED[3][:6]


# A fault of a shape, sum, name or length draw in one value of the spec `write_spec`
# writes: (the value's path in the spec's plain form, the value, the fault's message).
SPEC_SHAPE_FAULTS = [
    (("quiz_videos",), [0, N_VIDEOS], "quiz_videos must be a subset of [0, n_videos)"),
    (("profiles", 0, "transition"), kind_biased_transition(0.8)[:6].tolist(),
     "profiles[0].transition must be 7x7"),
    (("profiles", 0, "transition"), NEGATIVE_ROW.tolist(), "profiles[0].transition has negative entries"),
    (("profiles", 0, "transition"), (0.9 * kind_biased_transition(0.8)).tolist(),
     "profiles[0].transition rows must sum to 1"),
    (("profiles", 1, "video_access"), [0.5, 0.5], f"profiles[1].video_access must have length {N_VIDEOS}"),
    (("profiles", 1, "video_access"), [0.5] * N_VIDEOS, "profiles[1].video_access must be a distribution"),
    (("profiles",), [], "at least one profile is required"),
    # Inside every bound, yet numpy's negative_binomial refuses the length draw.
    (("profiles", 0, "length_mean"), 1e20,
     "profiles[0].length_mean 1e+20 with profiles[0].length_dispersion 1.0 is outside the length draw's domain"),
    (("profiles", 1, "length_dispersion"), 1e-300,
     "profiles[1].length_mean 6.0 with profiles[1].length_dispersion 1e-300 is outside the length draw's domain"),
]


@pytest.mark.parametrize("path, value, message", [
    pytest.param(*case, id=case[2]) for case in SPEC_SHAPE_FAULTS
])
def test_cohort_spec_shape_fault_exits_2_naming_it(tmp_path, capsys, monkeypatch, path, value, message):
    """Each fault exits `generate` with 2 before any student is drawn, naming the spec file;
    a spec built in code with the same value lists the same message in `validate()`."""
    def no_draw(*args):
        raise AssertionError("a student was drawn")

    monkeypatch.setattr(synthgen, "_simulate_student", no_draw)
    spec_path = write_changed_spec(tmp_path, path, value)
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {spec_path}: invalid cohort spec: {message}\n"
    spec = write_spec(tmp_path / "good.json")
    if len(path) == 3:
        profiles = list(spec.profiles)
        profiles[path[1]] = dataclasses.replace(profiles[path[1]], **{path[2]: value})
        spec = dataclasses.replace(spec, profiles=profiles)
    else:
        spec = dataclasses.replace(spec, **{path[0]: value})
    assert spec.validate() == [message]
    with pytest.raises(CohortSpecError, match=re.escape(message)):
        synthgen.generate_cohort(spec, seed=0)


@pytest.mark.parametrize("changes, message", [
    pytest.param({("profiles", 0, "population"): 0, ("profiles", 1, "video_access"): [0.5] * N_VIDEOS},
                 "profiles[0].population must be >= 1, got 0; profiles[1].video_access must be a distribution",
                 id="two faults"),
    pytest.param({("profiles", 0, "transition"): RAGGED}, "profiles[0].transition must be 7x7", id="ragged"),
    # Key faults in table order, each table's unknown keys last, then the rest by profile.
    pytest.param({("profiles", 1, "population"): 0, ("profiles", 0, "typo"): 1,
                  ("profiles", 1, "transition"): RAGGED, ("profiles", 0, "length_mean"): 1e20,
                  ("quiz_videos",): [9]},
                 "unknown keys: ['profiles[0].typo']; profiles[1].population must be >= 1, got 0; "
                 "quiz_videos must be a subset of [0, n_videos); profiles[0].length_mean 1e+20 with "
                 "profiles[0].length_dispersion 1.0 is outside the length draw's domain; "
                 "profiles[1].transition must be 7x7", id="order"),
    # With no n_videos to check against, the checks that need it are skipped.
    pytest.param({("n_videos",): 0, ("quiz_videos",): [9], ("profiles", 0, "video_access"): [1.0]},
                 "n_videos must be >= 1, got 0", id="skipped"),
    # quiz_videos is checked item by item, never against a set of every video index.
    pytest.param({("n_videos",): 10 ** 12},
                 f"profiles[0].video_access must have length {10 ** 12}; "
                 f"profiles[1].video_access must have length {10 ** 12}", id="huge n_videos"),
])
def test_cohort_spec_names_every_fault_at_once(tmp_path, capsys, changes, message):
    spec_path = write_spec_changes(tmp_path, changes)
    assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == f"error: {spec_path}: invalid cohort spec: {message}\n"


def test_readme_config_example_parses():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"### Experiment configuration\n.*?```json\n(.*?)```", readme, re.S).group(1)
    example = json.loads(block)
    config = parse_config(example, base_dir=os.path.join(root, "examples_config"))
    assert config.plan.strategies == tuple(example["strategies"])


class TestDumpEmbeddings:
    def test_dump_produces_k_plus_two_columns(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out = tmp_path / "data"
        main(["generate", "--spec", str(spec_path), "--seed", "5", "--out", str(out)])
        model = ModelParams.initialized(6, N_VIDEOS + 7, np.random.default_rng(0))
        model_path = tmp_path / "model.params"
        save_params(model, str(model_path))
        emb_path = tmp_path / "emb.csv"
        code = main([
            "dump-embeddings", "--model", str(model_path),
            "--events", str(out / "events.csv"), "--students", str(out / "students.csv"),
            "--out", str(emb_path),
        ])
        assert code == 0
        lines = emb_path.read_text().splitlines()
        assert lines[0].split(",") == ["student_id", "subgroup"] + [f"h_{i+1}" for i in range(6)]
        assert len(lines) == 1 + 32

    def test_dump_round_trips_every_float(self, tmp_path):
        """Read back with csv.reader and float(), each row is `export_embeddings`' vector bit for bit."""
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        data = tmp_path / "data"
        main(["generate", "--spec", str(spec_path), "--seed", "6", "--out", str(data)])
        model_path = tmp_path / "model.params"
        save_params(ModelParams.initialized(6, N_VIDEOS + 7, np.random.default_rng(1)), str(model_path))
        emb_path = tmp_path / "emb.csv"
        assert main(["dump-embeddings", "--model", str(model_path), "--events", str(data / "events.csv"),
                     "--students", str(data / "students.csv"), "--out", str(emb_path)]) == 0
        records = load_records(str(data / "events.csv"), str(data / "students.csv"), n_videos=N_VIDEOS)
        dump = evaluate.export_embeddings(load_params(str(model_path)), records, "G", False)
        with open(emb_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [[sid, subgroup] for sid, subgroup, _ in dump.rows]
        written = np.array([[float(cell) for cell in row[2:]] for row in rows])
        assert written.tobytes() == np.array([vector for _, _, vector in dump.rows]).tobytes()

    def test_corrupt_model_exits_1(self, tmp_path, capsys):
        model_path = tmp_path / "model.params"
        model_path.write_bytes(b"garbage data\n")
        code = main([
            "dump-embeddings", "--model", str(model_path),
            "--events", "x", "--students", "y", "--out", str(tmp_path / "emb.csv"),
        ])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden_dim, input_dim", [(4, 3), (4, 7), (0, N_VIDEOS + 7)])
    def test_model_that_fits_no_activity_encoding_exits_1(self, tmp_path, capsys, hidden_dim, input_dim):
        """Checked before the events are read: their missing file would exit 2."""
        model_path = tmp_path / "model.params"
        save_params(ModelParams.zeros(hidden_dim, input_dim), str(model_path))
        emb_path = tmp_path / "emb.csv"
        code = main(["dump-embeddings", "--model", str(model_path),
                     "--events", "x", "--students", "y", "--out", str(emb_path)])
        assert code == 1
        assert f"{model_path}: hidden_dim {hidden_dim} and input_dim {input_dim}" in capsys.readouterr().err
        assert not emb_path.exists()

    @pytest.mark.parametrize("flag", ["--model", "--events", "--students"])
    @pytest.mark.parametrize("problem", ["missing", "directory"])
    def test_bad_input_path_exits_2_and_names_path(self, tmp_path, capsys, flag, problem):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, pop=4)
        data = tmp_path / "data"
        main(["generate", "--spec", str(spec_path), "--seed", "5", "--out", str(data)])
        model_path = tmp_path / "model.params"
        save_params(ModelParams.zeros(4, N_VIDEOS + 7), str(model_path))
        paths = {"--model": model_path, "--events": data / "events.csv",
                 "--students": data / "students.csv"}
        paths[flag] = tmp_path / "bad"
        if problem == "directory":
            paths[flag].mkdir()
        argv = ["dump-embeddings", "--out", str(tmp_path / "emb.csv")]
        for name, path in paths.items():
            argv += [name, str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert str(paths[flag]) in capsys.readouterr().err
        assert not (tmp_path / "emb.csv").exists()

    @pytest.mark.parametrize("out", ["existing_dir", "missing_dir/emb.csv"])
    def test_bad_output_path_exits_2_before_loading(self, tmp_path, capsys, monkeypatch, out):
        def no_loading(path):
            raise AssertionError("the model was loaded")

        monkeypatch.setattr(cli, "load_params", no_loading)
        (tmp_path / "existing_dir").mkdir()
        argv = ["dump-embeddings", "--model", str(tmp_path / "model.params"), "--events", "x",
                "--students", "y", "--out", str(tmp_path / out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: output file {tmp_path / out}:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing_dir"]
        assert list((tmp_path / "existing_dir").iterdir()) == []

    def test_empty_student_list_header_only(self, tmp_path):
        events = tmp_path / "events.csv"
        students = tmp_path / "students.csv"
        events.write_text("student_id,timestamp,kind,video_index,points,max_points\n")
        students.write_text("student_id,gender,continent,birth_year,label\n")
        model = ModelParams.zeros(4, N_VIDEOS + 7)
        model_path = tmp_path / "model.params"
        save_params(model, str(model_path))
        emb_path = tmp_path / "emb.csv"
        code = main([
            "dump-embeddings", "--model", str(model_path),
            "--events", str(events), "--students", str(students),
            "--out", str(emb_path),
        ])
        assert code == 0
        assert emb_path.read_text().splitlines() == [
            "student_id,subgroup," + ",".join(f"h_{i+1}" for i in range(4))
        ]


class TestMalformedIngest:
    def test_run_and_dump_exit_2_naming_file_and_line(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        data = tmp_path / "data"
        main(["generate", "--spec", str(spec_path), "--seed", "5", "--out", str(data)])
        events = data / "events.csv"
        lines = events.read_text().splitlines()
        student = lines[1].split(",")[0]
        lines.append(f"{student},0,watch_noquiz,{N_VIDEOS + 3},,")  # video index out of range
        events.write_text("\n".join(lines) + "\n")
        where = f"{events}:{len(lines)}:"
        capsys.readouterr()

        config_path = tmp_path / "config.json"
        write_config(config_path, spec_path, tmp_path / "out", dataset={
            "kind": "csv", "events_path": "data/events.csv",
            "students_path": "data/students.csv", "n_videos": N_VIDEOS,
        })
        assert main(["run", "--config", str(config_path), "--jobs", "1"]) == 2
        assert where in capsys.readouterr().err

        model_path = tmp_path / "model.params"
        save_params(ModelParams.zeros(4, N_VIDEOS + 7), str(model_path))
        code = main([
            "dump-embeddings", "--model", str(model_path), "--events", str(events),
            "--students", str(data / "students.csv"), "--out", str(tmp_path / "emb.csv"),
        ])
        assert code == 2
        assert where in capsys.readouterr().err


class TestReportCommand:
    def test_pretty_print(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        report.write_text("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,0.7,0.01,5\n")
        assert main(["report", "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "FedAvg" in out and "G:M" in out

    def test_written_report_prints(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rows = [ReportRow("PerFedAttn", "G", "G:F", 0.7857142857142857, 0.025, 5),
                ReportRow("Local", "G", "G:M", 0.5, 0.0, 1)]
        report_to_csv(EvalReport(rows=rows, outcomes=[], warnings=[]), str(report))
        assert main(["report", "--report", str(report)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[1].split(" | ")[3].strip() == "0.7857142857142857"

    @pytest.mark.parametrize("text, line, message", [
        ("strategy,variable\nx\n", 1, "expected header"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,notanumber,0.01,5\n", 2,
         "mean_auc must be a finite number, got 'notanumber'"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,0.7,0.01,5\nFedAtt,G,G:M,0.7,inf,5\n",
         3, "std_auc must be a finite number, got 'inf'"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,0.7,0.01,0\n", 2,
         "n_runs must be a positive integer, got '0'"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,0.7,0.01\n", 2, "expected 6 fields"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\n" + "x" * 200_000 + ",G,G:M,0.7,0.01,5\n", 2,
         "field larger than field limit (131072)"),
        ("strategy,variable,subgroup,mean_auc,std_auc,n_runs\nFedAvg,G,G:M,0.7,0.01,5\n" + "x" * 200_000
         + ",G,G:M,0.7,0.01,5\n", 3, "field larger than field limit (131072)"),
    ], ids=["header", "mean_auc", "std_auc_inf", "n_runs", "field_count", "unparseable_line2",
            "unparseable_line3"])
    def test_malformed_report_exits_1_naming_line(self, tmp_path, capsys, text, line, message):
        report = tmp_path / "report.csv"
        report.write_text(text)
        assert main(["report", "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {report}:{line}: {message}")
        assert "Traceback" not in captured.err

    def test_missing_report_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "nope.csv", tmp_path):
            assert main(["report", "--report", str(path)]) == 2
            assert str(path) in capsys.readouterr().err


# The corruption sweep: every input of every command, each broken one way on a tiny
# cohort so that it fails while loading. Anything the user wrote or named exits 2; a
# model file or report, which this program writes, exits 1. Each error names its file,
# and its line for a CSV row; undecodable bytes name the file alone.
COMMAND_INPUTS = {"generate": ("spec",), "run": ("config", "events", "students"),
                  "dump-embeddings": ("model", "events", "students"), "report": ("report",)}
FORMAT = {"spec": "json", "config": "json", "events": "csv", "students": "csv",
          "model": "model", "report": "csv"}
EXIT_CODE = {"spec": 2, "config": 2, "events": 2, "students": 2, "model": 1, "report": 1}
# Where each input holds a number: a JSON key path, a CSV column, or a model layer.
NUMBER_AT = {"spec": ("profiles", 0, "quiz_correct_prob"), "config": ("optimizer", "lr"),
             "events": "max_points", "students": "birth_year", "report": "mean_auc",
             "model": "attn.p"}


def sweep_files(tmp_path):
    """The path of every input, each valid, for the tiny cohort."""
    files = {"spec": tmp_path / "spec.json", "config": tmp_path / "config.json",
             "events": tmp_path / "data" / "events.csv", "students": tmp_path / "data" / "students.csv",
             "model": tmp_path / "model.params", "report": tmp_path / "report.csv"}
    write_spec(files["spec"], pop=4)
    assert main(["generate", "--spec", str(files["spec"]), "--out", str(tmp_path / "data")]) == 0
    write_config(files["config"], files["spec"], tmp_path / "out", dataset=CSV_DATASET)
    save_params(ModelParams.zeros(4, N_VIDEOS + 7), str(files["model"]))
    rows = [ReportRow("FedAvg", "G", "G:F", 0.75, 0.01, 1), ReportRow("FedAvg", "G", "G:M", 0.5, 0.0, 1)]
    report_to_csv(EvalReport(rows=rows, outcomes=[], warnings=[]), str(files["report"]))
    return files


def command_argv(command, files, tmp_path):
    return {
        "generate": ["generate", "--spec", str(files["spec"]), "--out", str(tmp_path / "gen")],
        "run": ["run", "--config", str(files["config"]), "--jobs", "1"],
        "dump-embeddings": ["dump-embeddings", "--model", str(files["model"]), "--events",
                            str(files["events"]), "--students", str(files["students"]),
                            "--out", str(tmp_path / "emb.csv")],
        "report": ["report", "--report", str(files["report"])],
    }[command]


def _read_rows(path):
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _write_rows(path, rows):
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def _where(path, line):
    return f"{path}:{line}:"


def corrupt_empty(name, path):
    path.write_bytes(b"")
    return _where(path, 1) if FORMAT[name] == "csv" else str(path)


def corrupt_truncated(name, path):
    """Cut a CSV file in the middle of the first field of its last row; cut another at half."""
    data = path.read_bytes()
    if FORMAT[name] != "csv":
        path.write_bytes(data[:len(data) // 2])
        return str(path)
    lines = data.rstrip(b"\n").split(b"\n")
    first_field = lines[-1].split(b",")[0]
    path.write_bytes(b"\n".join(lines[:-1] + [first_field[:len(first_field) // 2]]))
    return _where(path, len(lines))


def corrupt_wrong_header(name, path):
    """Swap the first two columns of a CSV header, or name another version or magic."""
    if FORMAT[name] == "csv":
        rows = _read_rows(path)
        rows[0][:2] = rows[0][1::-1]
        _write_rows(path, rows)
        return _where(path, 1)
    if FORMAT[name] == "model":
        path.write_bytes(path.read_bytes().replace(b"fedstudent-params", b"fedstudent-weights", 1))
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), "version": 2}))
    return str(path)


def corrupt_number(value):
    def corrupt(name, path):
        at = NUMBER_AT[name]
        if FORMAT[name] == "model":
            params = load_params(str(path))
            params[at][0] = value
            save_params(params, str(path))
            return str(path)
        if FORMAT[name] == "json":
            data = json.loads(path.read_text())
            holder = data
            for part in at[:-1]:
                holder = holder[part]
            holder[at[-1]] = value
            path.write_text(json.dumps(data))
            return str(path)
        rows = _read_rows(path)
        rows[-1][rows[0].index(at)] = str(value)
        if name == "events":
            rows[-1][rows[0].index("points")] = "1"  # with both given, the row's outcome is read
        _write_rows(path, rows)
        return _where(path, len(rows))
    return corrupt


def corrupt_not_utf8(name, path):
    """Put bytes that are not UTF-8 in the middle of the last line of a text file, or of
    a model's header line."""
    data = path.read_bytes()
    if FORMAT[name] == "model":
        start = data.index(b"\n") + 1
        end = data.index(b"\n", start)
    else:
        end = len(data.rstrip(b"\n"))
        start = data.rfind(b"\n", 0, end) + 1
    at = (start + end) // 2
    path.write_bytes(data[:at] + b"\xff\xfe" + data[at:])
    return f"{path}: not UTF-8 text" if FORMAT[name] == "csv" else str(path)


def corrupt_oversized_field(name, path):
    """A first field of 200 KiB in the last row, over the csv module's limit."""
    rows = _read_rows(path)
    rows[-1][0] = "x" * 200_000
    _write_rows(path, rows)
    return _where(path, len(rows))


def corrupt_repeated_id(name, path):
    rows = _read_rows(path)
    _write_rows(path, rows + [rows[1]])
    return _where(path, len(rows) + 1)


CORRUPTIONS = {"empty": corrupt_empty, "truncated": corrupt_truncated,
               "wrong_header": corrupt_wrong_header, "nan": corrupt_number(float("nan")),
               "inf": corrupt_number(float("inf")), "not_utf8": corrupt_not_utf8,
               "oversized_field": corrupt_oversized_field, "repeated_id": corrupt_repeated_id}


def sweep_cases():
    """(command, input, corruption) for each input of each command and each corruption
    that its format has: an oversized field for a CSV file, a repeated id for students.csv."""
    cases = []
    for command, names in COMMAND_INPUTS.items():
        for name in names:
            for case in CORRUPTIONS:
                if ((case == "oversized_field" and FORMAT[name] != "csv")
                        or (case == "repeated_id" and name != "students")):
                    continue
                cases.append(pytest.param(command, name, case, id=f"{command}-{name}-{case}"))
    return cases


@pytest.mark.parametrize("command, name, case", sweep_cases())
def test_corrupt_input_exits_with_its_code_naming_it(tmp_path, capsys, command, name, case):
    files = sweep_files(tmp_path)
    where = CORRUPTIONS[case](name, files[name])
    capsys.readouterr()
    assert main(command_argv(command, files, tmp_path)) == EXIT_CODE[name]
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and where in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not any((tmp_path / out).exists() for out in ("gen", "out", "emb.csv"))


def test_main_alone_maps_errors_to_exit_codes():
    """`main` holds the only `try` in cli.py, so no `cmd_*` catches anything, and the only
    error class cli.py names is `InputError`: no command lists the classes of another module."""
    try_nodes = (ast.Try, getattr(ast, "TryStar", ast.Try))  # TryStar: Python 3.11+
    tree = ast.parse(inspect.getsource(cli))
    tries = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
             for inner in ast.walk(node) if isinstance(inner, try_nodes)}
    names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
             | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names})
    assert tries == {"main"}
    assert sum(isinstance(node, try_nodes) for node in ast.walk(tree)) == 1
    assert {name for name in names if name.endswith("Error")} == {"InputError"}
