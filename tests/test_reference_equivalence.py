"""The round driver against a frozen copy of the four loops it replaced.

`reference.federation_v0` is the earlier `federation.py` with its evaluation
model rebuilt by replaying the adaptation, as `execute_run` used to do, on the
earlier per-sequence network. Every strategy must give the same validation AUC
in every round row, the same selected round and the same warnings, and final
parameters, evaluation models and train_loss within a relative tolerance:

* 1e-12 for first-order strategies. The batch network runs each step as one
  matrix product over the batch, which adds its terms in another order than
  the per-sequence oracle, so values differ by rounding (about 1e-15) that
  training carries forward (measured at most 2.5e-14 over seeds 4-7);
* 1e-9 for PerFedAttn, whose finite-difference Hessian-vector product divides
  the rounding difference of two gradients by the step 2 * delta = 2e-4
  (measured at most 1.1e-11 over seeds 4-7).

Four further differences are expected:

* Local's rows now come step-major rather than subgroup-major, so both lists
  are compared after a stable sort by subgroup;
* FedIRT's train_loss used to be None and is now the last local epoch's mean
  loss, as for FedAvg;
* at zero rounds no validation step runs, so no strategy warns that validation
  AUC was never defined, where the old Local and Central loops did;
* the meta strategies' train_loss used to be the mean of the round's batch
  means and is now the last local epoch's mean student loss, as for FedAvg.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

from fedstudent.federation import (
    STRATEGIES,
    ExperimentPlan,
    MetaConfig,
    TrainSettings,
    run_federation,
)
from fedstudent.splits import DatasetSplit, SplitAssignment, build_fold_split
from fedstudent.synthgen import CohortSpec, SubgroupProfile, generate_cohort, kind_biased_transition
from reference import federation_v0 as ref

N_VIDEOS = 5
# Under these seeds the validation choice differs between strategies: some
# pick the final round, some an earlier one, and Local's subgroups pick apart.
SEEDS = (4, 5)
SETTINGS = TrainSettings(hidden_dim=6, dropout=0.5, batch_size=4, lr=0.02)


def cohort():
    profiles = [
        SubgroupProfile(
            name=name, population=20, transition=kind_biased_transition(watch_share),
            video_access=np.full(N_VIDEOS, 1.0 / N_VIDEOS), quiz_correct_prob=0.6,
            length_mean=6.0, pass_intercept=-1.0, pass_weight_correct=3.0,
            pass_weight_forum=0.0,
        )
        for name, watch_share in (("M", 0.8), ("F", 0.4))
    ]
    spec = CohortSpec(n_videos=N_VIDEOS, quiz_videos=set(range(N_VIDEOS)), profiles=profiles)
    return generate_cohort(spec, seed=0)


def single_label_validation(split, records):
    """Move every validation student outside the majority label into training."""
    assignments = {}
    for key, a in split.assignments.items():
        labels = [records[sid].label for sid in a.val]
        keep = max((0, 1), key=labels.count)
        moved = [sid for sid in a.val if records[sid].label != keep]
        assignments[key] = SplitAssignment(
            train=a.train + moved, val=[sid for sid in a.val if sid not in moved], test=a.test,
        )
    return DatasetSplit(assignments=assignments)


def meta_cfg(strategy):
    # PerFedAttn exercises the finite-difference Hessian-vector product.
    mode = "hessian_fd" if strategy == "PerFedAttn" else "first_order"
    return MetaConfig(inner_lr=0.05, outer_lr=0.1, mode=mode)


def assert_close_params(new, old, tol, what):
    assert new.names() == old.names()
    for name in old.names():
        assert np.linalg.norm(new[name] - old[name]) <= tol * np.linalg.norm(old[name]), (what, name)


@pytest.fixture(scope="module")
def data():
    records = cohort()
    by_id = {r.student_id: r for r in records}
    return by_id, build_fold_split(by_id, ExperimentPlan(folds=1, fold_seed=0), 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", ["normal", "zero_rounds", "single_label_val"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_reference(data, strategy, scenario, seed):
    records, split = data
    rounds = 0 if scenario == "zero_rounds" else 2
    if scenario == "single_label_val":
        split = single_label_validation(split, records)
        assert all(len({records[s].label for s in a.val}) == 1 for a in split.assignments.values())
    cfg = meta_cfg(strategy)

    new = run_federation(records, split,
                         ExperimentPlan(rounds=rounds, local_iters=2, settings=SETTINGS, meta=cfg),
                         strategy, seed)
    old = ref.run_federation(records, split, ref.FederationSchedule(strategy, rounds, 2), seed,
                             settings=SETTINGS, meta_cfg=cfg)
    old_models = ref.replay_eval_models(old, split, cfg)
    if scenario == "normal":
        assert any(row.val_auc is not None for row in old.rounds)
    if scenario == "single_label_val":
        assert old.warnings

    tol = 1e-9 if strategy == "PerFedAttn" else 1e-12
    assert_close_params(new.final_params, old.final.params, tol, "final")
    assert set(new.eval_models) == set(old_models)
    for key, model in old_models.items():
        assert_close_params(new.eval_models[key], model, tol, key)
    assert new.best_round == old.best_round
    if scenario == "zero_rounds":
        assert not new.warnings
        assert bool(old.warnings) == (strategy in ("Local", "Central"))
    else:
        assert bool(new.warnings) == bool(old.warnings)

    new_rows = [(r.round, r.subgroup, r.val_auc, r.train_loss) for r in new.rounds]
    old_rows = [(r.round, r.subgroup, r.val_auc, r.train_loss) for r in old.rounds]
    if strategy == "Local":
        new_rows.sort(key=lambda row: row[1])
        old_rows.sort(key=lambda row: row[1])
    assert [row[:3] for row in new_rows] == [row[:3] for row in old_rows]
    if strategy == "FedIRT":
        assert all(row[3] is None for row in old_rows)
    if strategy in ("FedIRT", "PerFedAvgAgg", "PerFedAttn"):
        assert all(np.isfinite(row[3]) and row[3] > 0 for row in new_rows)
    else:
        for (*_, new_loss), (*_, old_loss) in zip(new_rows, old_rows):
            assert (new_loss is None) == (old_loss is None)
            if old_loss is not None:
                assert abs(new_loss - old_loss) <= tol * abs(old_loss)


def test_fedirt_loss_is_last_local_epoch(data):
    """FedIRT's train_loss follows FedAvg's rule: with equal first-round starts they agree."""
    records, split = data
    plan = ExperimentPlan(rounds=1, local_iters=2, settings=SETTINGS)
    irt = run_federation(records, split, plan, "FedIRT", 4)
    avg = run_federation(records, split, plan, "FedAvg", 4)
    assert [r.train_loss for r in irt.rounds] == [r.train_loss for r in avg.rounds]


def test_only_ingest_and_generation_name_event_encodings():
    """Past the modules that encode or decode events, a sequence is only its matrix."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    pattern = re.compile(r"\bevent_columns\b")
    for path in package.rglob("*.py"):
        if path.stem not in ("activity", "dataio", "synthgen"):
            assert not pattern.search(path.read_text(encoding="utf-8")), path


def test_only_the_activity_encoder_allocates_an_activity_matrix():
    """`activity.activity_matrix` is the one place that makes an (L, n_videos + 7)
    matrix or writes its hot cells; the generator and ingest call it."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    allocation = re.compile(r"np\.(zeros|empty|ones|full)\w*\(\([^()]*\bn_videos\s*\+\s*N_KINDS\b")
    scatter = re.compile(r"\[\s*hot_rows\s*,\s*hot_cols\s*\]\s*=")
    callers = re.compile(r"\bactivity_matrix\(")
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.stem == "activity":
            assert len(allocation.findall(text)) == len(scatter.findall(text)) == 1, path
        else:
            assert not allocation.search(text) and not scatter.search(text), path
    for stem in ("dataio", "synthgen"):
        assert len(callers.findall((package / f"{stem}.py").read_text(encoding="utf-8"))) == 1, stem


def test_only_pass_logit_reads_the_pass_weights():
    """`synthgen.pass_logit` owns the label rule: nothing else in the package reads a
    profile's intercept or pass weights, past the `SubgroupProfile.<name>` defaults
    of the `PROFILE_KEYS` rows."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    weights = {"pass_intercept", "pass_weight_correct", "pass_weight_forum"}
    owner_reads = 0
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node) for fn in tree.body if path.stem == "synthgen"
                 and isinstance(fn, ast.FunctionDef) and fn.name == "pass_logit" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in weights:
                owned = id(node) in owner
                owner_reads += owned
                default = isinstance(node.value, ast.Name) and node.value.id == "SubgroupProfile"
                assert owned or default, f"{path.name}:{node.lineno} reads {node.attr}"
    assert owner_reads == len(weights)


def test_only_row_events_decodes_an_activity_matrix():
    """`activity.row_events` is the one decoder of a record's matrix: no other code
    computes `shape[1] - N_KINDS` or slices a matrix at `n_videos` or `N_KINDS`
    columns, and `dataio` and `synthgen` each call it. `quiz_responses` is named
    only where `activity` defines it and where `irt` calls it: no record stores it."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    layout = {"n_videos", "N_KINDS"}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()

    decoder_cuts = 0
    quiz_names = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decoder = {id(node) for fn in tree.body if path.stem == "activity"
                   and isinstance(fn, ast.FunctionDef) and fn.name == "row_events" for node in ast.walk(fn)}
        calls = 0
        for node in ast.walk(tree):
            cut = (isinstance(node, ast.Slice) and (names(node.lower) | names(node.upper)) & layout
                   or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                   and "N_KINDS" in names(node.right)
                   and any(isinstance(n, ast.Attribute) and n.attr == "shape" for n in ast.walk(node.left)))
            if cut:
                assert id(node) in decoder, f"{path.name}:{node.lineno} splits an activity matrix"
                decoder_cuts += 1
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "row_events":
                calls += 1
            if isinstance(node, ast.FunctionDef) and node.name == "quiz_responses":
                quiz_names.add((path.stem, "def", node in tree.body))
            elif isinstance(node, ast.Name) and node.id == "quiz_responses" \
                    or isinstance(node, ast.Attribute) and node.attr == "quiz_responses":
                quiz_names.add((path.stem, type(node.ctx).__name__, None))
        if path.stem in ("dataio", "synthgen"):
            assert calls >= 1, f"{path.name} does not call row_events"
    assert decoder_cuts == 3
    assert quiz_names == {("activity", "def", True), ("irt", "Load", None)}


def test_only_dataio_imports_csv():
    """`dataio` owns the CSV format: no other module of the package imports the csv module."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    importers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            if any(module.split(".")[0] == "csv" for module in modules):
                importers.add(path.stem)
    assert importers == {"dataio"}


def test_src_does_not_import_reference():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    pattern = re.compile(r"^\s*(from|import)\s+(tests\.)?reference\b", re.MULTILINE)
    for path in src.rglob("*.py"):
        assert not pattern.search(path.read_text(encoding="utf-8")), path
