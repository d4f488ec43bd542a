"""The round driver against a frozen copy of the four loops it replaced.

`reference.federation_v0` is the earlier `federation.py` with its evaluation
model rebuilt by replaying the adaptation, as `execute_run` used to do. Every
strategy must give bit-identical round rows, final parameters, selected round
and evaluation models, with two exceptions:

* Local's rows now come step-major rather than subgroup-major, so both lists
  are compared after a stable sort by subgroup;
* FedIRT's train_loss used to be None and is now the last local epoch's mean
  loss, as for FedAvg.
"""

import pathlib
import re

import numpy as np
import pytest

from fedstudent.federation import (
    STRATEGIES,
    FederationSchedule,
    MetaConfig,
    TrainSettings,
    run_federation,
)
from fedstudent.splits import DatasetSplit, SplitAssignment, build_subgroups, split_train_test
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


def layer_bytes(params):
    return {name: params[name].tobytes() for name in params.names()}


@pytest.fixture(scope="module")
def data():
    records = cohort()
    by_id = {r.student_id: r for r in records}
    groups = build_subgroups(records, "G", include_unspecified=False)
    split = split_train_test(groups, seed=0, val_fraction=0.4)
    return by_id, split


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

    new = run_federation(records, split, FederationSchedule(strategy, rounds, 2), seed,
                         settings=SETTINGS, meta_cfg=cfg)
    old = ref.run_federation(records, split, ref.FederationSchedule(strategy, rounds, 2), seed,
                             settings=SETTINGS, meta_cfg=cfg)
    old_models = ref.replay_eval_models(old, split, cfg)
    if scenario == "normal":
        assert any(row.val_auc is not None for row in old.rounds)
    if scenario == "single_label_val":
        assert old.warnings

    assert layer_bytes(new.final_params) == layer_bytes(old.final.params)
    assert set(new.eval_models) == set(old_models)
    for key, model in old_models.items():
        assert layer_bytes(new.eval_models[key]) == layer_bytes(model), key
    assert new.best_round == old.best_round
    assert bool(new.warnings) == bool(old.warnings)

    new_rows = [(r.round, r.subgroup, r.val_auc, r.train_loss) for r in new.rounds]
    old_rows = [(r.round, r.subgroup, r.val_auc, r.train_loss) for r in old.rounds]
    if strategy == "Local":
        new_rows.sort(key=lambda row: row[1])
        old_rows.sort(key=lambda row: row[1])
    if strategy == "FedIRT":
        assert all(row[3] is None for row in old_rows)
        assert all(np.isfinite(row[3]) and row[3] > 0 for row in new_rows)
        new_rows = [row[:3] for row in new_rows]
        old_rows = [row[:3] for row in old_rows]
    assert new_rows == old_rows


def test_fedirt_loss_is_last_local_epoch(data):
    """FedIRT's train_loss follows FedAvg's rule: with equal first-round starts they agree."""
    records, split = data
    irt = run_federation(records, split, FederationSchedule("FedIRT", 1, 2), 4, settings=SETTINGS)
    avg = run_federation(records, split, FederationSchedule("FedAvg", 1, 2), 4, settings=SETTINGS)
    assert [r.train_loss for r in irt.rounds] == [r.train_loss for r in avg.rounds]


def test_src_does_not_import_reference():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    pattern = re.compile(r"^\s*(from|import)\s+(tests\.)?reference\b", re.MULTILINE)
    for path in src.rglob("*.py"):
        assert not pattern.search(path.read_text(encoding="utf-8")), path
