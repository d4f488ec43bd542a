"""Federated personalization simulator for clickstream-based student outcome prediction."""

from .activity import (
    ActivityEvent,
    ActivityKind,
    Demographics,
    EncodedActivity,
    QuizOutcome,
    StudentRecord,
    encode_event,
    score_first_attempt,
)
from .evaluate import ExperimentPlan, cross_validate, export_embeddings
from .federation import (
    AttnAggConfig,
    FederationSchedule,
    MetaConfig,
    TrainSettings,
    adapt_for_eval,
    fedatt_aggregate,
    fedavg_aggregate,
    local_adaptation,
    meta_gradient,
    run_federation,
)
from .irt import fit_rasch, irt_confidence
from .metrics import ScoredStudent, auc
from .network import attention_pool, backward, bce_loss, gru_forward, predict_outcome
from .optim import OptState, optimizer_step
from .params import ModelParams, load_params, params_axpy, params_cosine, params_norm, save_params
from .pretrain import make_cbow_instances, pretrain_epoch, transfer_weights
from .splits import SubgroupKey, build_subgroups, split_train_test
from .synthgen import CohortSpec, SubgroupProfile, generate_cohort, profile_divergence

__version__ = "0.1.0"
