"""Federated personalization simulator for clickstream-based student outcome prediction."""

from .activity import (
    ActivityKind,
    Demographics,
    StudentRecord,
    score_first_attempt,
)
from .evaluate import cross_validate, export_embeddings
from .federation import (
    AttnAggConfig,
    ExperimentPlan,
    MetaConfig,
    TrainSettings,
    adapt_for_eval,
    fedatt_aggregate,
    fedavg_aggregate,
    meta_gradient,
    run_federation,
)
from .irt import fit_rasch, irt_confidence
from .metrics import ScoredStudent, auc
from .network import attention_pool, gru_forward, loss_and_gradient
from .optim import OptState, optimizer_step
from .params import ModelParams, load_params, params_axpy, params_cosine, params_norm, save_params
from .pretrain import make_cbow_instances, run_pretraining, transfer_weights
from .splits import SubgroupKey, build_subgroups
from .synthgen import CohortSpec, SubgroupProfile, generate_cohort, profile_divergence

__version__ = "0.1.0"
