"""painforge: synthetic facial pain data and a dual-branch ViT pain model."""

from . import (config, errors, evaluation, facesynth, fileio, metrics, model,
               optim, rng, tensor, training)
from .evaluation import evaluate_model
from .facesynth import (AUVector, DemographicProfile, FaceMesh, apply_au_rig,
                        make_identity_mesh, pspi_score, render_depth,
                        render_heatmap, render_rgb, sample_au_config,
                        sample_demographics)
from .facesynth.dataset import DatasetSpec, build_dataset
from .metrics import (FoldPlan, PredictionSet, binary_auroc, f1_binary,
                      macro_auroc, subject_kfold, tolerance_accuracy)
from .model import ModelConfig, ModelOutput, ModelParams, forward, init_params
from .optim import OptimState, adamw_step, cosine_lr
from .tensor import Tensor, gradcheck
from .training import (LossWeights, TrainConfig, TrainReport, compose_loss,
                       train_student, train_teacher)

__version__ = "0.1.0"

__all__ = [
    "config", "errors", "evaluation", "facesynth", "fileio", "metrics",
    "model", "optim", "rng", "tensor", "training",
    "AUVector", "DemographicProfile", "FaceMesh", "apply_au_rig",
    "make_identity_mesh", "pspi_score", "render_depth", "render_heatmap",
    "render_rgb", "sample_au_config", "sample_demographics",
    "DatasetSpec", "build_dataset",
    "FoldPlan", "PredictionSet", "binary_auroc", "f1_binary", "macro_auroc",
    "subject_kfold", "tolerance_accuracy", "evaluate_model",
    "ModelConfig", "ModelOutput", "ModelParams", "forward", "init_params",
    "OptimState", "adamw_step", "cosine_lr",
    "Tensor", "gradcheck",
    "LossWeights", "TrainConfig", "TrainReport", "compose_loss",
    "train_student", "train_teacher",
    "__version__",
]
