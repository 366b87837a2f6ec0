"""Bagging ensembles with vote-entropy uncertainty and threshold rejection."""

from .core import UNLABELED, ClassificationMetrics, Dataset, compute_metrics
from .data import (CsvSchema, DatasetTaxonomy, SyntheticSpec,
                   generate_synthetic, load_csv, load_manifest, write_csv)
from .ensemble import (EnsembleConfig, EnsembleModel, Prediction,
                       Standardizer, SupportBox, Verdict, entropy_of, fit,
                       gate, predict, rejected)
from .harness import (StabilityReport, ThresholdSweepReport,
                      default_threshold_grid, emit_report, run_stability_sweep,
                      run_threshold_sweep)
from .learners import (GradientParams, LearnerConfig, TrainedLearner,
                       TreeParams, train)
from .persist import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "UNLABELED", "ClassificationMetrics", "Dataset", "compute_metrics",
    "CsvSchema", "DatasetTaxonomy", "SyntheticSpec", "generate_synthetic",
    "load_csv", "load_manifest", "write_csv",
    "EnsembleConfig", "EnsembleModel", "Prediction", "Standardizer",
    "SupportBox", "Verdict", "entropy_of", "fit", "gate", "predict",
    "rejected",
    "StabilityReport", "ThresholdSweepReport", "default_threshold_grid",
    "emit_report", "run_stability_sweep", "run_threshold_sweep",
    "GradientParams", "LearnerConfig", "TrainedLearner", "TreeParams",
    "train", "load_model", "save_model",
]
