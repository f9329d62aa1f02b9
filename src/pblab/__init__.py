"""pblab: controlled experiments on per-language label imbalance in multilingual classifiers."""

from .corpus import CorpusSpec, Example, Vocab, generate_corpus, ground_truth_category, load_jsonl
from .explain import (
    CumulativeDiffReport,
    EngineConfig,
    ShapExplanation,
    categorize,
    cumulative_diff,
    diff_report,
    explain_arm,
    shapley_exact,
    shapley_sampled,
)
from .model import ForwardOutput, ModelParams, forward, forward_masked, init_params
from .probe import ProbeReport, cross_validate, extract_features, fit_logreg, probe_model
from .sampler import JointSpec, SubsetPlan, plan_counts, preset, sample_paired, split_eval
from .training import (
    EvalMetrics,
    TrainConfig,
    TrainReport,
    WeightTable,
    compute_weights,
    evaluate,
    grad_check,
    loss,
    train,
    train_arms,
)

__all__ = [
    "CorpusSpec", "Example", "Vocab", "generate_corpus", "ground_truth_category", "load_jsonl",
    "CumulativeDiffReport", "EngineConfig", "ShapExplanation",
    "categorize", "cumulative_diff", "diff_report", "explain_arm", "shapley_exact", "shapley_sampled",
    "ForwardOutput", "ModelParams", "forward", "forward_masked", "init_params",
    "ProbeReport", "cross_validate", "extract_features", "fit_logreg", "probe_model",
    "JointSpec", "SubsetPlan", "plan_counts", "preset", "sample_paired", "split_eval",
    "EvalMetrics", "TrainConfig", "TrainReport", "WeightTable",
    "compute_weights", "evaluate", "grad_check", "loss", "train", "train_arms",
]

__version__ = "0.1.0"
