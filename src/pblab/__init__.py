"""pblab: controlled experiments on per-language label imbalance in multilingual classifiers.

The public names are re-exported lazily (PEP 562): ``import pblab`` loads neither numpy nor any
submodule, and the first use of a name imports its home module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("CorpusSpec", "Example", "Vocab", "generate_corpus", "ground_truth_category", "load_jsonl"),
    "explain": ("CumulativeDiffReport", "EngineConfig", "ShapExplanation",
                "categorize", "cumulative_diff", "diff_report", "explain_arm", "shapley_exact", "shapley_sampled"),
    "model": ("ForwardOutput", "ModelParams", "forward", "forward_examples", "forward_masked", "init_params"),
    "probe": ("ProbeReport", "cross_validate", "fit_logreg", "probe_model"),
    "sampler": ("plan_counts", "preset", "sample_paired", "split_eval"),
    "training": ("EvalMetrics", "TrainConfig", "TrainReport",
                 "compute_weights", "evaluate", "grad_check", "loss", "train", "train_arms"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value
