"""Guards of the library's malformed-input contract that no other test reaches: each call is a ValueError."""

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, Vocab, generate_corpus, ground_truth_category
from pblab.explain import EngineConfig, explain_arm, shapley_exact, shapley_sampled
from pblab.model import forward_examples, init_params
from pblab.probe import stratified_folds
from pblab.sampler import split_eval
from pblab.training import TrainConfig, compute_weights, evaluate, prediction_skew_spearman, train_arms

VOCAB, DATA = generate_corpus(CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=5, p_signal=0.5), 2)
PARAMS = init_params(VOCAB.size, VOCAB.n_classes, 4, 4, rng=np.random.default_rng(0))
INGESTED = Vocab(token_strings=("a", "b"), lang_names=("fr",), label_names=("x",))


@pytest.mark.parametrize("call, match", [
    (lambda: shapley_exact(PARAMS, DATA[0].tokens, 3), "label 3 out of range"),
    (lambda: shapley_sampled(PARAMS, DATA[0].tokens, -1, n_permutations=4), "label -1 out of range"),
    (lambda: explain_arm(PARAMS, [], EngineConfig()), "empty dataset"),
    (lambda: explain_arm(PARAMS, DATA[:1], EngineConfig(), target_labels=[]), "target_labels must be non-empty"),
    (lambda: split_eval([], 6, 6), "empty pool"),
    (lambda: train_arms([[]], DATA, VOCAB, [TrainConfig()]), "train and validation sets must be non-empty"),
    (lambda: train_arms([DATA], [], VOCAB, [TrainConfig()]), "train and validation sets must be non-empty"),
    (lambda: stratified_folds(np.array([0, 0, 1, 1]), 5), r"k=5 must be in \[2, n=4\]"),
    (lambda: compute_weights(np.ones(3)), "counts must be a 2-d table"),
    (lambda: TrainConfig(weighting="bogus").validate(), "unknown weighting mode 'bogus'"),
    (lambda: prediction_skew_spearman(evaluate(forward_examples(PARAMS, DATA)[0], DATA, 2, 3),
                                      np.full((2, 2), 0.25)), "table shapes differ"),
    (lambda: ground_truth_category(INGESTED, 0, 0, 0), "vocabulary carries no ground-truth token sets"),
], ids=["shapley_exact label", "shapley_sampled label", "explain_arm no examples", "explain_arm no labels",
        "split_eval empty pool", "train_arms empty train set", "train_arms empty val set", "stratified_folds k > n",
        "compute_weights 1-d", "TrainConfig weighting", "prediction_skew_spearman shapes",
        "ground_truth_category ingested vocab"])
def test_malformed_input_is_a_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
