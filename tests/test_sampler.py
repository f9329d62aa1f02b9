import numpy as np
import pytest

from pblab.corpus import CorpusSpec, generate_corpus
from pblab.sampler import JointSpec, plan_counts, preset, sample_paired, split_eval


@pytest.fixture(scope="module")
def pool223():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4,
                      p_noise=0.1, seed=5)
    _, examples = generate_corpus(spec, 60)
    return examples


def test_preset_amazon_rows():
    spec = preset("amazon_skew", 2, 5)
    expected0 = np.arange(1, 6) / 15.0 / 2.0
    assert np.allclose(spec.probs[0], expected0, atol=1e-12)
    assert np.allclose(spec.probs[1], expected0[::-1], atol=1e-12)
    # group split for more languages: first half ascending
    spec6 = preset("amazon_skew", 6, 5)
    for lang in range(3):
        assert np.allclose(spec6.probs[lang], np.arange(1, 6) / 15.0 / 6.0)
        assert np.allclose(spec6.probs[lang + 3], np.arange(5, 0, -1) / 15.0 / 6.0)


def test_preset_xnli_rows_and_marginals():
    spec = preset("xnli_skew", 2, 3)
    assert np.allclose(spec.probs[0], [1 / 4, 1 / 6, 1 / 12], atol=1e-12)
    assert np.allclose(spec.probs[1], [1 / 12, 1 / 6, 1 / 4], atol=1e-12)
    assert np.allclose(spec.probs.sum(axis=0), 1 / 3, atol=1e-12)


def test_preset_uniform():
    spec = preset("uniform", 3, 4)
    assert np.allclose(spec.probs, 1 / 12)


def test_preset_incompatible_shapes():
    with pytest.raises(ValueError):
        preset("amazon_skew", 3, 5)
    with pytest.raises(ValueError):
        preset("amazon_skew", 2, 4)
    with pytest.raises(ValueError):
        preset("xnli_skew", 3, 3)
    with pytest.raises(ValueError):
        preset("nope", 2, 3)


def test_joint_spec_marginal_validation():
    bad = JointSpec(probs=np.array([[0.5, 0.1], [0.2, 0.2]]))
    with pytest.raises(ValueError):
        bad.validate()
    # same table allowed when the uniform-marginal requirement is relaxed
    JointSpec(probs=np.array([[0.5, 0.1], [0.2, 0.2]]), uniform_marginals=False).validate()


def test_plan_counts_uniform():
    plan = plan_counts(preset("uniform", 2, 2), 60)
    assert plan.counts.tolist() == [[15, 15], [15, 15]]


def test_plan_counts_xnli_60():
    plan = plan_counts(preset("xnli_skew", 2, 3), 60)
    assert plan.counts.tolist() == [[15, 10, 5], [5, 10, 15]]
    assert plan.counts.sum(axis=0).tolist() == [20, 20, 20]


def test_plan_counts_amazon_30():
    plan = plan_counts(preset("amazon_skew", 2, 5), 30)
    assert plan.counts.tolist() == [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]


def test_plan_counts_rows_exact_with_rounding():
    # 70 is not divisible by the 12 cells, but each language row must hit 35.
    plan = plan_counts(preset("amazon_skew", 2, 5), 70)
    assert plan.counts.sum(axis=1).tolist() == [35, 35]
    assert plan.counts.sum() == 70


def test_plan_counts_divisibility_error():
    with pytest.raises(ValueError, match="divisible"):
        plan_counts(preset("uniform", 2, 3), 61)


def test_sample_paired_uniform_identical(pool223):
    balanced, imbalanced, report = sample_paired(pool223, preset("uniform", 2, 3), 60, seed=2)
    assert {e.id for e in balanced} == {e.id for e in imbalanced}
    assert report.overlap_achieved == 60


def test_sample_paired_xnli_overlap_50(pool223):
    balanced, imbalanced, report = sample_paired(pool223, preset("xnli_skew", 2, 3), 60, seed=2)
    assert len(balanced) == len(imbalanced) == 60
    shared = {e.id for e in balanced} & {e.id for e in imbalanced}
    assert len(shared) == 50
    assert report.overlap_max == report.overlap_achieved == 50
    # no duplicates within a subset
    assert len({e.id for e in balanced}) == 60
    assert len({e.id for e in imbalanced}) == 60


def test_sample_paired_deterministic_and_pool_order_invariant(pool223):
    joint = preset("xnli_skew", 2, 3)
    b1, i1, _ = sample_paired(pool223, joint, 60, seed=7)
    b2, i2, _ = sample_paired(list(reversed(pool223)), joint, 60, seed=7)
    assert {e.id for e in b1} == {e.id for e in b2}
    assert {e.id for e in i1} == {e.id for e in i2}
    b3, _, _ = sample_paired(pool223, joint, 60, seed=8)
    assert {e.id for e in b1} != {e.id for e in b3}


def test_sample_paired_insufficient_pool_names_cell(pool223):
    small = [e for e in pool223 if not (e.language == 1 and e.label == 2)]
    small += [e for e in pool223 if e.language == 1 and e.label == 2][:3]
    with pytest.raises(ValueError, match=r"language=1, label=2"):
        sample_paired(small, preset("xnli_skew", 2, 3), 60, seed=0)


def test_subset_follows_plan(pool223):
    joint = preset("xnli_skew", 2, 3)
    _, imbalanced, report = sample_paired(pool223, joint, 60, seed=4)
    got = np.zeros((2, 3), dtype=int)
    for e in imbalanced:
        got[e.language, e.label] += 1
    assert got.tolist() == report.counts_imbalanced.tolist()


def test_split_eval_balanced_cells(pool223):
    val, test = split_eval(pool223, 12, 30, seed=1)
    assert len(val) == 12 and len(test) == 30
    per_cell = {}
    for e in test:
        per_cell[(e.language, e.label)] = per_cell.get((e.language, e.label), 0) + 1
    assert all(v == 5 for v in per_cell.values())
    assert not ({e.id for e in val} & {e.id for e in test})


def test_split_eval_divisibility(pool223):
    with pytest.raises(ValueError, match="divisible"):
        split_eval(pool223, 12, 31, seed=1)
