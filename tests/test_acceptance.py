"""Acceptance suite.

Exact/property criteria (1-6, 12) run standalone; the directional criteria
(7-11) share two 5-seed experiment runs (same config, masked-entropy
coefficient 0 and 0.1) built once per session. Each test prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, generate_corpus
from pblab.experiment import ExperimentConfig, run_experiment
from pblab.explain import shapley_exact, shapley_sampled
from pblab.model import ModelParams, forward, forward_masked
from pblab.sampler import plan_counts, preset, sample_paired
from pblab.training import compute_weights, count_cells, grad_check, mask_entropy_loss

SEEDS = [0, 1, 2, 3, 4]
LAMBDA_ON = 0.1
TARGET_LABEL = 0


def check(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_model(vocab_size, n_classes, seed, d=4, h=4):
    rng = np.random.default_rng(seed)
    return ModelParams(
        embedding=rng.normal(0, 0.7, (vocab_size + 1, d)),
        hidden_w=rng.normal(0, 0.7, (d, h)),
        hidden_b=rng.normal(0, 0.2, h),
        out_w=rng.normal(0, 0.7, (h, n_classes)),
        out_b=rng.normal(0, 0.2, n_classes),
    )


# -------------------------------------------------------------- 1-6: exact suites

def test_criterion_01_weights():
    plan_amz = plan_counts(preset("amazon_skew", 2, 5), 150)
    w_amz = compute_weights(plan_amz)
    ok = np.allclose(w_amz[0], [3.0, 1.5, 1.0, 0.75, 0.6], atol=1e-9)
    ok &= np.allclose(w_amz[1], [0.6, 0.75, 1.0, 1.5, 3.0], atol=1e-9)

    plan_xnli = plan_counts(preset("xnli_skew", 2, 3), 72)
    w_xnli = compute_weights(plan_xnli)
    ok &= np.allclose(w_xnli[0], [2 / 3, 1.0, 2.0], atol=1e-9)
    ok &= np.allclose(w_xnli[1], [2.0, 1.0, 2 / 3], atol=1e-9)

    w_uni = compute_weights(np.full((4, 6), 13))
    ok &= np.allclose(w_uni, 1.0, atol=1e-9)

    rng = np.random.default_rng(1)
    for _ in range(10):
        counts = rng.integers(1, 40, size=(3, 4))
        w = compute_weights(counts)
        ok &= bool(np.allclose((counts * w).sum(axis=1), counts.sum(axis=1), atol=1e-9))
    check(1, "per-language class weights", ok)


def test_criterion_02_additivity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 13))
        n_classes = int(rng.integers(2, 5))
        params = random_model(20, n_classes, seed=trial)
        tokens = tuple(int(t) for t in rng.integers(0, 20, n))
        y = int(rng.integers(0, n_classes))
        expl = shapley_exact(params, tokens, y)
        p = forward(params, tokens).probs[y]
        worst = max(worst, abs(expl.values.sum() + expl.base - p))
    check(2, "attribution additivity", worst <= 1e-9, f"max residual {worst:.2e}")


def brute_force_shapley(params, tokens, label):
    n = len(tokens)
    values = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        masked = set(range(n))
        prev = forward_masked(params, tokens, masked).probs[label]
        for pos in perm:
            masked.remove(pos)
            cur = forward_masked(params, tokens, masked).probs[label]
            values[pos] += cur - prev
            prev = cur
    return values / math.factorial(n)


def test_criterion_03_shapley_oracles():
    rng = np.random.default_rng(3)
    worst_exact = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 7))
        params = random_model(15, 3, seed=1000 + trial)
        tokens = tuple(int(t) for t in rng.integers(0, 15, n))
        y = int(rng.integers(0, 3))
        exact = shapley_exact(params, tokens, y)
        brute = brute_force_shapley(params, tokens, y)
        worst_exact = max(worst_exact, float(np.abs(exact.values - brute).max()))

    worst_sampled = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 11))
        params = random_model(15, 3, seed=2000 + trial)
        tokens = tuple(int(t) for t in rng.integers(0, 15, n))
        y = int(rng.integers(0, 3))
        exact = shapley_exact(params, tokens, y)
        sampled = shapley_sampled(params, tokens, y, n_permutations=2000, seed=trial)
        worst_sampled = max(worst_sampled, float(np.abs(sampled.values - exact.values).max()))
    ok = worst_exact <= 1e-9 and worst_sampled <= 0.02
    check(3, "shapley engines vs oracles", ok,
          f"exact vs brute {worst_exact:.2e}, sampled vs exact {worst_sampled:.4f}")


def test_criterion_04_sampler():
    plan = plan_counts(preset("xnli_skew", 2, 3), 60)
    ok = plan.tolist() == [[15, 10, 5], [5, 10, 15]]
    ok &= plan.sum(axis=1).tolist() == [30, 30]
    ok &= plan.sum(axis=0).tolist() == [20, 20, 20]

    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4,
                      p_noise=0.1, seed=40)
    _, pool = generate_corpus(spec, 40)
    bal1, imb1, report = sample_paired(pool, preset("xnli_skew", 2, 3), 60, seed=4)
    ok &= report["overlap_achieved"] == 50
    ok &= len({e.id for e in bal1} & {e.id for e in imb1}) == 50
    bal2, imb2, _ = sample_paired(pool, preset("xnli_skew", 2, 3), 60, seed=4)
    ok &= [e.id for e in bal1] == [e.id for e in bal2]
    ok &= [e.id for e in imb1] == [e.id for e in imb2]
    check(4, "paired sampler", ok)


def test_criterion_05_gradient_check():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=8, p_signal=0.4,
                      p_noise=0.1, seed=50)
    vocab, examples = generate_corpus(spec, 10)
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        d, h = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        params = random_model(vocab.size, 3, seed=3000 + trial, d=d, h=h)
        idx = rng.choice(len(examples), size=6, replace=False)
        batch = [examples[i] for i in idx]
        weights = compute_weights(np.maximum(count_cells(examples, 2, 3), 1)) if trial % 2 else None
        lam = [0.0, 0.3, 1.0][trial % 3]
        rng.integers(1, 9)  # unused draw; keeps every later trial's draws unchanged
        res = grad_check(params, batch, weights=weights, mask_entropy_coeff=lam,
                         n_samples=80, seed=trial)
        worst = max(worst, res.max_rel_error)
    check(5, "analytic gradients vs finite differences", worst < 1e-4, f"max rel err {worst:.2e}")


def test_criterion_06_mask_entropy():
    from pblab.model import init_params

    params = init_params(30, 3, rng=np.random.default_rng(6))
    lm = mask_entropy_loss(params)
    ok = abs(lm - (-math.log(3))) <= 1e-6

    rng = np.random.default_rng(60)
    for trial in range(50):
        n_classes = int(rng.integers(2, 6))
        p = random_model(10, n_classes, seed=4000 + trial)
        if trial % 5 == 0:
            p.out_b = (p.out_b + np.float32(30.0 * (trial % 2 * 2 - 1))).astype(np.float32)
        rng.integers(1, 6)  # unused draw; keeps every later trial's draws unchanged
        lm = mask_entropy_loss(p)
        ok &= -math.log(n_classes) - 1e-9 <= lm <= 0.0
    check(6, "masked-input entropy values and bounds", ok)


# -------------------------------------------------------------- 7-11: directional

def directional_config(out_dir, lam):
    return ExperimentConfig.from_dict({
        "name": f"acceptance-lambda-{lam}",
        "seeds": SEEDS,
        "corpus": {"n_languages": 2, "n_classes": 3, "n_min": 4, "n_max": 10,
                   "p_signal": 0.18, "p_noise": 0.10, "fillers_per_language": 40,
                   "signals_per_language_class": 8, "n_examples_per_cell": 2020},
        "joint": {"preset": "xnli_skew"},
        "train_size": 6000, "val_size": 600, "test_size": 2400,
        "train": {"epochs": 20, "batch_size": 32, "lr": 0.1, "mask_entropy_coeff": lam},
        "explain": {"target_labels": [TARGET_LABEL], "max_datapoints": 120},
        "probe": {"holdout_per_language": 501},
        "out_dir": str(out_dir),
    })


@pytest.fixture(scope="session")
def directional(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    summary0 = run_experiment(directional_config(root / "lambda0", 0.0))
    summary1 = run_experiment(directional_config(root / "lambda1", LAMBDA_ON))
    assert summary0["failures"] == [] and summary1["failures"] == []
    return summary0, summary1


def test_criterion_07_accuracy_ordering(directional):
    summary0, _ = directional
    passes = 0
    details = []
    for r in summary0["per_seed"]:
        acc = {arm: r["arms"][arm]["accuracy"] for arm in r["arms"]}
        gap = acc["balanced"] - acc["imbalanced"]
        recovered = acc["imbalanced_cw"] - acc["imbalanced"]
        good = gap > 0 and recovered >= 0.5 * gap
        passes += good
        details.append(f"seed {r['seed']}: gap {gap:+.4f} recovered {recovered:+.4f}")
    check(7, "accuracy ordering balanced > imbalanced, CW recovers half",
          passes >= 4, f"{passes}/5 seeds; " + "; ".join(details))


def test_criterion_08_lid_ordering(directional):
    summary0, _ = directional
    ok = True
    details = []
    for corpus_tag in ("original", "holdout"):
        passes = 0
        for r in summary0["per_seed"]:
            p = r["probe"][corpus_tag]
            good = (p["imbalanced"] >= p["balanced"] + 0.05
                    and p["imbalanced_cw"] < p["imbalanced"])
            passes += good
        details.append(f"{corpus_tag}: {passes}/5")
        ok &= passes >= 4
    check(8, "language-probe ordering imbalanced >> balanced, CW below", ok, "; ".join(details))


def test_criterion_09_prediction_skew(directional):
    summary0, _ = directional
    rho_imb = [r["arms"]["imbalanced"]["spearman_vs_imbalanced_joint"] for r in summary0["per_seed"]]
    rho_bal = [r["arms"]["balanced"]["spearman_vs_imbalanced_joint"] for r in summary0["per_seed"]]
    imb_positive = sum(rho > 0 for rho in rho_imb)
    bal_positive = sum(rho > 0 for rho in rho_bal)
    # "systematically positive" is the bar the imbalanced arm must meet;
    # the balanced arm must fail that same bar.
    ok = imb_positive >= 4 and bal_positive < 4
    check(9, "prediction distribution follows the training joint",
          ok, f"imbalanced positive {imb_positive}/5, balanced positive {bal_positive}/5")


def test_criterion_10_cumulative_diff_direction(directional):
    _, summary1 = directional
    over_lang = int(np.argmax(preset("xnli_skew", 2, 3)[:, TARGET_LABEL]))
    under_lang = 1 - over_lang
    sign_passes = 0
    shrink_passes = 0
    details = []
    for r in summary1["per_seed"]:
        rows_imb = r["shapdiff"]["bal_vs_imbal"]["rows"]
        rows_cw = r["shapdiff"]["bal_vs_imbal_cw"]["rows"]
        n_over = rows_imb[f"{over_lang}/{TARGET_LABEL}/neutral"][0]
        n_under = rows_imb[f"{under_lang}/{TARGET_LABEL}/neutral"][0]
        sign_passes += n_over > 0 and n_under < 0
        mag_imb = (abs(n_over) + abs(n_under)) / 2
        mag_cw = (abs(rows_cw[f"{over_lang}/{TARGET_LABEL}/neutral"][0])
                  + abs(rows_cw[f"{under_lang}/{TARGET_LABEL}/neutral"][0])) / 2
        shrink_passes += mag_cw <= 0.5 * mag_imb
        details.append(f"seed {r['seed']}: over {n_over:+.4f} under {n_under:+.4f} "
                       f"cw/imb {mag_cw / mag_imb if mag_imb else float('nan'):.2f}")
    ok = sign_passes >= 4 and shrink_passes >= 4
    check(10, "neutral-token attribution shift and CW shrink",
          ok, f"signs {sign_passes}/5, shrink {shrink_passes}/5; " + "; ".join(details))


def test_criterion_11_base_value_alignment(directional):
    summary0, summary1 = directional
    ln_c = math.log(3)
    passes = 0
    details = []
    for r0, r1 in zip(summary0["per_seed"], summary1["per_seed"]):
        def base_gap(record):
            pb = np.asarray(record["arms"]["balanced"]["masked_probs"])
            pi = np.asarray(record["arms"]["imbalanced"]["masked_probs"])
            return float(np.abs(pb - pi).mean())

        gap0, gap1 = base_gap(r0), base_gap(r1)
        ent_ok = all(abs(r1["arms"][arm]["masked_entropy"] - ln_c) <= 0.05
                     for arm in ("balanced", "imbalanced"))
        good = gap1 < gap0 and ent_ok
        passes += good
        details.append(f"seed {r0['seed']}: |db| {gap0:.4f}->{gap1:.4f}")
    check(11, "masked-entropy loss aligns base values", passes >= 4,
          f"{passes}/5; " + "; ".join(details))


# -------------------------------------------------------------- 12: determinism

def test_criterion_12_end_to_end_determinism(tmp_path):
    def tiny(out):
        return ExperimentConfig.from_dict({
            "name": "determinism", "seeds": [0, 1],
            "corpus": {"n_languages": 2, "n_classes": 3, "n_min": 3, "n_max": 7,
                       "p_signal": 0.3, "p_noise": 0.1, "fillers_per_language": 12,
                       "signals_per_language_class": 4, "n_examples_per_cell": 50},
            "joint": {"preset": "xnli_skew"},
            "train_size": 120, "val_size": 30, "test_size": 60,
            "train": {"epochs": 2, "batch_size": 16, "lr": 0.1, "mask_entropy_coeff": 0.05},
            "explain": {"target_labels": [0], "max_datapoints": 12, "exact_limit": 10,
                        "n_permutations": 100},
            "probe": {"k": 3, "holdout_per_language": 30},
            "out_dir": str(out),
        })

    run_experiment(tiny(tmp_path / "a"))
    run_experiment(tiny(tmp_path / "b"))

    def csv_hashes(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))
        }

    hashes_a = csv_hashes(tmp_path / "a")
    hashes_b = csv_hashes(tmp_path / "b")
    ok = hashes_a == hashes_b and len(hashes_a) > 0
    check(12, "end-to-end determinism", ok, f"{len(hashes_a)} CSV files compared")
