"""Weighted kNN voting against brute-force oracles and chance-level banks."""

import numpy as np
import pytest

from ccaps.data import DatasetSplit, load_cifar10_binary, memory_view
from ccaps.knn import (
    EvalConfig,
    FeatureBank,
    build_feature_bank,
    evaluate,
    extract_features,
    weighted_knn_predict,
)
from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.train import TrainConfig, network_from_record, train

THIN_MODEL = ModelConfig(
    conv_channels=(4, 8, 16),
    conv_strides=(2, 2, 2),
    primary_channels=16,
    capsule_dim=4,
    class_capsule_dim=4,
)


def _unit_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _oracle_predict(h, bank, cfg):
    """Exhaustive sort-and-sum transcription of the voting rule."""
    sims = np.array([h @ row for row in bank.features])
    order = np.argsort(-sims)[: cfg.k]
    scores = np.zeros(cfg.class_count)
    for idx in order:
        scores[bank.labels[idx]] += np.exp(sims[idx] / cfg.temperature)
    ranked = sorted(range(cfg.class_count), key=lambda c: (-scores[c], c))
    return scores, np.array(ranked)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(k=0)
    with pytest.raises(ValueError):
        EvalConfig(temperature=0)


def test_bank_validation():
    with pytest.raises(ValueError, match="unit norm"):
        FeatureBank(np.ones((3, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        FeatureBank(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))


def test_single_row_bank_always_wins():
    bank = FeatureBank(_unit_rows(1, 8, 0), np.array([3]))
    _, ranked = weighted_knn_predict(_unit_rows(1, 8, 1), bank, EvalConfig(k=1))
    assert ranked[0, 0] == 3


def test_exact_match_wins_top1_at_k1():
    feats = _unit_rows(20, 16, 2)
    bank = FeatureBank(feats, np.arange(20) % 10)
    _, ranked = weighted_knn_predict(feats[7][None], bank, EvalConfig(k=1))
    assert ranked[0, 0] == 7 % 10


def test_scores_match_exhaustive_oracle():
    rng = np.random.default_rng(3)
    feats = _unit_rows(20, 12, 4)
    labels = rng.integers(0, 10, size=20)
    bank = FeatureBank(feats, labels)
    cfg = EvalConfig(k=5, temperature=0.2)
    queries = _unit_rows(6, 12, 5)
    scores, ranked = weighted_knn_predict(queries, bank, cfg)
    for q in range(6):
        oracle_scores, oracle_ranked = _oracle_predict(queries[q], bank, cfg)
        np.testing.assert_allclose(scores[q], oracle_scores, atol=1e-10)
        np.testing.assert_array_equal(ranked[q], oracle_ranked)


def test_huge_temperature_reduces_to_majority_vote():
    feats = _unit_rows(30, 8, 6)
    labels = np.array([1] * 12 + [2] * 10 + [3] * 8)
    bank = FeatureBank(feats, labels)
    cfg = EvalConfig(k=30, temperature=1e9)
    scores, ranked = weighted_knn_predict(_unit_rows(1, 8, 7), bank, cfg)
    np.testing.assert_allclose(scores[0, [1, 2, 3]], [12, 10, 8], rtol=1e-6)
    assert ranked[0, 0] == 1


def test_ties_break_by_ascending_class_index():
    feats = np.eye(4)
    bank = FeatureBank(feats, np.array([3, 1, 2, 0]))
    cfg = EvalConfig(k=4, temperature=0.5, class_count=10)
    query = np.zeros(4)
    query[0] = 1.0
    scores, ranked = weighted_knn_predict(query[None], bank, cfg)
    scores, ranked = scores[0], ranked[0]
    # classes 1, 2 (orthogonal rows) tie exactly; 1 must precede 2
    assert scores[1] == scores[2]
    pos1 = np.where(ranked == 1)[0][0]
    pos2 = np.where(ranked == 2)[0][0]
    assert pos1 < pos2
    # classes with zero score rank after all scored classes, index ascending
    zero_classes = ranked[np.isin(ranked, [4, 5, 6, 7, 8, 9])]
    np.testing.assert_array_equal(zero_classes, np.sort(zero_classes))


def test_bank_row_permutation_leaves_results_unchanged():
    rng = np.random.default_rng(8)
    feats = _unit_rows(25, 10, 9)
    labels = rng.integers(0, 10, size=25)
    bank = FeatureBank(feats, labels)
    perm = rng.permutation(25)
    shuffled = FeatureBank(feats[perm], labels[perm])
    cfg = EvalConfig(k=7, temperature=0.2)
    queries = _unit_rows(5, 10, 10)
    s1, r1 = weighted_knn_predict(queries, bank, cfg)
    s2, r2 = weighted_knn_predict(queries, shuffled, cfg)
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    np.testing.assert_array_equal(r1, r2)


def test_k_larger_than_bank_is_rejected():
    bank = FeatureBank(_unit_rows(5, 4, 11), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError, match="exceeds bank size"):
        weighted_knn_predict(_unit_rows(1, 4, 12), bank, EvalConfig(k=6))


def test_scores_positive_finite_for_any_temperature():
    bank = FeatureBank(_unit_rows(10, 6, 13), np.arange(10))
    for tau in (1e-2, 0.2, 5.0, 1e6):
        scores, _ = weighted_knn_predict(
            _unit_rows(1, 6, 14), bank, EvalConfig(k=10, temperature=tau)
        )
        assert np.all(np.isfinite(scores)) and scores.sum() > 0


def test_chance_level_bank_over_10000_queries():
    rng = np.random.default_rng(15)
    bank_feats = _unit_rows(2000, 32, 16)
    bank_labels = np.repeat(np.arange(10), 200)
    bank = FeatureBank(bank_feats, rng.permutation(bank_labels))
    queries = _unit_rows(10_000, 32, 17)
    cfg = EvalConfig(k=200, temperature=0.2)
    scores, ranked = weighted_knn_predict(queries, bank, cfg)
    labels = rng.integers(0, 10, size=10_000)
    top1 = np.mean(ranked[:, 0] == labels)
    top5 = np.mean(np.any(ranked[:, :5] == labels[:, None], axis=1))
    assert abs(top1 - 0.10) < 0.02
    assert abs(top5 - 0.50) < 0.02
    assert top5 >= top1


# -- model-backed evaluation -------------------------------------------------------


@pytest.fixture(scope="module")
def trained_state(small_data_dir):
    split, test = load_cifar10_binary(small_data_dir)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, model=THIN_MODEL)
    result = train(cfg, split.take(64))
    net, stats, _ = network_from_record(result.checkpoint)
    return net, stats, split, test


def test_feature_bank_rows_match_per_record_forward(trained_state):
    net, stats, split, _ = trained_state
    memory = memory_view(split.take(32))
    bank = build_feature_bank(net, memory, stats)
    assert len(bank) == 32
    np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-5)
    # row i equals an independently computed single-image forward
    for i in (0, 7, 31):
        single = DatasetSplit(memory.images[i : i + 1], memory.labels[i : i + 1], "memory")
        row = extract_features(net, single, stats)[0]
        np.testing.assert_allclose(bank.features[i], row, atol=1e-6)


def test_feature_bank_rebuild_is_bitwise_identical(trained_state):
    net, stats, split, _ = trained_state
    memory = memory_view(split.take(48))
    a = build_feature_bank(net, memory, stats)
    b = build_feature_bank(net, memory, stats)
    np.testing.assert_array_equal(a.features, b.features)


def test_self_retrieval_is_perfect(trained_state):
    net, stats, split, _ = trained_state
    subset = memory_view(split.take(40))
    feats = extract_features(net, subset, stats)
    bank = FeatureBank(feats, np.asarray(subset.labels))
    cfg = EvalConfig(k=1, temperature=0.2)
    _, ranked = weighted_knn_predict(feats, bank, cfg)
    assert np.all(ranked[:, 0] == subset.labels)


def test_evaluate_counts_and_nesting(trained_state):
    net, stats, split, test = trained_state
    result = evaluate(
        net, memory_view(split.take(128)), test.take(64), stats, EvalConfig(k=16)
    )
    assert result.total == 64
    assert result.top5 >= result.top1
    assert result.k == 16 and result.temperature == 0.2
    assert result.top1 == round(100 * result.correct1 / 64, 2)


def test_evaluate_rejects_empty_or_unlabelled(trained_state):
    net, stats, split, test = trained_state
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, memory_view(split.take(8)), test.take(0), stats, EvalConfig(k=2))
    with pytest.raises(ValueError, match="labels"):
        evaluate(
            net, memory_view(split.take(8)).without_labels(), test.take(8), stats, EvalConfig(k=2)
        )
