"""Weighted kNN voting against brute-force oracles and chance-level banks."""

import sys
import threading
import time

import numpy as np
import pytest

from ccaps import blas, knn
from ccaps.autodiff import l2_normalize, no_grad
from ccaps.data import DatasetSplit, compute_normalization_stats, load_cifar10_binary, standardize, to_unit_interval
from ccaps.knn import (
    EvalConfig,
    FeatureBank,
    evaluate,
    extract_features,
    weighted_knn_predict,
)
from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.train import TrainConfig, network_from_record, train
from synth import synthetic_images
from tracemem import traced_bytes

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


# Integer entries whose squares sum to exactly 2**22: scaled by 2**-11 they
# form a unit vector, and so does any signed permutation of them.
_EXACT_BASE = np.array(
    [65, 114, 324, 326, 343, 393, 396, 401, 402, 413, 415, 420, 683, 763, 776, 1022]
)


def _exact_rows(n, seed):
    """Unit rows whose entries are multiples of 2**-11.

    Every product of two entries is a multiple of 2**-22 and every partial
    sum of a dot product stays below 1 in magnitude, so a float32 GEMM
    gives each similarity exactly, in any summation order.
    """
    assert int(np.sum(_EXACT_BASE**2)) == 2**22
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1, 1], size=(n, len(_EXACT_BASE)))
    rows = np.stack([rng.permutation(_EXACT_BASE) for _ in range(n)]) * signs
    return (rows / 2**11).astype(np.float32)


def _exact_reference(h, bank, cfg):
    """Stable-argsort top-k, neighbours in bank order, float64 bincount scores.

    Also returns, per query, whether the k-th and (k+1)-th similarities tie.
    """
    sims = h.astype(np.float64) @ bank.features.astype(np.float64).T  # exact
    scores = np.zeros((len(h), cfg.class_count))
    tied = np.zeros(len(h), dtype=bool)
    for q, sim in enumerate(sims):
        order = np.argsort(-sim, kind="stable")
        nearest = np.sort(order[: cfg.k])
        tied[q] = cfg.k < len(sim) and sim[order[cfg.k - 1]] == sim[order[cfg.k]]
        weights = np.exp(sim[nearest] / cfg.temperature)
        scores[q] = np.bincount(bank.labels[nearest], weights=weights, minlength=cfg.class_count)
    return scores, np.argsort(-scores, axis=1, kind="stable"), tied


@pytest.mark.parametrize("queries", [1, 15, 16, 17, 40])
def test_scores_and_ranks_equal_the_exact_oracle_bit_for_bit(queries):
    m = 64
    bank = FeatureBank(_exact_rows(m, 20), np.random.default_rng(21).integers(0, 10, size=m))
    h = _exact_rows(queries, 22)
    for k in (1, 7, m - 1, m):
        cfg = EvalConfig(k=k, temperature=0.2)
        want_scores, want_ranked, tied = _exact_reference(h, bank, cfg)
        assert not tied.any()  # the neighbour set is unique, so the bits are too
        scores, ranked = weighted_knn_predict(h, bank, cfg)
        assert scores.dtype == np.float64 and ranked.dtype == np.int64
        np.testing.assert_array_equal(scores, want_scores)
        np.testing.assert_array_equal(ranked, want_ranked)


def test_duplicate_rows_tied_at_the_kth_place_still_give_a_top_k():
    rows = _exact_rows(30, 23)
    # every row three times, with different labels: a query's k = 4 nearest
    # are its best row's three copies and one of its second-best row's three
    bank = FeatureBank(np.repeat(rows, 3, axis=0), np.arange(90) % 10)
    h = _exact_rows(40, 24)
    cfg = EvalConfig(k=4, temperature=0.2)
    want_scores, _, tied = _exact_reference(h, bank, cfg)
    assert tied.all()
    scores, ranked = weighted_knn_predict(h, bank, cfg)
    # the tied rows share a similarity, so any valid choice has the same total
    np.testing.assert_allclose(scores.sum(axis=1), want_scores.sum(axis=1), rtol=1e-14)
    np.testing.assert_array_equal(ranked, np.argsort(-scores, axis=1, kind="stable"))


def _fake_blas(monkeypatch, threads):
    """Make the scorer see `threads` OpenBLAS threads, or no OpenBLAS for None;
    returns the counts it sets, in order."""
    count, sets = [threads], []
    if threads is None:
        monkeypatch.setattr(blas, "openblas_threads", lambda: None)
        return sets

    def put(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(blas, "openblas_threads", lambda: (lambda: count[0], put))
    return sets


def _float32_reference(h, bank, cfg):
    """The scorer's arithmetic without blocks: one GEMM over the whole bank,
    a stable top-k, neighbours in bank order, float64 bincount scores."""
    sims = h @ bank.features.T
    nearest = np.sort(np.argsort(-sims, axis=1, kind="stable")[:, : cfg.k], axis=1)
    weights = np.exp(np.take_along_axis(sims, nearest, axis=1).astype(np.float64) / cfg.temperature)
    slots = np.arange(len(h))[:, None] * cfg.class_count + bank.labels[nearest]
    scores = np.bincount(slots.ravel(), weights.ravel(), minlength=len(h) * cfg.class_count)
    scores = scores.reshape(len(h), cfg.class_count)
    return scores, np.argsort(-scores, axis=1, kind="stable"), sims


@pytest.mark.parametrize("rows", [7, 64, 300])
def test_worker_count_and_block_size_leave_the_scores_alone(monkeypatch, rows):
    m, k = 300, 50
    bank = FeatureBank(_unit_rows(m, 48, 40).astype(np.float32), np.random.default_rng(41).integers(0, 10, size=m))
    h = _unit_rows(40, 48, 42).astype(np.float32)  # inexact: the GEMM's rounding shows
    cfg = EvalConfig(k=k)
    want_scores, want_ranked, sims = _float32_reference(h, bank, cfg)
    ordered = np.sort(sims, axis=1)
    assert np.all(ordered[:, -k] > ordered[:, -k - 1])  # no tie at the k-th place
    monkeypatch.setattr(knn, "_BANK_ROWS", rows)
    blocks = -(-m // rows)
    got = []
    for threads in (1, 2):
        sets = _fake_blas(monkeypatch, threads)
        got.append(weighted_knn_predict(h, bank, cfg))
        workers = min(threads, blocks)
        assert sets == [threads // workers, threads]
    (scores, ranked), (scores2, ranked2) = got
    assert scores.tobytes() == scores2.tobytes() and ranked.tobytes() == ranked2.tobytes()
    np.testing.assert_array_equal(ranked, want_ranked)
    if rows == 7:
        # OpenBLAS multiplies products this narrow through another kernel,
        # whose similarities differ from the whole-bank GEMM's in the last bits
        # (each dot product within 48 float32 roundings, scaled by 1/temperature)
        np.testing.assert_allclose(scores, want_scores, rtol=48 * np.finfo(np.float32).eps / cfg.temperature)
    else:
        assert scores.tobytes() == want_scores.tobytes()


@pytest.mark.parametrize("threads", [None, 1, 2])
@pytest.mark.parametrize(("m", "rows", "k"), [(69, 32, 30), (19, 10, 10), (64, 7, 64), (64, 16, 1)])
def test_blocks_narrower_than_k_keep_all_their_rows(monkeypatch, threads, m, rows, k):
    # (19, 10, 10): blocks of 9 and 10 rows; (69, 32, 30): three of 23
    bank = FeatureBank(_exact_rows(m, 43), np.random.default_rng(44).integers(0, 10, size=m))
    h = _exact_rows(20, 45)
    cfg = EvalConfig(k=k)
    want_scores, want_ranked, tied = _exact_reference(h, bank, cfg)
    assert not tied.any()
    monkeypatch.setattr(knn, "_BANK_ROWS", rows)
    _fake_blas(monkeypatch, threads)
    scores, ranked = weighted_knn_predict(h, bank, cfg)
    np.testing.assert_array_equal(scores, want_scores)
    np.testing.assert_array_equal(ranked, want_ranked)


def test_eight_workers_switching_often_give_the_one_worker_bits(monkeypatch):
    bank = FeatureBank(_unit_rows(1000, 16, 53).astype(np.float32), np.arange(1000) % 10)
    h = _unit_rows(24, 16, 54).astype(np.float32)
    cfg = EvalConfig(k=20)
    monkeypatch.setattr(knn, "_BANK_ROWS", 16)  # 63 blocks
    _fake_blas(monkeypatch, 1)
    want_scores, want_ranked = weighted_knn_predict(h, bank, cfg)
    _fake_blas(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        for _ in range(5):
            scores, ranked = weighted_knn_predict(h, bank, cfg)
            assert scores.tobytes() == want_scores.tobytes() and ranked.tobytes() == want_ranked.tobytes()
        assert time.perf_counter() - start < 30
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("queries", [8, 2 * knn._QUERY_CHUNK + 8])  # a failure in the first chunk, or a later one
@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_worker_restores_the_blas_threads_and_leaves_no_thread(monkeypatch, failing, queries):
    bank = FeatureBank(_unit_rows(64, 16, 46).astype(np.float32), np.arange(64) % 10)
    h = _unit_rows(queries, 16, 47).astype(np.float32)
    monkeypatch.setattr(knn, "_BANK_ROWS", 16)
    sets = _fake_blas(monkeypatch, 2)
    threads = threading.active_count()
    matmul, both_started, started = np.matmul, threading.Barrier(2, timeout=10), set()

    def one_worker_fails(*args, **kwargs):
        if len(args[0]) != 8:  # a full chunk before the last
            return matmul(*args, **kwargs)
        me = threading.current_thread()
        if me not in started:  # each worker's first block waits for the other's
            started.add(me)
            both_started.wait()
        if (me is threading.main_thread()) == (failing == "caller"):
            raise RuntimeError(f"{failing} failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", one_worker_fails)
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        weighted_knn_predict(h, bank, EvalConfig(k=4))
    assert len(started) == 2
    assert sets == [1, 2]
    assert threading.active_count() == threads


@pytest.mark.skipif(blas.openblas_threads() is None, reason="needs a loaded OpenBLAS")
def test_a_call_gives_the_real_openblas_its_thread_count_back():
    before = blas.thread_count()
    bank = FeatureBank(_unit_rows(3 * knn._BANK_ROWS, 8, 48).astype(np.float32), np.arange(3 * knn._BANK_ROWS) % 10)
    weighted_knn_predict(_unit_rows(4, 8, 49).astype(np.float32), bank, EvalConfig(k=5))
    assert blas.thread_count() == before
    with pytest.raises(ValueError):  # the queries' width does not match the bank's
        weighted_knn_predict(_unit_rows(4, 9, 50).astype(np.float32), bank, EvalConfig(k=5))
    assert blas.thread_count() == before


def test_knn_call_allocates_little_beyond_the_similarity_block():
    features = _unit_rows(20_000, 64, 25).astype(np.float32)
    bank = FeatureBank(features, np.arange(20_000) % 10)
    h = _unit_rows(512, 64, 26).astype(np.float32)
    sim_bytes = 512 * 20_000 * 4
    peak = traced_bytes(lambda: weighted_knn_predict(h, bank, EvalConfig()))[1]
    assert peak <= 1.25 * sim_bytes, peak / sim_bytes


# 1,300 queries: two chunks of 512 and one of 276, not a multiple of the 16-row selection blocks
@pytest.mark.parametrize("q", [512, 1300])
def test_similarities_take_a_block_per_worker_not_the_whole_bank(monkeypatch, q):
    m = 50_000
    bank = FeatureBank(_unit_rows(m, 16, 51).astype(np.float32), np.arange(m) % 10)
    h = _unit_rows(q, 16, 52).astype(np.float32)
    _fake_blas(monkeypatch, 2)
    peak = traced_bytes(lambda: weighted_knn_predict(h, bank, EvalConfig()))[1]
    # two [512, 6,250] buffers and 8 x 200 candidates a query of a chunk: ~43 MB
    # for any q, where one [512, 50,000] similarity block alone is 102 MB
    chunk = knn._QUERY_CHUNK * m * 4
    assert peak <= 0.5 * chunk, peak / chunk


def test_no_queries_give_empty_scores_and_ranks():
    bank = FeatureBank(_unit_rows(30, 8, 57).astype(np.float32), np.arange(30) % 10)
    scores, ranked = weighted_knn_predict(np.zeros((0, 8), np.float32), bank, EvalConfig(k=5))
    assert scores.shape == ranked.shape == (0, 10)
    assert scores.dtype == np.float64 and ranked.dtype == np.int64


def test_bank_check_copies_nothing_the_size_of_the_bank():
    features = _unit_rows(20_000, 64, 27).astype(np.float32)
    labels = np.arange(20_000) % 10
    peak = traced_bytes(lambda: FeatureBank(features, labels))[1]
    assert peak <= 0.1 * features.nbytes, peak / features.nbytes


def _features_in_one_run(net, split, stats) -> np.ndarray:
    """Every image's features from one conv-block forward on this thread."""
    with no_grad():
        fmap = net.conv_block(standardize(to_unit_interval(split.images), stats), mode="eval")
        return l2_normalize(fmap.reshape(len(split), -1), axis=1).data


@pytest.mark.parametrize("threads", ["one", "host"])
@pytest.mark.parametrize("batch_size", [256, 3])
def test_extraction_in_two_runs_gives_the_bytes_of_one(monkeypatch, threads, batch_size):
    # 300 images: at batch 256, runs of 128 + 128 and 22 + 22; at batch 3,
    # runs of 1 + 2 images
    rng = np.random.default_rng(55)
    split = DatasetSplit(synthetic_images(np.arange(300) % 10, rng), None, "memory")
    stats = compute_normalization_stats(split)
    net = CapsuleNetwork(ModelConfig(), seed=0)
    conv_block, runs = CapsuleNetwork.conv_block, []

    def watched(self, x, *args, **kwargs):
        out = conv_block(self, x, *args, **kwargs)
        runs.append((threading.current_thread() is threading.main_thread(), len(x), out.needs_grad))
        return out

    with blas.split(blas.thread_count() if threads == "one" else 1):
        want = _features_in_one_run(net, split, stats)
        monkeypatch.setattr(CapsuleNetwork, "conv_block", watched)
        got = extract_features(net, split, stats, batch_size=batch_size)
    assert got.tobytes() == want.tobytes()
    assert {on_main for on_main, _, _ in runs} == {True, False}  # a run on each thread
    assert sum(size for _, size, _ in runs) == 300 and len(runs) == 2 * -(-300 // batch_size)
    assert not any(graph for _, _, graph in runs)  # the worker ran under no_grad too


def test_extraction_at_batch_256_holds_no_whole_batch_im2col_block():
    # the convs lower their input in blocks of whole images: Conv2d-3's
    # im2col rows over 256 images alone would be 72 MiB
    config = ModelConfig()
    rng = np.random.default_rng(53)
    split = DatasetSplit(synthetic_images(np.arange(256) % 10, rng), None, "memory")
    stats = compute_normalization_stats(split)
    net = CapsuleNetwork(config, seed=0)
    peak = traced_bytes(lambda: extract_features(net, split, stats, batch_size=256))[1]
    assert peak < 48 * 2**20, peak / 2**20


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(k=0)
    with pytest.raises(ValueError):
        EvalConfig(temperature=0)
    for temperature in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            EvalConfig(temperature=temperature)


def test_bank_validation():
    with pytest.raises(ValueError, match="unit norm"):
        FeatureBank(np.ones((3, 4)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        FeatureBank(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    nan_row = _unit_rows(3, 8, 0)
    nan_row[1] = np.nan
    with pytest.raises(ValueError, match="bank rows must be finite and unit norm"):
        FeatureBank(nan_row, np.array([0, 1, 2]))


@pytest.mark.parametrize(
    "labels",
    [
        np.array([True, False, True]),
        np.array([0.0, 1.0, 2.0]),
        np.array([[0], [1], [2]]),
    ],
    ids=["bool", "float", "2-D"],
)
def test_bank_refuses_labels_it_cannot_rank_with(labels):
    with pytest.raises(ValueError, match="1-D integer array"):
        FeatureBank(_unit_rows(3, 8, 0), labels)


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
    cfg = EvalConfig(k=4, temperature=0.5)
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
    memory = split.take(32)
    bank = FeatureBank(extract_features(net, memory, stats), memory.labels)
    assert len(bank) == 32
    np.testing.assert_allclose(np.linalg.norm(bank.features, axis=1), 1.0, atol=1e-5)
    # row i equals an independently computed single-image forward
    for i in (0, 7, 31):
        single = DatasetSplit(memory.images[i : i + 1], memory.labels[i : i + 1], "memory")
        row = extract_features(net, single, stats)[0]
        np.testing.assert_allclose(bank.features[i], row, atol=1e-6)


def test_extract_features_records_no_graph_and_keeps_the_graph_path_bits(trained_state, monkeypatch):
    from ccaps import autodiff
    from ccaps.data import standardize, to_unit_interval

    net, stats, split, _ = trained_state
    memory = split.take(40)
    x = standardize(to_unit_interval(memory.images), stats)
    recorded = net.conv_block(x, mode="eval")  # weights require grad: the graph is kept
    assert recorded._parents != ()
    expected = autodiff.l2_normalize(recorded.reshape(len(memory), -1), axis=1).data

    nodes = []
    make_node = autodiff._node

    def spy(data, parents, backward):
        nodes.append(make_node(data, parents, backward))
        return nodes[-1]

    monkeypatch.setattr(autodiff, "_node", spy)
    features = extract_features(net, memory, stats)
    assert nodes and all(n._parents == () for n in nodes)
    np.testing.assert_array_equal(features, expected)


def test_feature_bank_rebuild_is_bitwise_identical(trained_state):
    net, stats, split, _ = trained_state
    memory = split.take(48)
    a = FeatureBank(extract_features(net, memory, stats), memory.labels)
    b = FeatureBank(extract_features(net, memory, stats), memory.labels)
    np.testing.assert_array_equal(a.features, b.features)


def test_self_retrieval_is_perfect(trained_state):
    net, stats, split, _ = trained_state
    subset = split.take(40)
    feats = extract_features(net, subset, stats)
    bank = FeatureBank(feats, np.asarray(subset.labels))
    cfg = EvalConfig(k=1, temperature=0.2)
    _, ranked = weighted_knn_predict(feats, bank, cfg)
    assert np.all(ranked[:, 0] == subset.labels)


def test_evaluate_counts_and_nesting(trained_state):
    net, stats, split, test = trained_state
    result = evaluate(
        net, split.take(128), test.take(64), stats, EvalConfig(k=16)
    )
    assert result.total == 64
    assert result.top5 >= result.top1
    assert result.k == 16 and result.temperature == 0.2
    assert result.top1 == round(100 * result.correct1 / 64, 2)


def test_evaluate_ranks_each_chunk_as_weighted_knn_predict_does(monkeypatch):
    m, q = 3000, 2 * knn._QUERY_CHUNK + 77  # two full chunks and a part
    rng = np.random.default_rng(31)
    memory = DatasetSplit(np.zeros((m, 3, 32, 32), np.uint8), rng.integers(0, 10, size=m), "memory")
    test = DatasetSplit(np.zeros((q, 3, 32, 32), np.uint8), rng.integers(0, 10, size=q), "test")
    rows = {
        id(memory): _unit_rows(m, 48, 32).astype(np.float32),  # inexact: GEMM order moves the bits
        id(test): _unit_rows(q, 48, 33).astype(np.float32),
    }
    monkeypatch.setattr(knn, "extract_features", lambda net, split, stats: rows[id(split)])
    calls = []
    rank = knn.weighted_knn_predict

    def recorded(*args):
        calls.append(rank(*args))
        return calls[-1]

    monkeypatch.setattr(knn, "weighted_knn_predict", recorded)

    cfg = EvalConfig(k=50, temperature=0.2)
    result = evaluate(None, memory, test, None, cfg)
    assert len(calls) == 1
    (scores, ranked), = calls
    bank = FeatureBank(rows[id(memory)], memory.labels)
    for start in range(0, q, knn._QUERY_CHUNK):  # three separate calls of at most 512 rows
        chunk = slice(start, start + knn._QUERY_CHUNK)
        want_scores, want_ranked = rank(rows[id(test)][chunk], bank, cfg)
        assert scores[chunk].tobytes() == want_scores.tobytes()
        assert ranked[chunk].tobytes() == want_ranked.tobytes()
    correct1 = int(np.sum(ranked[:, 0] == test.labels))
    correct5 = int(np.sum(np.any(ranked[:, :5] == test.labels[:, None], axis=1)))
    assert (result.correct1, result.correct5, result.total) == (correct1, correct5, q)


def test_evaluate_rejects_empty_or_unlabelled(trained_state, monkeypatch):
    def extract(*args):
        raise AssertionError("extracted before the checks")

    monkeypatch.setattr(knn, "extract_features", extract)  # every check runs first
    net, stats, split, test = trained_state
    with pytest.raises(ValueError, match="empty"):
        evaluate(net, split.take(8), test.take(0), stats, EvalConfig(k=2))
    with pytest.raises(ValueError, match="the memory split needs labels"):
        evaluate(
            net, split.take(8).without_labels(), test.take(8), stats, EvalConfig(k=2)
        )


def test_a_nan_weight_fails_the_bank_instead_of_ranking(trained_state):
    # ReLU propagates NaN, so one NaN conv1 weight reaches every feature
    net, stats, split, test = trained_state
    broken = CapsuleNetwork.from_state(net.config, net.state_arrays())
    broken.params["conv1.weight"].data[0, 0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="bank rows must be finite and unit norm"):
        evaluate(broken, split.take(16), test.take(8), stats, EvalConfig(k=4))


def test_evaluate_rejects_non_finite_query_features(trained_state, monkeypatch):
    from ccaps import knn

    net, stats, split, test = trained_state
    queries = test.take(8)
    extract = knn.extract_features

    def nan_queries(net_, data, stats_):
        rows = extract(net_, data, stats_)
        if data is queries:
            rows[3] = np.nan
        return rows

    monkeypatch.setattr(knn, "extract_features", nan_queries)
    with pytest.raises(ValueError, match="query rows must be finite and unit norm"):
        evaluate(net, split.take(16), queries, stats, EvalConfig(k=4))
