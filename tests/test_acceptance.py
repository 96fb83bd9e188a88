"""Acceptance suite: one test per gated criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Criteria 1-7 and 9 are exact or tightly-toleranced checks; criterion 8 is
the smoke-training run (minutes); criterion 10 verifies that the
full-scale recipe is documented rather than gated (it is not
desk-reproducible).
"""

from pathlib import Path

import numpy as np
import pytest

import ccaps.train as train_mod
from ccaps.augment import AugmentConfig
from ccaps.autodiff import Tensor, concat, no_grad, routing_by_agreement, squash
from ccaps.cli import main
from ccaps.data import batch_iterator, compute_normalization_stats, load_cifar10_binary
from ccaps.knn import EvalConfig, FeatureBank, evaluate, weighted_knn_predict
from ccaps.loss import nt_xent_op
from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.profiler import (
    PUBLISHED_CONVBLOCK_PARAMS,
    PUBLISHED_FLOPS_TOTAL,
    count_flops,
    count_params,
    format_profile,
    layer_reports,
)
from ccaps.train import CheckpointRecord, TrainConfig, network_from_record, train
from routing_reference import reference_routing

REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS - {detail}")


# -- 1. per-layer parameter table reproduced exactly ---------------------------------


def test_c1_conv_block_parameter_table_exact(capsys):
    reports = [
        r for r in layer_reports(ModelConfig()) if r.name.startswith(("Conv2d", "BatchNorm2d"))
    ]
    computed = tuple(r.params for r in reports)
    assert computed == PUBLISHED_CONVBLOCK_PARAMS, f"mismatch: {computed}"

    rc = main(["profile"])
    assert rc == 0
    out = capsys.readouterr().out
    for value in PUBLISHED_CONVBLOCK_PARAMS:
        assert f"{value:,}" in out
    _verdict("C1", "all twelve conv-block per-layer parameter counts reproduced exactly")


# -- 2. published-totals audit ---------------------------------------------------------


def test_c2_flop_and_parameter_audit(capsys):
    params = count_params(ModelConfig())
    flops = count_flops(ModelConfig())
    rel = abs(flops.conv_total - PUBLISHED_FLOPS_TOTAL) / PUBLISHED_FLOPS_TOTAL
    assert rel <= 0.012, f"conv MAC total {flops.conv_total} is {100 * rel:.2f}% from 18.34M"

    text = format_profile(ModelConfig())
    assert f"{params.total - 734_800:+,}" in text  # signed difference vs 734,800
    assert f"{params.total - 780_000:+,}" in text  # signed difference vs 780,000
    assert f"{params.class_caps_total:,}" in text  # ClassCaps term isolated
    assert f"{params.total - params.class_caps_total:,}" in text

    rc = main(["profile"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "734,800" in out and "780,000" in out
    _verdict(
        "C2",
        f"conv MACs {flops.conv_total:,} within {100 * rel:.2f}% of 18.34M; "
        "signed parameter differences reported with ClassCaps isolated",
    )


# -- 3. squash properties over 10,000 random vectors ----------------------------------


def test_c3_squash_suite():
    rng = np.random.default_rng(33)
    count = 10_000
    dims = rng.integers(2, 32, size=count)
    max_err = 0.0
    for i in range(count):
        scale = 10.0 ** rng.uniform(-3, 3)
        s = rng.normal(size=int(dims[i])) * scale
        v = squash(Tensor(s[None]), axis=1).data[0]
        norm_s = np.linalg.norm(s)
        norm_v = np.linalg.norm(v)
        assert 0.0 <= norm_v < 1.0
        assert float(v @ s) >= 0.0
        # algebraic identity with the two-factor form
        expected = (norm_s**2 / (1 + norm_s**2)) * (s / norm_s)
        max_err = max(max_err, float(np.abs(v - expected).max()))
        assert max_err <= 1e-12

    unit = rng.normal(size=16)
    unit /= np.linalg.norm(unit)
    assert np.linalg.norm(squash(Tensor(unit[None]), axis=1).data) == pytest.approx(0.5, abs=1e-12)
    assert np.all(squash(Tensor(np.zeros((1, 8))), axis=1).data == 0.0)
    _verdict("C3", f"10,000 random vectors: norm in [0,1), direction kept, identity to {max_err:.1e}")


# -- 4. routing suite -------------------------------------------------------------------


def test_c4_routing_suite():
    rng = np.random.default_rng(44)

    # simplex after every iteration, realistic size
    u_hat = Tensor(rng.normal(size=(2, 64, 10, 16)))
    _, couplings = routing_by_agreement(u_hat, 4)
    for c in couplings:
        assert np.all(c >= 0)
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-10)

    # uniform couplings at a single iteration
    _, (one,) = routing_by_agreement(Tensor(rng.normal(size=(3, 5, 10, 8))), 1)
    np.testing.assert_allclose(one, 0.1, atol=1e-12)

    # parent-permutation equivariance
    votes = rng.normal(size=(2, 6, 5, 4))
    perm = rng.permutation(5)
    y, cs = routing_by_agreement(Tensor(votes), 3)
    yp, cs_p = routing_by_agreement(Tensor(votes[:, :, perm, :]), 3)
    np.testing.assert_allclose(yp.data, y.data[:, perm, :], atol=1e-12)
    for cp, c in zip(cs_p, cs, strict=True):
        np.testing.assert_allclose(cp, c[:, :, perm], atol=1e-12)

    # toy-size equivalence with the Procedure 1 reference
    toy = rng.normal(size=(4, 3, 5))  # 4 children, 3 parents
    y_toy, cs_toy = routing_by_agreement(Tensor(toy[None]), 3)
    y_ref, _, cs_ref = reference_routing(toy[None], 3)
    np.testing.assert_allclose(y_toy.data, y_ref, atol=1e-10)
    for c, ref_c in zip(cs_toy, cs_ref, strict=True):
        np.testing.assert_allclose(c, ref_c, atol=1e-10)
    _verdict("C4", "simplex per iteration, uniform at one iteration, equivariance, toy oracle to 1e-10")


# -- 5. finite-difference gradients end to end ------------------------------------------


def test_c5_gradient_correctness_full_sweep():
    config = ModelConfig(
        image_size=8,
        conv_channels=(4, 8),
        conv_strides=(1, 2),
        primary_channels=8,
        capsule_dim=4,
        num_classes=3,
        class_capsule_dim=4,
    )
    net = CapsuleNetwork(config, seed=5, dtype=np.float64)
    rng = np.random.default_rng(55)
    x1 = rng.normal(size=(4, 3, 8, 8))
    x2 = rng.normal(size=(4, 3, 8, 8))

    def loss_value():
        o1 = net.forward(x1, mode="train", routing_iterations=3, update_running=False)
        o2 = net.forward(x2, mode="train", routing_iterations=3, update_running=False)
        return nt_xent_op(concat([o1.z, o2.z], axis=0), 0.2)

    loss_value().backward()  # the network is fresh: every gradient slot is empty

    step = 1e-4
    total = 0
    good = 0
    worst = 0.0
    for name, tensor in net.trainable().items():
        flat = tensor.data.reshape(-1)
        gflat = tensor.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(loss_value().data)
            flat[i] = orig - step
            lo = float(loss_value().data)
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            rel = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-8)
            total += 1
            good += rel <= 1e-4
            worst = max(worst, rel)
    fraction = good / total
    assert fraction >= 0.99, f"only {100 * fraction:.2f}% of {total} coordinates agree"
    _verdict(
        "C5",
        f"{good}/{total} coordinates ({100 * fraction:.2f}%) within 1e-4 of central differences "
        "(batch norm + squash + 3 routing iterations + contrastive loss)",
    )


# -- 6. contrastive-loss oracle ------------------------------------------------------------


def test_c6_nt_xent_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.05, 2.0))
        z = rng.normal(size=(2 * n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        mine = float(nt_xent_op(Tensor(z), tau).data)
        brute = 0.0
        for a in range(2 * n):
            pos = (a + n) % (2 * n)
            num = np.exp(z[a] @ z[pos] / tau)
            den = sum(np.exp(z[a] @ z[k] / tau) for k in range(2 * n) if k != a)
            brute += -np.log(num / den)
        brute /= 2 * n
        worst = max(worst, abs(mine - brute))
        assert worst <= 1e-8

    row = rng.normal(size=8)
    row /= np.linalg.norm(row)
    pair = Tensor(np.stack([row, row]))
    assert abs(float(nt_xent_op(pair, 0.2).data)) <= 1e-9
    for n in (2, 4, 8):
        batch = Tensor(np.tile(row, (2 * n, 1)))
        assert abs(float(nt_xent_op(batch, 0.2).data) - np.log(2 * n - 1)) <= 1e-9
    _verdict("C6", f"100 random batches match brute force (worst {worst:.1e}); analytic cases to 1e-9")


# -- 7. kNN oracle ----------------------------------------------------------------------------


def test_c7_knn_oracle():
    rng = np.random.default_rng(77)

    def unit(n, d):
        z = rng.normal(size=(n, d))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    # random banks vs exhaustive sort-and-sum
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(15, 40))
        d = int(rng.integers(4, 16))
        k = int(rng.integers(1, m + 1))
        bank = FeatureBank(unit(m, d), rng.integers(0, 10, size=m))
        cfg = EvalConfig(k=k, temperature=float(rng.uniform(0.05, 2.0)))
        queries = unit(5, d)
        scores, ranked = weighted_knn_predict(queries, bank, cfg)
        for q in range(5):
            sims = queries[q] @ bank.features.T
            order = np.argsort(-sims)[:k]
            ref = np.zeros(10)
            for idx in order:
                ref[bank.labels[idx]] += np.exp(sims[idx] / cfg.temperature)
            worst = max(worst, float(np.abs(scores[q] - ref).max()))
            assert worst <= 1e-10
            ref_ranked = sorted(range(10), key=lambda c: (-ref[c], c))
            np.testing.assert_array_equal(ranked[q], ref_ranked)

    # self-retrieval
    feats = unit(50, 16)
    bank = FeatureBank(feats, rng.integers(0, 10, size=50))
    _, ranked = weighted_knn_predict(feats, bank, EvalConfig(k=1, temperature=0.2))
    assert np.all(ranked[:, 0] == bank.labels)

    # chance level over 10,000 queries
    bank = FeatureBank(unit(2000, 32), np.repeat(np.arange(10), 200))
    queries = unit(10_000, 32)
    labels = rng.integers(0, 10, size=10_000)
    scores, ranked = weighted_knn_predict(queries, bank, EvalConfig(k=200, temperature=0.2))
    top1 = float(np.mean(ranked[:, 0] == labels))
    top5 = float(np.mean(np.any(ranked[:, :5] == labels[:, None], axis=1)))
    assert abs(top1 - 0.10) <= 0.02
    assert abs(top5 - 0.50) <= 0.02
    assert top5 >= top1
    _verdict(
        "C7",
        f"oracle match to 1e-10; self-retrieval 100%; chance bank top1={100 * top1:.1f}% "
        f"top5={100 * top5:.1f}%",
    )


# -- 8. smoke training ---------------------------------------------------------------------------


# Seeds 0-2, the first three; each must gain C8_BAR. Over seeds 0-9 the
# gain over the same init read +18.8 to +32.7 pp (median +23.0).
C8_SEEDS = (0, 1, 2)
C8_EPOCHS = 10
C8_BAR = 10.0  # pp


def _init_at_learning_rate_zero(config, images, stats):
    """The untrained network of `config` with the batch-norm running
    statistics its steps at learning rate 0 leave, bit for bit: only view
    i's train-mode conv block moves them, so that alone is run."""
    net = CapsuleNetwork(config.model, seed=config.seed)
    with no_grad():
        for epoch in range(1, config.epochs + 1):
            batches = batch_iterator(images, config.batch_size, shuffle=True, seed=config.seed, epoch=epoch)
            for index, batch in enumerate(batches):
                if batch.size >= 2:  # as train skips a batch of one
                    view_i, _ = train_mod._two_view_batch((epoch, index, batch), config, stats)
                    net.conv_block(view_i, mode="train")
    return net


def test_c8_smoke_training_improves_knn(small_data_dir):
    # Each trained network against its own init with the running statistics
    # that training would set at learning rate 0, not the init's mean 0 /
    # variance 1: over seeds 0-9 those alone moved top-1 by -11.1 to +4.6 pp.
    # The crop keeps the whole image: the synthetic classes differ only in
    # ring frequency, which a random-resized crop at scale 0.2 changes by up
    # to 2.2x.
    train_split, test_split = load_cifar10_binary(small_data_dir)
    subset = train_split.take(512)
    held_out = test_split.take(1000)
    images = subset.without_labels()
    stats = compute_normalization_stats(images)
    augment = AugmentConfig(crop_scale_range=(1.0, 1.0))
    readings = []
    for seed in C8_SEEDS:
        config = TrainConfig(epochs=C8_EPOCHS, batch_size=64, seed=seed, augment=augment)
        knn_cfg = EvalConfig(k=20, temperature=config.temperature)
        before = evaluate(_init_at_learning_rate_zero(config, images, stats), subset, held_out, stats, knn_cfg)
        result = train(config, subset)
        net, _, _ = network_from_record(result.checkpoint)
        after = evaluate(net, subset, held_out, stats, knn_cfg)
        readings.append((seed, before.top1, after.top1, result.metrics[0].loss, result.metrics[-1].loss))
    report = "; ".join(
        f"seed {seed}: {b:.2f}% -> {a:.2f}% ({a - b:+.2f}pp), loss {first:.3f} -> {last:.3f}"
        for seed, b, a, first, last in readings
    )
    assert all(last < first for *_, first, last in readings), report
    assert all(a - b >= C8_BAR for _, b, a, *_ in readings), report
    _verdict("C8", f"kNN top-1 over the same init at learning rate 0, each >= +{C8_BAR:.0f}pp: {report}")


# -- 9. determinism and resume ----------------------------------------------------------------------


def test_c9_determinism_and_resume(small_data_dir, tmp_path):
    train_split, _ = load_cifar10_binary(small_data_dir)
    subset = train_split.take(64)
    thin = ModelConfig(
        conv_channels=(4, 8, 16),
        conv_strides=(2, 2, 2),
        primary_channels=16,
        capsule_dim=4,
        class_capsule_dim=4,
    )

    def config(epochs, checkpoint_every=0):
        return TrainConfig(
            epochs=epochs, batch_size=16, seed=9, model=thin,
            checkpoint_every=checkpoint_every,
        )

    # identical seeds, identical csv bytes
    train(config(5), subset, metrics_path=tmp_path / "a.csv")
    train(config(5), subset, metrics_path=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # train-10 vs train-5-plus-resume-5, bitwise checkpoint equality
    straight = train(config(10), subset)
    five = train(config(5), subset)
    extended = train(config(10), subset, resume_from=five.checkpoint)
    a = straight.checkpoint.save(tmp_path / "straight.ckpt")
    b = extended.checkpoint.save(tmp_path / "resumed.ckpt")
    assert a.read_bytes() == b.read_bytes()

    # and the interruption flavor via an on-disk snapshot
    train(config(10, checkpoint_every=5), subset, checkpoint_dir=tmp_path / "snap")
    snapshot = CheckpointRecord.load(tmp_path / "snap" / "epoch_0005.ckpt")
    resumed = train(config(10, checkpoint_every=5), subset, resume_from=snapshot)
    c = train(config(10, checkpoint_every=5), subset).checkpoint.save(tmp_path / "c.ckpt")
    d = resumed.checkpoint.save(tmp_path / "d.ckpt")
    assert c.read_bytes() == d.read_bytes()
    _verdict("C9", "metrics CSVs and split-run checkpoints are bitwise identical")


# -- 10. full-scale recipe is documented, not gated ---------------------------------------------------


def test_c10_full_scale_recipe_documented():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "--paper-scale" in readme, "README must document the full-scale recipe flag"
    assert "500" in readme and "512" in readme, "README must state the full-scale epoch/batch sizes"
    assert "70.50" in readme and "98.10" in readme, "README must record the published accuracy targets"
    rc = main(["train", "--paper-scale", "--dry-run"])
    assert rc == 0
    _verdict("C10", "full-scale recipe (`train --paper-scale`, 500 epochs, batch 512) documented; not a gated test")
