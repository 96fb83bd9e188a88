"""Contrastive loss: brute-force oracle, analytic cases, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccaps.autodiff import Tensor, l2_normalize, no_grad
from ccaps.loss import nt_xent_op


def _unit_rows(n, d, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def brute_force_nt_xent(z, tau):
    """Direct per-anchor summation, no vectorization, no max tricks."""
    n2 = len(z)
    half = n2 // 2
    total = 0.0
    for a in range(n2):
        pos = (a + half) % n2
        num = np.exp(z[a] @ z[pos] / tau)
        den = sum(np.exp(z[a] @ z[k] / tau) for k in range(n2) if k != a)
        total += -np.log(num / den)
    return total / n2


def _loss(z, tau):
    """Value of the training loss node on a constant batch."""
    return float(nt_xent_op(Tensor(z), tau).data)


def _grad(z, tau):
    """Gradient of the training loss node with respect to the embedding rows."""
    leaf = Tensor(z, requires_grad=True)
    nt_xent_op(leaf, tau).backward()
    return leaf.grad


# -- loss values ----------------------------------------------------------------


def test_single_identical_pair_gives_zero_loss():
    row = _unit_rows(1, 8, seed=2)[0]
    assert _loss(np.stack([row, row]), 0.2) == pytest.approx(0.0, abs=1e-9)


def test_all_identical_batch_gives_log_2n_minus_1():
    row = _unit_rows(1, 8, seed=3)[0]
    for n in (2, 4, 8):
        assert _loss(np.tile(row, (2 * n, 1)), 0.2) == pytest.approx(np.log(2 * n - 1), abs=1e-9)
    assert _loss(np.tile(row, (8, 1)), 0.2) == pytest.approx(1.945910, abs=1e-6)  # ln 7


def test_similarity_orthogonal_rows():
    # every similarity is 0, positive included, so each anchor's loss is
    # log(2N - 1) at any temperature
    for tau in (0.05, 0.5, 2.0):
        assert _loss(np.eye(6), tau) == pytest.approx(np.log(5), abs=1e-12)


def test_flat_temperature_limit():
    z = _unit_rows(8, 16, seed=4)
    loss = _loss(z, 1e6)
    assert loss == pytest.approx(np.log(7), abs=1e-3)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        tau = float(rng.uniform(0.05, 2.0))
        z = _unit_rows(2 * n, d, seed=100 + trial)
        assert _loss(z, tau) == pytest.approx(brute_force_nt_xent(z, tau), abs=1e-8)


def test_loss_is_nonnegative_and_positive_with_negatives():
    z = _unit_rows(6, 8, seed=6)
    assert _loss(z, 0.2) > 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_pair_permutation_invariance(seed, n):
    z = _unit_rows(2 * n, 8, seed=seed)
    perm = np.random.default_rng(seed + 1).permutation(n)
    permuted = np.concatenate([z[:n][perm], z[n:][perm]])
    a = _loss(z, 0.2)
    b = _loss(permuted, 0.2)
    assert a == pytest.approx(b, abs=1e-10)


def test_view_swap_invariance():
    n = 5
    z = _unit_rows(2 * n, 8, seed=7)
    swapped = np.concatenate([z[n:], z[:n]])
    a = _loss(z, 0.3)
    b = _loss(swapped, 0.3)
    assert a == pytest.approx(b, abs=1e-12)
    ga = _grad(z, 0.3)
    gb = _grad(swapped, 0.3)
    np.testing.assert_allclose(gb, np.concatenate([ga[n:], ga[:n]]), atol=1e-12)


def test_raising_a_negative_similarity_never_lowers_loss():
    # orthogonal construction: rows are distinct basis vectors except row 1,
    # which tilts toward row 0 by angle a. Rows 0 and 1 are negatives (the
    # partner of 0 is 3), and only sim(0, 1) varies with a.
    n = 3
    d = 10

    def batch(alpha):
        z = np.zeros((2 * n, d))
        for i in range(2 * n):
            z[i, i] = 1.0
        z[1] = np.sin(alpha) * np.eye(d)[0] + np.cos(alpha) * np.eye(d)[1]
        return z

    losses = [_loss(batch(a), 0.2) for a in np.linspace(0.0, np.pi / 2, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] > losses[0]


def test_loss_depends_only_on_similarities():
    z = _unit_rows(8, 6, seed=9)
    q, _ = np.linalg.qr(np.random.default_rng(10).normal(size=(6, 6)))
    rotated = z @ q  # orthogonal map preserves all dot products
    a = _loss(z, 0.2)
    b = _loss(rotated, 0.2)
    assert a == pytest.approx(b, abs=1e-10)


# -- gradients -------------------------------------------------------------------


def test_backward_matches_finite_differences():
    n, d, tau = 3, 5, 0.2
    z = _unit_rows(2 * n, d, seed=11)
    grad = _grad(z, tau)

    step = 1e-6
    numeric = np.zeros_like(z)
    for i in range(2 * n):
        for j in range(d):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += step
            zm[i, j] -= step
            numeric[i, j] = (_loss(zp, tau) - _loss(zm, tau)) / (2 * step)
    rel = np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
    assert rel.max() < 1e-6


def test_identical_rows_gradient_vanishes_along_common_direction():
    row = _unit_rows(1, 8, seed=12)[0]
    z = np.tile(row, (6, 1))
    grad = _grad(z, 0.2)
    np.testing.assert_allclose(grad @ row, 0.0, atol=1e-10)


def test_nt_xent_op_matches_pure_function_and_backpropagates():
    n, d, tau = 4, 6, 0.2
    raw = np.random.default_rng(13).normal(size=(2 * n, d))
    t = Tensor(raw, requires_grad=True)
    z = l2_normalize(t, axis=1)
    loss = nt_xent_op(z, tau)
    assert float(loss.data) == pytest.approx(brute_force_nt_xent(z.data, tau), abs=1e-10)
    loss.backward()
    assert t.grad.shape == raw.shape

    step = 1e-6
    for i, j in [(0, 0), (3, 2), (7, 5)]:
        rp, rm = raw.copy(), raw.copy()
        rp[i, j] += step
        rm[i, j] -= step

        def f(arr):
            zz = l2_normalize(Tensor(arr), axis=1)
            return float(nt_xent_op(zz, tau).data)

        numeric = (f(rp) - f(rm)) / (2 * step)
        assert t.grad[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-9)


def test_nt_xent_op_records_no_node_under_no_grad():
    z = Tensor(_unit_rows(4, 3), requires_grad=True)
    with no_grad():
        loss = nt_xent_op(z, 0.5)
    assert loss._parents == () and loss._backward is None
    assert nt_xent_op(z, 0.5)._parents == (z,)


def test_nt_xent_op_validates_inputs():
    # a NaN temperature made a NaN loss, and inf a finite one, log(2N - 1)
    for tau in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            nt_xent_op(Tensor(_unit_rows(4, 3)), tau=tau)
    with pytest.raises(ValueError, match=r"\[2N, D\]"):
        nt_xent_op(Tensor(_unit_rows(3, 3)), tau=0.2)
    with pytest.raises(ValueError, match=r"\[2N, D\]"):
        nt_xent_op(Tensor(_unit_rows(4, 3)[0]), tau=0.2)
