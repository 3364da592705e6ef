import math
import warnings

import numpy as np
import pytest

from gridseek.reward import (
    LEAK,
    LabeledPatch,
    RewardNet,
    _sigmoid,
    bce_loss,
    deep_layout,
    default_layout,
    grad_check,
    predict,
    train,
)


def toy_dataset():
    return [
        LabeledPatch(np.array([0.05]), 0.0),
        LabeledPatch(np.array([0.95]), 1.0),
    ]


# ----------------------------------------------------------------- predict


def test_zero_parameters_predict_half():
    net = RewardNet.create([3, 4, 1], seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    assert predict(net, np.zeros(3)) == pytest.approx(0.5)


def test_hand_set_single_layer():
    net = RewardNet(sizes=[1, 1], weights=[np.array([[1.0]])], biases=[np.zeros(1)])
    assert predict(net, np.array([0.0])) == pytest.approx(0.5)
    assert predict(net, np.array([2.0])) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))


def straight_line_forward(net, x):
    """Duplicate evaluator written without shared code paths."""
    h = list(x)
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            s = b[j]
            for i in range(w.shape[0]):
                s += h[i] * w[i, j]
            if layer < len(net.weights) - 1:
                s = s if s > 0 else LEAK * s
            out.append(s)
        h = out
    return 1.0 / (1.0 + math.exp(-h[0]))


def test_forward_matches_independent_evaluator():
    rng = np.random.default_rng(4)
    net = RewardNet.create([4, 6, 3, 1], seed=9)
    for _ in range(10):
        x = rng.normal(size=4)
        assert predict(net, x) == pytest.approx(straight_line_forward(net, x), abs=1e-12)


def test_predict_batch_matches_scalar():
    net = RewardNet.create([2, 5, 1], seed=3)
    X = np.random.default_rng(0).normal(size=(7, 2))
    batch = predict(net, X)
    for i in range(7):
        assert batch[i] == pytest.approx(predict(net, X[i]))


def test_predict_output_in_open_interval():
    net = RewardNet.create([1, 8, 1], seed=1)
    for v in (-50.0, 0.0, 50.0):
        p = predict(net, np.array([v]))
        assert 0.0 < p < 1.0


def test_predict_dimension_mismatch():
    net = RewardNet.create([2, 3, 1], seed=0)
    with pytest.raises(ValueError):
        predict(net, np.zeros(5))


# ---------------------------------------------------------------- bce loss


def force_logit(value):
    """Single-layer net that always outputs the given logit."""
    return RewardNet(
        sizes=[1, 1], weights=[np.array([[0.0]])], biases=[np.array([value])]
    )


def test_bce_half_prediction_hard_label():
    net = force_logit(0.0)  # prediction 0.5
    loss = bce_loss(net, [LabeledPatch(np.zeros(1), 1.0)])
    assert loss == pytest.approx(math.log(2.0))


def test_bce_three_sample_hand_arithmetic():
    def logit(p):
        return math.log(p / (1.0 - p))

    samples = [
        (force_logit(logit(0.9)), LabeledPatch(np.zeros(1), 1.0), -math.log(0.9)),
        (force_logit(logit(0.1)), LabeledPatch(np.zeros(1), 0.0), -math.log(0.9)),
        (force_logit(logit(0.5)), LabeledPatch(np.zeros(1), 1.0), -math.log(0.5)),
    ]
    total = sum(bce_loss(net, [p]) for net, p, _ in samples)
    assert total == pytest.approx(sum(e for _, _, e in samples), rel=1e-12)


def test_bce_vanishes_as_prediction_approaches_label():
    assert bce_loss(force_logit(40.0), [LabeledPatch(np.zeros(1), 1.0)]) < 1e-12
    assert bce_loss(force_logit(-40.0), [LabeledPatch(np.zeros(1), 0.0)]) < 1e-12


def test_bce_soft_labels_finite():
    net = RewardNet.create([1, 4, 1], seed=2)
    loss = bce_loss(net, [LabeledPatch(np.array([0.5]), 0.3)])
    assert math.isfinite(loss)


def test_bce_empty_dataset_error():
    net = RewardNet.create([1, 1], seed=0)
    with pytest.raises(ValueError):
        bce_loss(net, [])


def test_duplicated_dataset_doubles_loss():
    net = RewardNet.create([1, 4, 1], seed=5)
    data = toy_dataset()
    assert bce_loss(net, data + data) == pytest.approx(2.0 * bce_loss(net, data))


# ------------------------------------------------------------------- train


def test_train_zero_lr_keeps_parameters():
    net = RewardNet.create([1, 4, 1], seed=6)
    out = train(net, toy_dataset(), epochs=10, lr=0.0)
    for w0, w1 in zip(net.weights, out.weights):
        np.testing.assert_array_equal(w0, w1)


def test_train_does_not_mutate_input_net():
    net = RewardNet.create([1, 4, 1], seed=6)
    before = [w.copy() for w in net.weights]
    train(net, toy_dataset(), epochs=5, lr=0.1)
    for w0, w1 in zip(before, net.weights):
        np.testing.assert_array_equal(w0, w1)


def test_train_reduces_loss():
    net = RewardNet.create(default_layout(1), seed=7)
    data = toy_dataset()
    before = bce_loss(net, data)
    trained = train(net, data, epochs=3, lr=0.01)
    assert bce_loss(trained, data) <= before + 1e-12


def test_separable_toy_set_converges():
    net = RewardNet.create(default_layout(1), seed=8)
    trained = train(net, toy_dataset(), epochs=500, lr=0.05)
    assert bce_loss(trained, toy_dataset()) < 0.1


def test_training_deterministic_for_fixed_seed():
    data = toy_dataset()
    a = train(RewardNet.create([1, 16, 8, 1], seed=11), data, epochs=20, lr=0.05)
    b = train(RewardNet.create([1, 16, 8, 1], seed=11), data, epochs=20, lr=0.05)
    for w0, w1 in zip(a.weights, b.weights):
        np.testing.assert_array_equal(w0, w1)


# -------------------------------------------------------------- grad check


def test_grad_check_default_layout():
    rng = np.random.default_rng(13)
    net = RewardNet.create(default_layout(4), seed=13)
    data = [LabeledPatch(rng.uniform(0, 1, 4), float(rng.integers(0, 2)))
            for _ in range(6)]
    assert grad_check(net, data) < 1e-4


def test_grad_check_deep_layout():
    rng = np.random.default_rng(14)
    net = RewardNet.create(deep_layout(4), seed=14)
    data = [LabeledPatch(rng.uniform(0, 1, 4), float(rng.integers(0, 2)))
            for _ in range(4)]
    assert grad_check(net, data) < 1e-4


def test_gradients_vanish_at_near_perfect_fit():
    from gridseek.reward import _gradients, _stack

    net = RewardNet.create(default_layout(1), seed=15)
    data = toy_dataset()
    settled = train(net, data, epochs=3000, lr=0.1)
    assert bce_loss(settled, data) < 1e-3
    X, y = _stack(settled, data)
    grads_w, grads_b = _gradients(settled, X, y)
    worst = max(np.abs(g).max() for g in grads_w + grads_b)
    assert worst < 1e-3


def test_single_parameter_slope():
    net = RewardNet(sizes=[1, 1], weights=[np.array([[0.7]])], biases=[np.zeros(1)])
    net.biases[0].flags.writeable = True
    data = [LabeledPatch(np.array([1.0]), 1.0)]
    assert grad_check(net, data) < 1e-6


def test_duplicated_dataset_doubles_gradients():
    from gridseek.reward import _gradients, _stack

    net = RewardNet.create([1, 4, 1], seed=16)
    data = toy_dataset()
    X1, y1 = _stack(net, data)
    X2, y2 = _stack(net, data + data)
    g1 = _gradients(net, X1, y1)
    g2 = _gradients(net, X2, y2)
    for a, b in zip(g1[0], g2[0]):
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)


# -------------------------------------------------------- online behaviour


def rank_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_online_training_reaches_high_auc():
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.uniform(0.8, 1.0, 60), rng.uniform(0.0, 0.2, 140)])
    labels = (values > 0.5).astype(float)
    order = rng.permutation(values.size)
    values, labels = values[order], labels[order]

    net = RewardNet.create(default_layout(1), seed=17)
    data = []
    for v, l in zip(values[:50], labels[:50]):
        data.append(LabeledPatch(np.array([v]), float(l)))
        net = train(net, data, epochs=3, lr=0.01)

    held_v, held_l = values[50:], labels[50:]
    scores = predict(net, held_v[:, None])
    assert rank_auc(scores, held_l) > 0.9


# --------------------------------------------------------- reproducibility


def test_parameter_count_reproducible():
    a = RewardNet.create(default_layout(4), seed=21)
    b = RewardNet.create(default_layout(4), seed=21)
    assert a.n_params == b.n_params == 4 * 16 + 16 + 16 * 8 + 8 + 8 + 1
    for w0, w1 in zip(a.weights, b.weights):
        np.testing.assert_array_equal(w0, w1)


def test_labeled_patch_validation():
    with pytest.raises(ValueError):
        LabeledPatch(np.zeros(1), 1.5)


def test_sigmoid_saturates_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([-800.0, -0.0, 0.0, 800.0]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.5, 1.0])
    z = np.random.default_rng(4).normal(0.0, 30.0, 10_000)  # |z| < 709: no overflow below
    both = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    assert np.array_equal(_sigmoid(z), both)
