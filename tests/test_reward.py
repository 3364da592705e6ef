import math
import warnings

import numpy as np
import pytest

from gridseek.reward import (
    LEAK,
    PREDICT_BLOCK,
    RewardNet,
    _forward,
    _gradients,
    _sigmoid,
    _split,
    bce_loss,
    deep_layout,
    default_layout,
    grad_check,
    predict,
    train,
)


def toy_dataset():
    """A labelled array: each row is a one-cell patch, then its label."""
    return np.array([[0.05, 0.0], [0.95, 1.0]])


def random_dataset(rng, rows, inputs):
    """Uniform patches with 0/1 labels, drawn row by row."""
    return np.array([[*rng.uniform(0, 1, inputs), rng.integers(0, 2)] for _ in range(rows)])


# ----------------------------------------------------------------- predict


def test_zero_parameters_predict_half():
    net = RewardNet.create([3, 4, 1], seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    assert predict(net, np.zeros(3)) == pytest.approx(0.5)


def test_hand_set_single_layer():
    net = RewardNet(weights=[np.array([[1.0]])], biases=[np.zeros(1)])
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


@pytest.mark.parametrize("rows", [1, 2, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1,
                                  2 * PREDICT_BLOCK + 1, 5000])
@pytest.mark.parametrize("layout", [default_layout(1), default_layout(4), deep_layout(1),
                                    deep_layout(4)],
                         ids=["default1", "default4", "deep1", "deep4"])
def test_blocked_predict_is_bit_identical_to_full_forward(layout, rows):
    # row blocks must not change a single bit of the one-call forward pass
    rng = np.random.default_rng(rows)
    for seed in range(8):
        net = RewardNet.create(layout, seed=seed)
        X = rng.random((rows, layout[0]))  # patches are clipped to [0, 1]
        assert np.array_equal(predict(net, X), _sigmoid(_forward(net, X.T)[-1][0]))


def test_predict_output_in_open_interval():
    net = RewardNet.create([1, 8, 1], seed=1)
    for v in (-50.0, 0.0, 50.0):
        p = predict(net, np.array([v]))
        assert 0.0 < p < 1.0


def test_predict_dimension_mismatch():
    net = RewardNet.create([2, 3, 1], seed=0)
    with pytest.raises(ValueError):
        predict(net, np.zeros(5))


def test_net_reads_its_input_width_from_its_first_weights():
    net = RewardNet(weights=[np.array([[2.0]])], biases=[np.zeros(1)])
    with pytest.raises(ValueError, match="patch dimension 3 does not match net input 1"):
        predict(net, np.array([1.0, 5.0, -7.0]))
    with pytest.raises(TypeError):
        RewardNet(sizes=[3, 1], weights=[np.array([[2.0]])], biases=[np.zeros(1)])


# ---------------------------------------------------------------- bce loss


def force_logit(value):
    """Single-layer net that always outputs the given logit."""
    return RewardNet(
        weights=[np.array([[0.0]])], biases=[np.array([value])]
    )


def test_bce_half_prediction_hard_label():
    net = force_logit(0.0)  # prediction 0.5
    loss = bce_loss(net, [[0.0, 1.0]])
    assert loss == pytest.approx(math.log(2.0))


def test_bce_three_sample_hand_arithmetic():
    def logit(p):
        return math.log(p / (1.0 - p))

    samples = [
        (force_logit(logit(0.9)), [0.0, 1.0], -math.log(0.9)),
        (force_logit(logit(0.1)), [0.0, 0.0], -math.log(0.9)),
        (force_logit(logit(0.5)), [0.0, 1.0], -math.log(0.5)),
    ]
    total = sum(bce_loss(net, [row]) for net, row, _ in samples)
    assert total == pytest.approx(sum(e for _, _, e in samples), rel=1e-12)


def test_bce_vanishes_as_prediction_approaches_label():
    assert bce_loss(force_logit(40.0), [[0.0, 1.0]]) < 1e-12
    assert bce_loss(force_logit(-40.0), [[0.0, 0.0]]) < 1e-12


@pytest.mark.parametrize("label", [0.0, 0.3, 1.0])
def test_bce_logaddexp_softplus_matches_clipped_form(label):
    # the clipped form drops exp(-z) above 30, so there logaddexp is the more accurate one
    for z in np.linspace(-40.0, 40.0, 321):
        clipped = z if z > 30.0 else math.log1p(math.exp(z))
        assert abs(bce_loss(force_logit(z), [[0.0, label]]) - (clipped - label * z)) <= 1e-13


def test_bce_soft_labels_finite():
    net = RewardNet.create([1, 4, 1], seed=2)
    loss = bce_loss(net, [[0.5, 0.3]])
    assert math.isfinite(loss)


def test_bce_empty_dataset_error():
    net = RewardNet.create([1, 1], seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        bce_loss(net, np.empty((0, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        bce_loss(net, [])


def test_duplicated_dataset_doubles_loss():
    net = RewardNet.create([1, 4, 1], seed=5)
    data = toy_dataset()
    assert bce_loss(net, np.vstack([data, data])) == pytest.approx(2.0 * bce_loss(net, data))


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
    data = random_dataset(rng, 6, 4)
    assert grad_check(net, data) < 1e-4


def test_grad_check_deep_layout():
    rng = np.random.default_rng(14)
    net = RewardNet.create(deep_layout(4), seed=14)
    data = random_dataset(rng, 4, 4)
    assert grad_check(net, data) < 1e-4


def test_gradients_vanish_at_near_perfect_fit():
    net = RewardNet.create(default_layout(1), seed=15)
    data = toy_dataset()
    settled = train(net, data, epochs=3000, lr=0.1)
    assert bce_loss(settled, data) < 1e-3
    X, y = _split(settled, data)
    grads_w, grads_b = _gradients(settled, X, y)
    worst = max(np.abs(g).max() for g in grads_w + grads_b)
    assert worst < 1e-3


def test_single_parameter_slope():
    net = RewardNet(weights=[np.array([[0.7]])], biases=[np.zeros(1)])
    net.biases[0].flags.writeable = True
    assert grad_check(net, [[1.0, 1.0]]) < 1e-6


def test_duplicated_dataset_doubles_gradients():
    net = RewardNet.create([1, 4, 1], seed=16)
    data = toy_dataset()
    X1, y1 = _split(net, data)
    X2, y2 = _split(net, np.vstack([data, data]))
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
    data = np.column_stack([values[:50], labels[:50]])
    for t in range(1, 51):
        net = train(net, data[:t], epochs=3, lr=0.01)

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
    """A labelled row needs a label in [0, 1] and one value per net input."""
    net = RewardNet.create([2, 3, 1], seed=0)
    for label in (1.5, -0.1, float("nan")):
        for fn in (train, bce_loss, grad_check):
            with pytest.raises(ValueError, match=r"labels must lie in \[0, 1\]"):
                fn(net, [[0.2, 0.4, 0.0], [0.1, 0.3, label]])
    with pytest.raises(ValueError, match="patch dimension 3 does not match net input 2"):
        train(net, [[0.2, 0.4, 0.6, 1.0]])
    with pytest.raises(ValueError, match="nonempty"):
        train(net, [0.2, 0.4, 1.0])  # one row needs its own axis


def test_sigmoid_saturates_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _sigmoid(np.array([-800.0, -0.0, 0.0, 800.0]))
    np.testing.assert_array_equal(out, [0.0, 0.5, 0.5, 1.0])


def test_tanh_sigmoid_matches_exp_form():
    z = np.linspace(-40.0, 40.0, 200_001)  # |z| < 709: neither exp below overflows
    exp_form = np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    assert np.max(np.abs(_sigmoid(z) - exp_form)) <= 4e-16


@pytest.mark.parametrize("z", [0.0, -0.0, -5e-324, -1e-310, -np.finfo(float).tiny, 5e-324,
                               1e-300, -1e-300, np.nan, np.inf, -np.inf])
def test_activation_mask_equals_preactivation_mask(z):
    # a one-input hidden layer with w = 1, b = 0 passes z through as its pre-activation
    net = RewardNet([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    pre = np.array([[z, -z, 1.0, -1.0]])
    np.testing.assert_array_equal(_forward(net, pre)[1] > 0.0, pre > 0.0)

