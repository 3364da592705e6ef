import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridseek import validate
from gridseek.belief import (
    BeliefConfig,
    ParticleBatch,
    location_scores,
    marginal_entropy,
    score_field,
)
from gridseek.env import Scene

CFG = BeliefConfig()


def batch_of(values) -> ParticleBatch:
    return ParticleBatch(np.asarray(values, dtype=float))


def expl(b, loc):
    return location_scores(b, loc, CFG)[0]


def likeli(b, loc):
    return location_scores(b, loc, CFG)[1]


def exploit(b, loc, reward_fn):
    return location_scores(b, loc, CFG, reward_fn)[2]


# ----------------------------------------------------------- marginal entropy


def test_entropy_zero_for_identical_particles():
    b = batch_of([[0.3, 0.7], [0.3, 0.7]])
    assert marginal_entropy(b, CFG) == pytest.approx(0.0, abs=1e-14)


def test_entropy_two_particle_hand_value():
    b = batch_of([[0.0], [2.0]])
    expected = 0.5 * math.log(0.5 * (1.0 + math.e**2)) * 2
    assert marginal_entropy(b, CFG) == pytest.approx(expected, rel=1e-12)


def test_entropy_grows_when_particles_scale_apart():
    b1 = batch_of([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    b2 = batch_of(np.asarray(b1.denoised) * 3.0)
    assert marginal_entropy(b2, CFG) > marginal_entropy(b1, CFG)


# --------------------------------------------------------- exploration score


def test_exploration_zero_at_consensus():
    b = batch_of([[0.4], [0.4]])
    assert expl(b, 0) == 0.0


def test_exploration_two_particles_hand_enumeration():
    b = batch_of([[0.0], [1.0]])
    # ordered pairs (1,2) and (2,1), each contributing 1/2
    assert expl(b, 0) == pytest.approx(1.0)


def test_exploration_three_particles_brute_force():
    b = batch_of([[0.0], [0.0], [3.0]])
    # four non-zero ordered pairs, each 9/2
    assert expl(b, 0) == pytest.approx(18.0)


def brute_pair_sum(values, loc, s2=1.0):
    total = 0.0
    for vi in values:
        for vj in values:
            total += sum((a - b) ** 2 for a, b in zip(vi[loc], vj[loc])) / (2 * s2)
    return total


def test_exploration_matches_brute_force_random():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(4, 6))
    b = batch_of(vals)
    for loc in range(6):
        expected = brute_pair_sum(vals[:, :, None], loc)
        assert expl(b, loc) == pytest.approx(expected)


def test_exploration_out_of_range():
    b = batch_of([[0.0], [1.0]])
    with pytest.raises(IndexError):
        expl(b, 3)


# ---------------------------------------------------------- likelihood score


def test_likelihood_consensus_maximum():
    b = batch_of([[0.2], [0.2]])
    assert likeli(b, 0) == pytest.approx(4.0)


def test_likelihood_two_particles_hand_value():
    b = batch_of([[0.0], [1.0]])
    assert likeli(b, 0) == pytest.approx(2.0 + 2.0 * math.exp(-0.5))


def test_likelihood_limit_is_batch_size():
    b = batch_of([[0.0], [1e4], [-1e4]])
    assert likeli(b, 0) == pytest.approx(3.0)


def test_likelihood_bounds():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n_b = int(rng.integers(2, 6))
        b = batch_of(rng.normal(size=(n_b, 3)))
        v = likeli(b, 1)
        assert 0.0 < v <= n_b * n_b + 1e-12


# -------------------------------------------------------- exploitation score


def test_exploitation_zero_reward():
    b = batch_of([[0.0, 1.0], [1.0, 0.0]])
    zero = lambda patches: np.zeros(patches.shape[0])
    assert exploit(b, 0, zero) == 0.0
    assert exploit(b, 1, zero) == 0.0


def test_exploitation_consensus_argmax_follows_reward():
    b = batch_of([[0.1, 0.9], [0.1, 0.9]])
    reward = lambda patches: np.where(patches[:, 0] > 0.5, 0.9, 0.2)
    scores = [exploit(b, q, reward) for q in (0, 1)]
    assert int(np.argmax(scores)) == 1
    # the likelihood factor is the constant n_b^2 at consensus
    assert scores[1] == pytest.approx(4.0 * 2 * 0.9)


def test_exploitation_hand_composition():
    b = batch_of([[0.0], [1.0]])
    half = lambda patches: np.full(patches.shape[0], 0.5)
    expected = (2.0 + 2.0 * math.exp(-0.5)) * 1.0
    assert exploit(b, 0, half) == pytest.approx(expected)


# -------------------------------------------------------------- block queries


def test_block_location_sums_squared_deviations():
    b = batch_of([[0.0, 0.0, 5.0], [1.0, 2.0, 5.0]])
    # block over cells {0, 1}: dev^2 = 1 + 4, two ordered pairs
    assert expl(b, [0, 1]) == pytest.approx(2 * 5.0 / 2.0)
    assert likeli(b, [0, 1]) == pytest.approx(
        2.0 + 2.0 * math.exp(-2.5)
    )


# ----------------------------------------------------------------- properties


small_batches = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 4), st.integers(1, 5)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(small_batches, st.randoms(use_true_random=False))
def test_scores_permutation_invariant(vals, pyrandom):
    b = batch_of(vals)
    order = list(range(b.n_b))
    pyrandom.shuffle(order)
    shuffled = batch_of(vals[order])
    for loc in range(b.dim):
        assert expl(b, loc) == pytest.approx(expl(shuffled, loc))
        assert likeli(b, loc) == pytest.approx(likeli(shuffled, loc))
    assert marginal_entropy(b, CFG) == pytest.approx(marginal_entropy(shuffled, CFG))


@settings(max_examples=60, deadline=None)
@given(small_batches, st.floats(-5, 5, allow_nan=False))
def test_scores_shift_invariant(vals, c):
    b = batch_of(vals)
    shifted_vals = vals.copy()
    shifted_vals[:, 0] += c
    shifted = batch_of(shifted_vals)
    assert expl(b, 0) == pytest.approx(expl(shifted, 0), abs=1e-9)
    assert likeli(b, 0) == pytest.approx(likeli(shifted, 0), abs=1e-9)


moderate_batches = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 4), st.integers(1, 5)),
    elements=st.floats(-2, 2, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(moderate_batches, st.floats(1.5, 4.0))
def test_spread_monotonicity(vals, c):
    # deviations kept small enough that the consensus kernel stays above
    # float64 absorption, otherwise the strict decrease is unrepresentable
    b = batch_of(vals)
    center = vals.mean(axis=0, keepdims=True)
    widened = batch_of(center + (vals - center) * c)
    for loc in range(b.dim):
        base = expl(b, loc)
        if base > 1e-9:  # skip consensus locations
            assert expl(widened, loc) > base
            assert likeli(widened, loc) < likeli(b, loc)


# ------------------------------------------------------------------- oracle


def expl_values(b, cands):
    return np.array([expl(b, q) for q in cands])


def test_oracle_picks_unique_disagreement():
    # particles at 0 and 40: d = 800 per ordered pair, where exp(d) overflows; the sum must not
    for vals, top in (([[0.0, 0.0], [0.0, 1.0]], 1.0), ([[0.0, 0.0], [0.0, 40.0]], 1600.0)):
        scores = expl_values(batch_of(vals), [0, 1])
        assert scores.tolist() == [0.0, top]
        assert int(np.argmax(scores)) == 1


def test_oracle_equivalence_200_random_instances():
    # check_entropy_ranking at another seed
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_b = int(rng.integers(2, 5))
        n_loc = int(rng.integers(2, 17))
        b = batch_of(rng.normal(size=(n_b, n_loc)))
        cands = list(range(n_loc))
        ref = expl_values(b, cands)
        field = score_field(b, cands, np.arange(n_loc)[:, None], CFG)
        tied = set(np.flatnonzero(ref >= ref.max() - 1e-9))
        assert int(np.argmax(field.exploration)) in tied


def test_oracle_tie_semantics():
    b = batch_of([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    ref = expl_values(b, [0, 1, 2])
    tied = set(np.flatnonzero(ref >= ref.max() - 1e-12))
    assert tied == {0, 1}
    field = score_field(b, [0, 1, 2], np.arange(3)[:, None], CFG)
    assert int(np.argmax(field.exploration)) in tied


def test_ranking_suite_fails_on_a_negated_exploration(monkeypatch):
    real = validate.score_field

    def negated(*args):
        field = real(*args)
        field.exploration = -field.exploration
        return field

    monkeypatch.setattr(validate, "score_field", negated)
    passed, detail = validate.check_entropy_ranking()
    assert not passed
    agreed, total = map(int, detail.split()[0].split("/"))
    assert total == 200 and agreed < 200


def test_theorem3_consensus_exploit_argmax_equals_reward_argmax():
    rng = np.random.default_rng(23)
    for _ in range(20):
        row = rng.uniform(0.0, 1.0, 8)
        b = batch_of(np.tile(row, (3, 1)))
        reward = lambda patches: 1.0 / (1.0 + np.exp(-3.0 * (patches[:, 0] - 0.5)))
        scores = [exploit(b, q, reward) for q in range(8)]
        per_loc_reward = reward(row[:, None])
        assert int(np.argmax(scores)) == int(np.argmax(per_loc_reward))


# ------------------------------------------------------------- score fields


def field_rows(field):
    return list(zip(field.exploration, field.likelihood, field.exploitation))


def test_score_field_matches_scalar_ops():
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(3, 5))
    b = batch_of(vals)
    reward = lambda patches: 1.0 / (1.0 + np.exp(-patches.sum(axis=1)))
    cands = list(range(5))
    coords = np.arange(5)[:, None]
    field = score_field(b, cands, coords, CFG, reward)
    for q, row in zip(cands, field_rows(field)):
        assert row == pytest.approx(location_scores(b, q, CFG, reward))


def test_score_field_block_coords():
    rng = np.random.default_rng(37)
    vals = rng.normal(size=(2, 4))
    b = batch_of(vals)
    coords = np.array([[0, 1], [2, 3]])
    field = score_field(b, [0, 1], coords, CFG)
    assert field.exploration[0] == pytest.approx(expl(b, [0, 1]))
    assert field.exploitation[0] == 0.0  # no reward_fn
    reward = lambda patches: patches.mean(axis=1) ** 2
    field = score_field(b, [0, 1], coords, CFG, reward)
    for cells, row in zip(coords, field_rows(field)):
        assert row == pytest.approx(location_scores(b, cells, CFG, reward))


@settings(max_examples=40, deadline=None)
@given(moderate_batches, st.integers(1, 3))
def test_score_field_matches_location_scores(vals, width):
    # contiguous blocks of `width` cells, wrapping around the state
    b = batch_of(vals)
    coords = (np.arange(b.dim)[:, None] + np.arange(width)) % b.dim
    reward = lambda patches: 1.0 / (1.0 + np.exp(-patches.sum(axis=1)))
    field = score_field(b, list(range(b.dim)), coords, CFG, reward)
    for cells, row in zip(coords, field_rows(field)):
        assert row == pytest.approx(location_scores(b, cells, CFG, reward),
                                    rel=1e-9, abs=1e-12)


# ------------------------------ pair-free kernels against the pair tensors


def pair_tensor_scores(batch, coord_sets, cfg):
    """Oracle: (exploration, likelihood) from the full (n_b, n_b, L, cells) differences."""
    vals = batch.denoised[:, coord_sets]
    diff = vals[:, None, :, :] - vals[None, :, :, :]
    pair_sq = np.sum(diff * diff, axis=-1)
    expl = pair_sq.sum(axis=(0, 1)) / (2.0 * cfg.sigma_x2)
    likeli = np.exp(-pair_sq / (2.0 * cfg.sigma_x2)).sum(axis=(0, 1))
    return expl, likeli


def pair_tensor_entropy(batch, cfg):
    """Oracle: ``marginal_entropy`` from the full (n_b, n_b, dim) differences."""
    w = np.full(batch.n_b, 1.0 / batch.n_b)
    diff = batch.denoised[:, None, :] - batch.denoised[None, :, :]
    d = np.sum(diff * diff, axis=-1) / (2.0 * cfg.sigma_x2)
    terms = np.log(w)[None, :] + d
    m = terms.max(axis=1, keepdims=True)
    inner = np.squeeze(m, 1) + np.log(np.sum(np.exp(terms - m), axis=1))
    return float(np.dot(w, inner))


def assert_matches_pair_tensors(batch, coord_sets, cfg):
    field = score_field(batch, list(range(len(coord_sets))), coord_sets, cfg)
    expl_ref, likeli_ref = pair_tensor_scores(batch, coord_sets, cfg)
    np.testing.assert_allclose(field.exploration, expl_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(field.likelihood, likeli_ref, rtol=1e-12, atol=0)
    assert marginal_entropy(batch, cfg) == pytest.approx(
        pair_tensor_entropy(batch, cfg), rel=1e-12, abs=0)


@pytest.mark.parametrize("cells", [1, 4])
@pytest.mark.parametrize("n_b", [2, 3, 5, 8, 16])
def test_pair_free_kernels_match_pair_tensor_oracle(n_b, cells):
    rng = np.random.default_rng(100 * n_b + cells)
    for _ in range(5):
        batch = batch_of(rng.normal(size=(n_b, 48)))
        coord_sets = rng.integers(0, 48, size=(40, cells))
        assert_matches_pair_tensors(batch, coord_sets, CFG)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_pair_free_kernels_match_oracle_on_block_locations(block):
    rng = np.random.default_rng(block)
    scene = Scene(grid=np.zeros(36), y=np.zeros(36), shape=(6, 6), block=block)
    batch = batch_of(rng.random((8, 36)))
    assert_matches_pair_tensors(batch, scene.all_location_cells(), BeliefConfig(0.05))


@pytest.mark.parametrize("cells", [1, 4])
def test_pair_free_kernels_centre_before_squaring(cells):
    # a common offset of 1e3 and a spread of 1e-6: 2 n_b sum a^2 - 2 (sum a)^2
    # would lose every digit, so the forms must centre first. The kernel width
    # follows the spread, so the pair distances are O(1).
    rng = np.random.default_rng(cells)
    batch = batch_of(1e3 + 1e-6 * rng.normal(size=(8, 16)))
    coord_sets = rng.integers(0, 16, size=(16, cells))
    assert_matches_pair_tensors(batch, coord_sets, BeliefConfig(sigma_x2=1e-12))


@pytest.mark.parametrize("cells", [1, 4, 9])
def test_pair_distances_equal_square_then_sum(cells):
    """One einsum per pair block gives the bits of squaring the differences, then summing cells."""
    rng = np.random.default_rng(cells)
    n_b, n_loc = 8, 40
    for scale in (1e-3, 1.0, 1e3):
        batch = batch_of(scale * rng.normal(size=(n_b, 64)))
        coord_sets = rng.integers(0, 64, size=(n_loc, cells))
        vals = batch.denoised[:, coord_sets.T]
        pair_sum = np.zeros(n_loc)
        for i in range(n_b - 1):
            d = vals[i + 1:] - vals[i]
            d *= d
            pair_sum += np.exp(np.sum(d, axis=1) / -(2.0 * CFG.sigma_x2)).sum(axis=0)
        field = score_field(batch, list(range(n_loc)), coord_sets, CFG)
        np.testing.assert_array_equal(field.likelihood, n_b + 2.0 * pair_sum)


@pytest.mark.parametrize("cells", [1, 4])
def test_score_field_keeps_a_float32_batch_in_float32(cells):
    """A float32 batch scores in float32 within 3e-6 of float64 on the same values.

    The worst relative error measured was 2.9e-7 (likelihood) over 40 such batches. The reward
    net sees the float32 patches, and its column stays float64.
    """
    rng = np.random.default_rng(cells)
    vals = rng.normal(size=(16, 64)).astype(np.float32)
    coord_sets = rng.integers(0, 64, size=(40, cells))
    seen = []

    def reward(patches):
        seen.append(patches.dtype)
        return 1.0 / (1.0 + np.exp(-patches.astype(float).sum(axis=1)))

    batch = ParticleBatch(vals)
    assert batch.denoised is vals
    got = score_field(batch, list(range(40)), coord_sets, CFG, reward)
    want = score_field(batch_of(vals), list(range(40)), coord_sets, CFG, reward)
    assert seen == [np.float32, np.float64]
    for column in ("exploration", "likelihood"):
        assert getattr(got, column).dtype == np.float32
        np.testing.assert_allclose(getattr(got, column), getattr(want, column), rtol=3e-6)
    assert got.reward.dtype == np.float64
    np.testing.assert_array_equal(got.reward, want.reward)
    assert marginal_entropy(batch, CFG) == pytest.approx(marginal_entropy(batch_of(vals), CFG),
                                                         rel=3e-6)


@pytest.mark.parametrize("kernel", ["score_field", "marginal_entropy"])
def test_measurement_kernels_allocate_no_pair_tensor(kernel):
    # at n_b 16 and 1024 cells, one (n_b, n_b, 1024) float array is 2 MiB
    batch = batch_of(np.random.default_rng(3).random((16, 1024)))
    cands, coord_sets = list(range(1024)), np.arange(1024)[:, None]
    call = {"score_field": lambda: score_field(batch, cands, coord_sets, CFG),
            "marginal_entropy": lambda: marginal_entropy(batch, CFG)}[kernel]
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{kernel} allocated a {peak / 2**20:.2f} MiB peak"


def test_score_field_csv_export():
    b = batch_of([[0.0, 1.0], [1.0, 0.0]])
    field = score_field(b, [0, 1], np.arange(2)[:, None], CFG)
    rows = list(field.csv_rows())
    assert [len(r) for r in rows] == [6, 6]  # location, expl, likeli, reward, exploit, combined
    assert rows[0][0] == 0 and math.isnan(rows[0][5])
    field.combined = np.array([0.25, 0.75])
    rows = list(field.csv_rows())
    assert [r[5] for r in rows] == [0.25, 0.75]
    assert rows[1][1:5] == (field.exploration[1], field.likelihood[1], 0.0, 0.0)


def test_batch_validation():
    with pytest.raises(ValueError):
        ParticleBatch(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ParticleBatch(np.zeros(3))


def test_belief_config_validation():
    with pytest.raises(ValueError):
        BeliefConfig(sigma_x2=0.0)
