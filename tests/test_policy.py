import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseek.belief import BeliefConfig, ParticleBatch, ScoreField
from gridseek.bench import choose
from gridseek.env import RepeatMeasurementError, Scene, measure
from gridseek.policy import (
    POLICY_KINDS,
    EpisodeState,
    ExhaustedCandidatesError,
    PolicyConfig,
    _neighborhood_estimates,
    build_measurement_schedule,
    combined_score,
    kappa,
    select_from_field,
)
from gridseek.reward import LabeledPatch, RewardNet, default_layout, predict

BCFG = BeliefConfig()


def scene_4x4():
    grid = np.linspace(0.0, 1.0, 16)
    return Scene(grid=grid, y=(grid > 0.7).astype(float), shape=(4, 4))


def make_field(expl, exploit, likeli=None, locations=None):
    n = len(expl)
    return ScoreField(
        locations=list(range(n)) if locations is None else list(locations),
        exploration=np.asarray(expl, dtype=float),
        likelihood=np.asarray(likeli if likeli is not None else np.ones(n), dtype=float),
        reward=np.zeros(n),
        exploitation=np.asarray(exploit, dtype=float),
    )


# -------------------------------------------------------------------- kappa


def test_kappa_boundaries():
    assert kappa(200, 0) == 1.0
    assert kappa(200, 200) == 0.0
    assert kappa(200, 100) == pytest.approx(1.0 / 3.0)


def test_kappa_ablation_clamp():
    assert kappa(200, 150, alpha=0.5) == 0.0


def test_kappa_strictly_decreasing():
    vals = [kappa(50, t) for t in range(51)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 500),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
def test_kappa_monotone_in_alpha(B, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    for t in range(0, B + 1, max(1, B // 7)):
        assert kappa(B, t, hi) >= kappa(B, t, lo)


def test_kappa_validates_inputs():
    with pytest.raises(ValueError):
        kappa(0, 0)
    with pytest.raises(ValueError):
        kappa(10, 11)


# ----------------------------------------------------------- combined score


def test_combined_degenerate_kappa_one():
    f = make_field(expl=[3.0, 1.0, 2.0], exploit=[0.0, 9.0, 1.0])
    scores = combined_score(f, 1.0)
    assert int(np.argmax(scores)) == 0


def test_combined_degenerate_kappa_zero():
    f = make_field(expl=[3.0, 1.0, 2.0], exploit=[0.0, 9.0, 1.0])
    scores = combined_score(f, 0.0)
    assert int(np.argmax(scores)) == 1


def test_combined_hand_arithmetic():
    f = make_field(expl=[1.0, 0.0], exploit=[0.0, 1.0])
    scores = combined_score(f, 0.4)
    np.testing.assert_allclose(scores, [0.4, 0.6])
    assert int(np.argmax(scores)) == 1


def test_combined_likeli_mode():
    f = make_field(expl=[0.0, 0.0], exploit=[5.0, 1.0], likeli=[1.0, 2.0])
    scores = combined_score(f, 0.0, combine_mode="likeli")
    assert int(np.argmax(scores)) == 1


def test_combined_constant_field_normalizes_to_zero():
    f = make_field(expl=[2.0, 2.0], exploit=[0.3, 0.9])
    scores = combined_score(f, 0.5)
    np.testing.assert_allclose(scores, [0.0, 0.5])


def test_combined_scale_invariance_minmax():
    rng = np.random.default_rng(0)
    expl = rng.uniform(0, 5, 6)
    exploit = rng.uniform(0, 5, 6)
    a = combined_score(make_field(expl, exploit), 0.37)
    b = combined_score(make_field(expl * 123.0, exploit), 0.37)
    assert int(np.argmax(a)) == int(np.argmax(b))


def test_combined_raw_mode_keeps_scales():
    f = make_field(expl=[10.0, 0.0], exploit=[0.0, 1.0])
    scores = combined_score(f, 0.5, normalize="none")
    np.testing.assert_allclose(scores, [5.0, 0.5])


def test_combined_empty_candidates():
    f = make_field(expl=[], exploit=[])
    with pytest.raises(ExhaustedCandidatesError):
        combined_score(f, 0.5)


# ---------------------------------------------------------------- selection


def fresh_state(budget=4):
    return EpisodeState.fresh(scene_4x4(), budget)


def consensus_batch(dim=16):
    vals = np.tile(np.linspace(0, 1, dim), (2, 1))
    return ParticleBatch(vals)


def choose_in(state, cfg, batch, reward_fn=None, seed=0):
    """The episode's query step on ``state``, against its scene's cell table."""
    return choose(cfg, state, batch, state.scene.all_location_cells(), BCFG,
                  reward_fn, np.random.default_rng(seed))


def test_single_candidate_every_policy():
    for kind in POLICY_KINDS:
        state = fresh_state()
        state.candidates = [7]
        net = RewardNet.create(default_layout(1), seed=0)
        reward_fn = lambda patches: predict(net, np.clip(patches, 0.0, 1.0))
        got, field = choose_in(state, PolicyConfig(kind=kind), consensus_batch(),
                               reward_fn)
        assert got == 7
        assert field.locations == [7] and field.combined.shape == (1,)


def test_max_ent_picks_unique_disagreement():
    vals = np.zeros((3, 16))
    vals[0, 7] = 1.0  # particles disagree only at location 7
    state = fresh_state()
    got, _ = choose_in(state, PolicyConfig(kind="max_ent"), ParticleBatch(vals))
    assert got == 7


def test_random_policy_matches_duplicate_rng_oracle():
    state = fresh_state()
    state.candidates = [3, 5, 8, 12]
    for seed in range(10):
        got = select_from_field(PolicyConfig(kind="random"), state, None,
                                np.random.default_rng(seed))
        oracle = state.candidates[int(np.random.default_rng(seed).integers(4))]
        assert got == oracle


def test_exhausted_candidates_error():
    state = fresh_state()
    state.candidates = []
    with pytest.raises(ExhaustedCandidatesError):
        select_from_field(PolicyConfig(kind="random"), state, None,
                          np.random.default_rng(0))


def test_greedy_adaptive_follows_exploitation():
    state = fresh_state()
    state.candidates = [0, 1]
    f = make_field(expl=[9.0, 0.0], exploit=[0.1, 8.0], locations=[0, 1])
    got = select_from_field(PolicyConfig(kind="greedy_adaptive"), state, f,
                            np.random.default_rng(0))
    assert got == 1


def split_batch():
    """Exploration favours cell 0 (particles disagree), exploitation cell 1."""
    vals = np.zeros((2, 16))
    vals[1, 0] = 1.0
    vals[:, 1] = 0.9
    return ParticleBatch(vals)


def patch_value(patches):
    return patches[:, 0]


def spent_state():
    """Budget 4 spent away from locations 0 and 1, left as the only candidates."""
    state = fresh_state(budget=4)
    rng = np.random.default_rng(0)
    for loc in (2, 3, 4, 5):
        m = measure(state.scene, loc, rng)
        state.apply(m, m.content)
    state.candidates = [0, 1]
    return state


def test_diffatd_uses_kappa_schedule():
    state = fresh_state(budget=4)
    state.candidates = [0, 1]
    cfg = PolicyConfig(kind="diffatd")
    # t=0 -> kappa=1 -> exploration argmax
    got, f = choose_in(state, cfg, split_batch(), patch_value)
    assert got == 0
    np.testing.assert_allclose(f.combined, [1.0, 0.0])
    state = spent_state()
    # t=B -> kappa=0 -> exploitation argmax
    got, f = choose_in(state, cfg, split_batch(), patch_value)
    assert got == 1
    np.testing.assert_allclose(f.combined, [0.0, 1.0])


def test_kappa_override_pins_mixing():
    state = spent_state()
    assert state.t == 4
    # unpinned, kappa(4, 4) = 0 picks the exploitation argmax
    got, f = choose_in(state, PolicyConfig(kind="diffatd"), split_batch(), patch_value)
    assert got == 1
    assert int(np.argmax(f.exploration)) == 0 and int(np.argmax(f.exploitation)) == 1
    cfg = PolicyConfig(kind="diffatd", kappa_override=1.0)
    got, f = choose_in(state, cfg, split_batch(), patch_value)
    assert got == 0
    np.testing.assert_allclose(f.combined, [1.0, 0.0])


def test_diffatd_needs_combined_score():
    state = fresh_state()
    state.candidates = [0, 1]
    f = make_field(expl=[1.0, 0.0], exploit=[0.0, 1.0], locations=[0, 1])
    with pytest.raises(ValueError, match="combined"):
        select_from_field(PolicyConfig(kind="diffatd"), state, f,
                          np.random.default_rng(0))


def test_tie_break_lowest_index():
    state = fresh_state()
    state.candidates = [2, 5, 9]
    f = make_field(expl=[1.0, 1.0, 1.0], exploit=[0.0, 0.0, 0.0],
                   locations=[2, 5, 9])
    got = select_from_field(PolicyConfig(kind="max_ent"), state, f,
                            np.random.default_rng(0))
    assert got == 2


def test_tie_break_seeded_random_hits_tied_set():
    state = fresh_state()
    state.candidates = [2, 5, 9]
    f = make_field(expl=[1.0, 1.0, 0.0], exploit=[0.0, 0.0, 0.0],
                   locations=[2, 5, 9])
    cfg = PolicyConfig(kind="max_ent", tie_break="seeded_random")
    seen = {
        select_from_field(cfg, state, f, np.random.default_rng(s))
        for s in range(30)
    }
    assert seen == {2, 5}


def strip_state(budget=3):
    # 1x4 strip: every unmeasured location keeps a measured neighbor
    grid = np.array([0.0, 0.2, 0.4, 1.0])
    scene = Scene(grid=grid, y=np.array([0.0, 0.0, 0.0, 1.0]), shape=(1, 4))
    state = EpisodeState.fresh(scene, budget)
    rng = np.random.default_rng(0)
    for loc in (0, 3):
        m = measure(scene, loc, rng)
        state.apply(m, m.content)
    return state


def test_ucb_prefers_rewarding_neighborhood():
    state = strip_state()
    # candidate 1 sees only y=0, candidate 2 sees only y=1
    cfg = PolicyConfig(kind="ucb", ucb_c=0.1)
    got = select_from_field(cfg, state, None, np.random.default_rng(1))
    assert got == 2


def test_ucb_bonus_draws_unvisited_regions():
    state = fresh_state(budget=8)
    rng = np.random.default_rng(0)
    m = measure(state.scene, 15, rng)
    state.apply(m, m.content)
    cfg = PolicyConfig(kind="ucb", ucb_c=100.0)
    got = select_from_field(cfg, state, None, np.random.default_rng(1))
    # with a huge bonus the pick must be outside the measured neighborhood
    assert got not in (10, 11, 14, 15)


def test_eps_greedy_exploits_when_epsilon_zero():
    state = strip_state()
    cfg = PolicyConfig(kind="eps_greedy", epsilon=0.0)
    got = select_from_field(cfg, state, None, np.random.default_rng(2))
    assert got == 2


def test_eps_greedy_uniform_when_epsilon_one():
    state = fresh_state(budget=8)
    cfg = PolicyConfig(kind="eps_greedy", epsilon=1.0)
    seen = {
        select_from_field(cfg, state, None, np.random.default_rng(s))
        for s in range(60)
    }
    assert len(seen) > 8  # spread over the grid, not locked to one argmax


def neighborhood_by_loop(state):
    """The bandit estimate as a loop over candidates: the box-sum's reference."""
    loc_cols = state.scene.location_shape[1]
    measured = np.asarray(state.locations, dtype=int)
    ys = np.array([p.label for p in state.dataset])
    est = np.empty(len(state.candidates))
    counts = np.empty(len(state.candidates), dtype=int)
    mr, mc = measured // loc_cols, measured % loc_cols
    for i, q in enumerate(state.candidates):
        r, c = q // loc_cols, q % loc_cols
        near = (np.abs(mr - r) <= 1) & (np.abs(mc - c) <= 1)
        counts[i] = int(near.sum())
        est[i] = (1.0 + ys[near].sum()) / (1.0 + counts[i])
    return est, counts


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
       block=st.integers(1, 2), dyadic=st.booleans())
def test_neighborhood_estimates_match_candidate_loop(data, rows, cols, block, dyadic):
    """Counts and dyadic y sums are exact; other y differ only in summation order."""
    n_loc = rows * cols
    order = data.draw(st.permutations(range(n_loc)))
    n_measured = data.draw(st.integers(0, n_loc - 1))
    candidates = data.draw(st.lists(st.sampled_from(order[n_measured:]), min_size=1, unique=True))
    label = st.integers(0, 8).map(lambda k: k / 8) if dyadic else st.floats(0.0, 1.0)
    labels = data.draw(st.lists(label, min_size=n_measured, max_size=n_measured))
    n_cells = n_loc * block * block
    scene = Scene(grid=np.zeros(n_cells), y=np.zeros(n_cells),
                  shape=(rows * block, cols * block), block=block)
    state = EpisodeState.fresh(scene, budget=n_loc)
    state.locations = list(order[:n_measured])
    state.dataset = [LabeledPatch(np.zeros(block * block), y) for y in labels]
    state.candidates = candidates
    est, counts = _neighborhood_estimates(state)
    want_est, want_counts = neighborhood_by_loop(state)
    np.testing.assert_array_equal(counts, want_counts)
    if dyadic:
        np.testing.assert_array_equal(est, want_est)
    else:
        np.testing.assert_allclose(est, want_est, rtol=1e-14, atol=0.0)


# ------------------------------------------------------------ episode state


def test_state_tracks_budget_and_candidates():
    state = fresh_state(budget=2)
    rng = np.random.default_rng(0)
    m = measure(state.scene, 3, rng)
    state.apply(m, m.content)
    assert state.locations == [3] and state.budget - state.t == 1
    assert 3 not in state.candidates
    assert state.r_total == m.y
    assert len(state.dataset) == 1
    m2 = measure(state.scene, 5, rng)
    state.apply(m2, m2.content)
    with pytest.raises(ValueError):
        state.apply(measure(state.scene, 6, rng), np.zeros(1))


def record_of(state):
    """A copy of everything ``apply`` may change."""
    return (list(state.candidates), list(state.locations), state.observed.copy(),
            state.values.copy(), len(state.dataset), state.r_total)


def assert_record_equal(a, b):
    assert a[:2] == b[:2] and a[4:] == b[4:]
    np.testing.assert_array_equal(a[2], b[2])
    np.testing.assert_array_equal(a[3], b[3])


def test_state_record_concatenates_applies():
    scene = Scene(grid=np.linspace(0.0, 1.0, 16), y=np.zeros(16), shape=(4, 4), block=2)
    state = EpisodeState.fresh(scene, budget=4)
    assert state.observed.shape == (16,) and not state.observed.any()
    np.testing.assert_array_equal(state.values, np.zeros(16))
    applies = [(3, [0.5, 0.6, 0.7, 0.8]), (0, np.array([[0.1, 0.2], [0.3, 0.4]])),
               (2, np.array([-1.0, 1.0, 0.0, 0.25]))]
    for location, values in applies:
        state.apply(measure(scene, location, None), values)
    np.testing.assert_array_equal(np.flatnonzero(state.observed),
                                  [0, 1, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15])
    np.testing.assert_array_equal(
        state.values, [0.1, 0.2, 0.0, 0.0, 0.3, 0.4, 0.0, 0.0,
                       -1.0, 1.0, 0.5, 0.6, 0.0, 0.25, 0.7, 0.8])
    assert state.observed.dtype == bool and state.values.dtype == float
    assert state.locations == [3, 0, 2] and state.t == 3
    assert [p.label for p in state.dataset] == [0.0, 0.0, 0.0]
    before = record_of(state)
    with pytest.raises(ValueError, match="one value per cell"):
        state.apply(measure(scene, 1, None), [0.0])
    assert_record_equal(record_of(state), before)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), block=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_episode_state_record_fuzz(data, block, seed):
    """Accepted applies write their cells into the record; rejected ones leave it unchanged."""
    rows, cols = (block * data.draw(st.integers(1, 6 // block)) for _ in range(2))
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 1.0, rows * cols)
    scene = Scene(grid=grid, y=(grid > 0.5).astype(float), shape=(rows, cols), block=block)
    n_loc = scene.n_locations
    budget = data.draw(st.integers(1, n_loc + 2))
    steps = data.draw(st.lists(st.tuples(st.integers(0, n_loc - 1),
                                         st.sampled_from([0, 0, 0, -1, 1])), max_size=12))
    state = EpisodeState.fresh(scene, budget)
    observed, values, total = np.zeros(scene.n_cells, dtype=bool), np.zeros(scene.n_cells), 0.0
    for q, misalign in steps:
        m = measure(scene, q, rng)
        engine = rng.uniform(-1.0, 1.0, block * block + misalign)
        before = record_of(state)
        if state.t >= budget:
            error, match = ValueError, "budget exhausted"
        elif q in state.locations:
            error, match = RepeatMeasurementError, "already measured"
        elif misalign:
            error, match = ValueError, "one value per cell"
        else:
            state.apply(m, engine)
            observed[scene.location_cells(q)] = True
            values[scene.location_cells(q)] = engine
            total += m.y
            assert state.locations == before[1] + [q]
            np.testing.assert_array_equal(state.observed, observed)
            np.testing.assert_array_equal(state.values, values)
            assert state.r_total == total
            error = None
        if error is not None:
            with pytest.raises(error, match=match):
                state.apply(m, engine)
            assert_record_equal(record_of(state), before)
        assert not set(state.candidates) & set(state.locations)
        assert sorted(state.candidates + state.locations) == list(range(n_loc))
        assert state.t == len(state.locations) <= budget
        assert state.observed.dtype == bool and state.values.dtype == float


def test_no_remeasurement_within_episode():
    state = fresh_state(budget=16)
    rng = np.random.default_rng(1)
    picked = []
    cfg = PolicyConfig(kind="random")
    while state.candidates:
        loc = select_from_field(cfg, state, None, rng)
        assert loc not in picked
        picked.append(loc)
        m = measure(state.scene, loc, rng)
        state.apply(m, m.content)
    assert sorted(picked) == list(range(16))


# ----------------------------------------------------------------- schedule


def test_schedule_ten_steps_two_measurements():
    assert build_measurement_schedule(10, 2) == {6, 1}


def test_schedule_every_step():
    assert build_measurement_schedule(5, 5) == {1, 2, 3, 4, 5}


def test_schedule_single_measurement_at_final_step():
    assert build_measurement_schedule(100, 1) == {1}


def test_schedule_even_spacing_oracle():
    for T, B in ((10, 3), (200, 32), (17, 5), (1000, 100)):
        got = build_measurement_schedule(T, B)
        oracle = {T - math.ceil(T * j / B) + 1 for j in range(1, B + 1)}
        assert got == oracle and len(got) == B


def test_schedule_rejects_overfull_budget():
    with pytest.raises(ValueError):
        build_measurement_schedule(10, 11)
    with pytest.raises(ValueError):
        build_measurement_schedule(10, 0)


# ------------------------------------------------------------------- config


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(kind="smart")
    with pytest.raises(ValueError):
        PolicyConfig(alpha=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        PolicyConfig(normalize="zscore")


@pytest.mark.parametrize("value", [-0.1, 1.5, 5.0, math.nan])
def test_kappa_override_outside_unit_interval_rejected(value):
    with pytest.raises(ValueError, match="kappa_override"):
        PolicyConfig(kappa_override=value)
