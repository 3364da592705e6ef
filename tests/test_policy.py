import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseek.belief import BeliefConfig, ParticleBatch, ScoreField, score_field
from gridseek.bench import choose
from gridseek.env import Measurement, RepeatMeasurementError, Scene, measure
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
from gridseek.reward import RewardNet, default_layout, predict, train

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
    return EpisodeState(scene_4x4(), budget)


def leave_candidates(state, locations):
    """Reveal the cells of every location outside ``locations``, which stay the candidates."""
    others = ~np.isin(np.arange(state.scene.n_locations), locations)
    state.observed[state.scene.all_location_cells()[others]] = True


def consensus_batch(dim=16):
    vals = np.tile(np.linspace(0, 1, dim), (2, 1))
    return ParticleBatch(vals)


def choose_in(state, cfg, batch, reward_fn=None, seed=0):
    """The episode's query step on ``state``: the picked location and the field."""
    row, field = choose(cfg, state, batch, BCFG, reward_fn, np.random.default_rng(seed))
    return field.locations[row], field


def test_single_candidate_every_policy():
    for kind in POLICY_KINDS:
        state = fresh_state()
        leave_candidates(state, [7])
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
    leave_candidates(state, [3, 5, 8, 12])
    for seed in range(10):
        got = state.candidates[select_from_field(PolicyConfig(kind="random"), state, None,
                                                 np.random.default_rng(seed))]
        oracle = state.candidates[int(np.random.default_rng(seed).integers(4))]
        assert got == oracle


def test_exhausted_candidates_error():
    state = fresh_state()
    leave_candidates(state, [])
    with pytest.raises(ExhaustedCandidatesError):
        select_from_field(PolicyConfig(kind="random"), state, None,
                          np.random.default_rng(0))


def test_greedy_adaptive_follows_exploitation():
    state = fresh_state()
    leave_candidates(state, [0, 1])
    f = make_field(expl=[9.0, 0.0], exploit=[0.1, 8.0], locations=[0, 1])
    got = f.locations[select_from_field(PolicyConfig(kind="greedy_adaptive"), state, f,
                                        np.random.default_rng(0))]
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
    leave_candidates(state, [0, 1])
    return state


def test_diffatd_uses_kappa_schedule():
    state = fresh_state(budget=4)
    leave_candidates(state, [0, 1])
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
    leave_candidates(state, [0, 1])
    f = make_field(expl=[1.0, 0.0], exploit=[0.0, 1.0], locations=[0, 1])
    with pytest.raises(ValueError, match="combined"):
        select_from_field(PolicyConfig(kind="diffatd"), state, f,
                          np.random.default_rng(0))


def test_tie_break_lowest_index():
    state = fresh_state()
    leave_candidates(state, [2, 5, 9])
    f = make_field(expl=[1.0, 1.0, 1.0], exploit=[0.0, 0.0, 0.0],
                   locations=[2, 5, 9])
    got = f.locations[select_from_field(PolicyConfig(kind="max_ent"), state, f,
                                        np.random.default_rng(0))]
    assert got == 2


def test_tie_break_seeded_random_hits_tied_set():
    state = fresh_state()
    leave_candidates(state, [2, 5, 9])
    f = make_field(expl=[1.0, 1.0, 0.0], exploit=[0.0, 0.0, 0.0],
                   locations=[2, 5, 9])
    cfg = PolicyConfig(kind="max_ent", tie_break="seeded_random")
    seen = {
        f.locations[select_from_field(cfg, state, f, np.random.default_rng(s))]
        for s in range(30)
    }
    assert seen == {2, 5}


def strip_state(budget=3):
    # 1x4 strip: every unmeasured location keeps a measured neighbor
    grid = np.array([0.0, 0.2, 0.4, 1.0])
    scene = Scene(grid=grid, y=np.array([0.0, 0.0, 0.0, 1.0]), shape=(1, 4))
    state = EpisodeState(scene, budget)
    rng = np.random.default_rng(0)
    for loc in (0, 3):
        m = measure(scene, loc, rng)
        state.apply(m, m.content)
    return state


def test_ucb_prefers_rewarding_neighborhood():
    state = strip_state()
    # candidate 1 sees only y=0, candidate 2 sees only y=1
    cfg = PolicyConfig(kind="ucb", ucb_c=0.1)
    got = state.candidates[select_from_field(cfg, state, None, np.random.default_rng(1))]
    assert got == 2


def test_ucb_bonus_draws_unvisited_regions():
    state = fresh_state(budget=8)
    rng = np.random.default_rng(0)
    m = measure(state.scene, 15, rng)
    state.apply(m, m.content)
    cfg = PolicyConfig(kind="ucb", ucb_c=100.0)
    got = state.candidates[select_from_field(cfg, state, None, np.random.default_rng(1))]
    # with a huge bonus the pick must be outside the measured neighborhood
    assert got not in (10, 11, 14, 15)


def test_eps_greedy_exploits_when_epsilon_zero():
    state = strip_state()
    cfg = PolicyConfig(kind="eps_greedy", epsilon=0.0)
    got = state.candidates[select_from_field(cfg, state, None, np.random.default_rng(2))]
    assert got == 2


def test_eps_greedy_uniform_when_epsilon_one():
    state = fresh_state(budget=8)
    cfg = PolicyConfig(kind="eps_greedy", epsilon=1.0)
    seen = {
        state.candidates[select_from_field(cfg, state, None, np.random.default_rng(s))]
        for s in range(60)
    }
    assert len(seen) > 8  # spread over the grid, not locked to one argmax


def test_selection_with_a_field_picks_a_row_of_its_locations(monkeypatch):
    """The field defines the candidates: each kind returns a row of its locations, in its order."""
    state = strip_state()  # candidates 1 and 2; only 2 neighbours the y = 1 location
    f = make_field(expl=[0.0, 5.0], exploit=[3.0, 0.0], locations=[2, 1])
    f.combined = np.array([0.0, 1.0])
    monkeypatch.setattr(EpisodeState, "candidates",
                        property(lambda s: pytest.fail("selection read state.candidates")))
    rows = {"diffatd": 1, "max_ent": 1, "greedy_adaptive": 0, "ucb": 0, "eps_greedy": 0}
    for kind, row in rows.items():
        cfg = PolicyConfig(kind=kind, ucb_c=0.1, epsilon=0.0)
        assert select_from_field(cfg, state, f, np.random.default_rng(0)) == row, kind
    for seed in range(10):
        got = select_from_field(PolicyConfig(kind="random"), state, f, np.random.default_rng(seed))
        assert got == np.random.default_rng(seed).integers(2)


@pytest.mark.parametrize("kind", ["diffatd", "max_ent", "greedy_adaptive"])
def test_belief_kinds_need_a_score_field(kind):
    with pytest.raises(ValueError, match=f"{kind} needs a score field"):
        select_from_field(PolicyConfig(kind=kind), fresh_state(), None, np.random.default_rng(0))


def neighborhood_by_loop(state):
    """The bandit estimate as a loop over candidates: the box-sum's reference."""
    loc_cols = state.scene.location_shape[1]
    measured = np.asarray(state.locations, dtype=int)
    ys = state.dataset[:state.t, -1]
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
    state = EpisodeState(scene, budget=n_loc)
    state.locations = list(order[:n_measured])
    state.dataset[:n_measured, -1] = labels
    leave_candidates(state, candidates)
    est, counts = _neighborhood_estimates(state, state.candidates)
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
    np.testing.assert_array_equal(state.dataset, [[*m.content, m.y], [0.0, 0.0]])
    m2 = measure(state.scene, 5, rng)
    state.apply(m2, m2.content)
    with pytest.raises(ValueError):
        state.apply(measure(state.scene, 6, rng), np.zeros(1))


def test_state_derives_its_record_from_scene_and_budget():
    scene = scene_4x4()
    state = EpisodeState(scene, 2)
    assert state.candidates.tolist() == list(range(16)) and state.locations == []
    np.testing.assert_array_equal(state.dataset, np.zeros((2, 2)))  # budget rows of patch + y
    assert state.observed.shape == state.values.shape == (16,) and not state.observed.any()
    assert state.r_total == 0.0 and state.t == 0
    with pytest.raises(TypeError):
        EpisodeState(scene, 2, candidates=[7])
    with pytest.raises(TypeError):  # a record that contradicts its 4x4 scene
        EpisodeState(scene, 2, np.zeros(9, dtype=bool), np.zeros(3), candidates=[7, 8])
    with pytest.raises(ValueError, match="budget"):
        EpisodeState(scene, 0)


def record_of(state):
    """A copy of everything ``apply`` may change."""
    return (state.candidates.tolist(), list(state.locations), state.r_total,
            state.observed.copy(), state.values.copy(), state.dataset.copy())


def assert_record_equal(a, b):
    assert a[:3] == b[:3]
    for x, y in zip(a[3:], b[3:]):
        np.testing.assert_array_equal(x, y)


def test_state_record_concatenates_applies():
    scene = Scene(grid=np.linspace(0.0, 1.0, 16), y=np.zeros(16), shape=(4, 4), block=2)
    state = EpisodeState(scene, budget=4)
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
    np.testing.assert_array_equal(state.dataset[:, -1], [0.0, 0.0, 0.0, 0.0])
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
    state = EpisodeState(scene, budget)
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
            np.testing.assert_array_equal(state.dataset[state.t - 1], [*m.content, m.y])
            assert not state.dataset[state.t:].any()
            error = None
        if error is not None:
            with pytest.raises(error, match=match):
                state.apply(m, engine)
            assert_record_equal(record_of(state), before)
        assert not set(state.candidates) & set(state.locations)
        assert sorted(state.candidates.tolist() + state.locations) == list(range(n_loc))
        unrevealed = [q for q in range(n_loc) if not observed[scene.location_cells(q)].any()]
        assert state.candidates.tolist() == unrevealed
        assert state.t == len(state.locations) <= budget
        assert state.observed.dtype == bool and state.values.dtype == float


def test_candidates_are_a_read_only_view_of_the_revealed_cells():
    state = fresh_state()
    with pytest.raises(AttributeError):
        state.candidates = [7]
    m = measure(state.scene, 3, np.random.default_rng(0))
    state.apply(m, m.content)
    assert state.candidates.tolist() == [q for q in range(16) if q != 3]
    state.observed[9] = True  # revealing a location's cells is what removes it
    assert 9 not in state.candidates.tolist() and state.candidates.size == 14


def test_apply_checks_budget_then_range_then_repeat_then_values():
    scene = Scene(grid=np.linspace(0.0, 1.0, 16), y=np.zeros(16), shape=(4, 4), block=2)
    state = EpisodeState(scene, budget=2)
    state.apply(measure(scene, 1, None), np.zeros(4))
    before = record_of(state)
    for location in (-1, 4, 9):
        stray = Measurement(location, np.zeros((2, 2)), 0.0)
        for values in (np.zeros(4), np.zeros(3)):  # the range is checked before the values
            with pytest.raises(IndexError, match=r"outside 0\.\.3"):
                state.apply(stray, values)
            assert_record_equal(record_of(state), before)
    with pytest.raises(RepeatMeasurementError, match="already measured"):
        state.apply(measure(scene, 1, None), np.zeros(3))
    assert_record_equal(record_of(state), before)
    state.apply(measure(scene, 2, None), np.zeros(4))
    before = record_of(state)
    with pytest.raises(ValueError, match="budget exhausted"):
        state.apply(Measurement(4, np.zeros((2, 2)), 0.0), np.zeros(3))
    assert_record_equal(record_of(state), before)


def test_choose_scores_exactly_the_unmeasured_locations():
    grid = np.random.default_rng(3).uniform(0.0, 1.0, 36)
    scene = Scene(grid=grid, y=(grid > 0.5).astype(float), shape=(6, 6), block=2)
    state = EpisodeState(scene, budget=6)
    rng = np.random.default_rng(4)
    for q in (7, 0, 4):
        m = measure(scene, q, rng)
        state.apply(m, m.content)
    batch = ParticleBatch(np.random.default_rng(5).uniform(0.0, 1.0, (4, 36)))
    _, got = choose_in(state, PolicyConfig(kind="max_ent"), batch, patch_value)
    unmeasured = [1, 2, 3, 5, 6, 8]
    assert got.locations == unmeasured and all(type(q) is int for q in got.locations)
    table = np.array([scene.location_cells(q) for q in unmeasured])
    want = score_field(batch, unmeasured, table, BCFG, patch_value)
    for name in ("exploration", "likelihood", "reward", "exploitation"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_dataset_row_t_holds_measurement_t_and_trains_like_a_copy():
    grid = np.random.default_rng(5).uniform(0.0, 1.0, 36)
    scene = Scene(grid=grid, y=(grid > 0.5).astype(float), shape=(6, 6), block=2,
                  noise=(0.0, 0.05))
    state = EpisodeState(scene, budget=5)
    assert state.dataset.shape == (5, 5)
    rng = np.random.default_rng(6)
    net = RewardNet.create(default_layout(4), seed=6)
    for q in (4, 0, 7):
        m = measure(scene, q, rng)
        state.apply(m, m.content)
        np.testing.assert_array_equal(state.dataset[state.t - 1], [*m.content, m.y])
        view = train(net, state.dataset[:state.t], epochs=3, lr=0.05)
        fresh = train(net, state.dataset[:state.t].copy(), epochs=3, lr=0.05)
        for a, b in zip(view.weights + view.biases, fresh.weights + fresh.biases):
            assert np.array_equal(a, b)
        net = view
    assert not state.dataset[3:].any()


def test_no_remeasurement_within_episode():
    state = fresh_state(budget=16)
    rng = np.random.default_rng(1)
    picked = []
    cfg = PolicyConfig(kind="random")
    while state.candidates.size:
        loc = int(state.candidates[select_from_field(cfg, state, None, rng)])
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
