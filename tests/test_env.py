import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseek.diffusion import GaussianMixturePrior
from gridseek.env import (
    Measurement,
    RepeatMeasurementError,
    Scene,
    SceneFormatError,
    gen_gmm_scene,
    load_grid_dir,
    load_scene,
    make_blob_prior,
    measure,
    save_scene,
)
from gridseek.policy import EpisodeState


def simple_scene(block=1, noise=None):
    grid = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    return Scene(grid=grid, y=y, shape=(2, 2), block=block, noise=noise)


# ------------------------------------------------------------------- scenes


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(np.zeros(3), np.zeros(3), shape=(2, 2))
    with pytest.raises(ValueError):
        Scene(np.zeros(4), np.full(4, 1.5), shape=(2, 2))
    with pytest.raises(ValueError):
        Scene(np.zeros(6), np.zeros(6), shape=(2, 3), block=2)


def test_location_layout_single_cell():
    s = simple_scene()
    assert s.n_locations == 4
    np.testing.assert_array_equal(s.location_cells(2), [2])


def test_block_cells_partition_grid():
    grid = np.arange(16) / 16.0
    s = Scene(grid=grid, y=np.zeros(16), shape=(4, 4), block=2)
    assert s.n_locations == 4
    seen = np.concatenate([s.location_cells(q) for q in range(4)])
    assert sorted(seen.tolist()) == list(range(16))
    np.testing.assert_array_equal(s.location_cells(0), [0, 1, 4, 5])
    np.testing.assert_array_equal(s.location_cells(3), [10, 11, 14, 15])


def test_location_cells_are_read_only():
    s = Scene(grid=np.arange(16) / 16.0, y=np.zeros(16), shape=(4, 4), block=2)
    with pytest.raises(ValueError):
        s.location_cells(1)[0] = 0
    with pytest.raises(ValueError):
        s.all_location_cells()[3, 3] = 0
    np.testing.assert_array_equal(s.location_cells(1), [2, 3, 6, 7])


def test_target_location_count():
    s = simple_scene()
    assert s.n_target_locations == 2
    blocky = Scene(grid=np.zeros(16), y=np.r_[np.ones(4), np.zeros(12)],
                   shape=(4, 4), block=2)
    # targets sit in cells 0..3: rows 0-1 span two blocks
    assert blocky.n_target_locations == 2


# -------------------------------------------------------------- measurement


def test_measure_target_free_cell():
    s = simple_scene()
    m = measure(s, 0, np.random.default_rng(0))
    assert m.y == 0.0
    np.testing.assert_array_equal(m.content, [0.0])


def test_block_ratio_three_of_four():
    grid = np.zeros(16)
    y = np.zeros(16)
    y[[0, 1, 4]] = 1.0  # three target cells inside block 0
    s = Scene(grid=grid, y=y, shape=(4, 4), block=2)
    m = measure(s, 0, np.random.default_rng(0))
    assert m.y == pytest.approx(0.75)


def test_noise_matches_duplicate_seeded_oracle():
    s = simple_scene(noise=(0.0, 0.1))
    m = measure(s, 1, np.random.default_rng(123))
    oracle = np.random.default_rng(123).normal(0.0, 0.1, 1)
    np.testing.assert_allclose(m.content, s.grid[1] + oracle)
    assert m.y == 1.0  # ratio feedback stays noiseless


def test_repeat_measurement_rejected():
    state = EpisodeState(simple_scene(), budget=4)
    m = measure(state.scene, 1, np.random.default_rng(0))
    state.apply(m, m.content)
    with pytest.raises(RepeatMeasurementError):
        state.apply(m, m.content)
    assert state.locations == [1] and state.budget - state.t == 3


def test_out_of_range_location():
    s = simple_scene()
    with pytest.raises(IndexError):
        measure(s, 9, np.random.default_rng(0))


# --------------------------------------------------------- scene generation


def test_point_mass_prior_reproduces_mean():
    mean = np.linspace(0.0, 1.0, 9)
    prior = GaussianMixturePrior.single(mean, 0.0)
    s = gen_gmm_scene(prior, 0.5, np.random.default_rng(0), shape=(3, 3))
    np.testing.assert_array_equal(s.grid, mean)


def test_threshold_rule_no_targets():
    prior = GaussianMixturePrior.single(np.full(4, 0.4), 0.0)
    s = gen_gmm_scene(prior, 0.5, np.random.default_rng(0), shape=(2, 2))
    assert s.n_target_locations == 0


def test_sampled_scene_mean_matches_prior():
    rng = np.random.default_rng(42)
    mean = np.random.default_rng(5).uniform(0.3, 0.7, 16)
    sigma = 0.05
    prior = GaussianMixturePrior.single(mean, sigma**2)
    samples = np.stack([
        gen_gmm_scene(prior, 0.9, rng, shape=(4, 4)).grid for _ in range(1000)
    ])
    tol = 3.0 * sigma / np.sqrt(1000)
    assert np.all(np.abs(samples.mean(axis=0) - mean) < tol)


def test_prior_dimension_mismatch():
    prior = GaussianMixturePrior.single(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        gen_gmm_scene(prior, 0.5, np.random.default_rng(0), shape=(3, 3))


def test_blob_prior_properties():
    prior = make_blob_prior((16, 16), n_components=8, layout_seed=0)
    assert prior.n_components == 8
    assert prior.dimension == 256
    assert np.all(prior.means >= 0.0) and np.all(prior.means <= 1.0)
    # every component must contain cells above the default threshold
    assert np.all(prior.means.max(axis=1) > 0.5)
    # layouts differ between components
    assert np.std(prior.means, axis=0).max() > 0.1


# -------------------------------------------------------------------- files


def test_csv_threshold_example(tmp_path):
    p = tmp_path / "grid.csv"
    p.write_text("0,1\n1,0\n")
    s = load_scene(p, target="value>0.5")
    np.testing.assert_array_equal(s.y, [0.0, 1.0, 1.0, 0.0])
    np.testing.assert_array_equal(s.grid, [0.0, 1.0, 1.0, 0.0])


def test_csv_counts_normalization(tmp_path):
    p = tmp_path / "counts.csv"
    p.write_text("0,4\n2,0\n")
    s = load_scene(p, target="counts")
    np.testing.assert_allclose(s.grid, [0.0, 1.0, 0.5, 0.0])
    np.testing.assert_allclose(s.y, [0.0, 1.0, 0.5, 0.0])


def test_companion_target_file(tmp_path):
    (tmp_path / "g.csv").write_text("0.2,0.4\n0.6,0.8\n")
    (tmp_path / "g.target.csv").write_text("0,0\n1,1\n")
    s = load_scene(tmp_path / "g.csv")
    np.testing.assert_array_equal(s.y, [0.0, 0.0, 1.0, 1.0])


def test_pgm_ascii_max_pixel(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_text("P2\n# comment\n2 2\n255\n0 255\n128 64\n")
    s = load_scene(p, target="counts")
    assert s.grid.max() == pytest.approx(1.0)
    np.testing.assert_allclose(s.grid, [0.0, 1.0, 128 / 255, 64 / 255])


def test_pgm_binary(tmp_path):
    p = tmp_path / "img5.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    s = load_scene(p, target="counts")
    np.testing.assert_allclose(s.grid, [0.0, 1.0, 128 / 255, 64 / 255])


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(3)
    grid = rng.uniform(0.0, 1.0, 12)
    y = (grid > 0.5).astype(float)
    s = Scene(grid=grid, y=y, shape=(3, 4))
    save_scene(s, tmp_path / "s.csv")
    back = load_scene(tmp_path / "s.csv")
    np.testing.assert_array_equal(back.grid, s.grid)
    np.testing.assert_array_equal(back.y, s.y)
    assert back.shape == s.shape


def test_missing_file_error():
    with pytest.raises(FileNotFoundError):
        load_scene("/nonexistent/scene.csv")


@pytest.mark.parametrize("name", ["s.csv", "s.pgm", "g.target.csv", "corpus/g.csv"])
def test_grid_path_that_is_a_directory_raises_scene_format_error(tmp_path, name):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "a.csv").write_text("0.2,0.4\n0.6,0.8\n")
    (tmp_path / "g.csv").write_text("0.2,0.4\n0.6,0.8\n")
    (tmp_path / name).mkdir()
    with pytest.raises(SceneFormatError, match=name):
        if name.startswith("corpus/"):
            load_grid_dir(tmp_path / "corpus")
        else:
            load_scene(tmp_path / name.replace(".target", ""))


def test_ragged_csv_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1\n1\n")
    with pytest.raises(SceneFormatError):
        load_scene(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_csv_grid_rejected(tmp_path, bad):
    p = tmp_path / "bad.csv"
    p.write_text(f"0,1\n{bad},0\n")
    with pytest.raises(SceneFormatError, match="non-finite"):
        load_scene(p, target="counts")


def test_non_finite_target_file_rejected(tmp_path):
    (tmp_path / "g.csv").write_text("0.2,0.4\n0.6,0.8\n")
    (tmp_path / "g.target.csv").write_text("0,nan\n1,1\n")
    with pytest.raises(SceneFormatError, match="non-finite"):
        load_scene(tmp_path / "g.csv")


def test_non_finite_pgm_rejected(tmp_path):
    p = tmp_path / "img.pgm"
    p.write_text("P2\n2 2\n255\n0 nan\n128 64\n")
    with pytest.raises(SceneFormatError, match="non-finite"):
        load_scene(p, target="counts")


@pytest.mark.parametrize("header", [
    b"P5 99999999999999999999 1 255\n",
    b"P5 0 2 255\n",
    b"P5 2 -1 255\n",
    b"P2 -1 2 255\n",
    b"P5 2 2 65536\n",
    b"P5 2 2 256\n",  # 16-bit body needs 8 bytes, gets 4
])
def test_pgm_header_range_checked(tmp_path, header):
    p = tmp_path / "img.pgm"
    p.write_bytes(header + bytes([0, 255, 128, 64]))
    with pytest.raises(SceneFormatError, match="img.pgm"):
        load_scene(p, target="counts")


@pytest.mark.parametrize("body", [
    b"P2\n2 1\n10\n3 11\n",
    b"P5\n2 1\n10\n" + bytes([3, 11]),
    b"P5\n2 1\n1000\n" + bytes([0, 250, 3, 233]),  # 16-bit, 1001
], ids=["p2", "p5-8-bit", "p5-16-bit"])
def test_pgm_sample_above_maxval_rejected(tmp_path, body):
    p = tmp_path / "img.pgm"
    p.write_bytes(body)
    with pytest.raises(SceneFormatError, match="img.pgm: a pixel exceeds maxval"):
        load_scene(p, target="counts")


@pytest.mark.parametrize("ratio", ["1.5", "-0.5"])
def test_target_file_ratio_outside_unit_interval_names_the_file(tmp_path, ratio):
    (tmp_path / "g.csv").write_text("0.2,0.4\n0.6,0.8\n")
    (tmp_path / "g.target.csv").write_text(f"0,{ratio}\n1,1\n")
    with pytest.raises(SceneFormatError, match=r"g.target.csv: target ratios must lie in \[0, 1\]"):
        load_scene(tmp_path / "g.csv")


def test_pgm_binary_16_bit(tmp_path):
    p = tmp_path / "img16.pgm"
    p.write_bytes(b"P5\n2 1\n1000\n" + bytes([0, 250, 3, 232]))
    s = load_scene(p, target="counts")
    np.testing.assert_allclose(s.grid, [0.25, 1.0])


_dims = st.one_of(st.integers(-1, 3), st.just(99999999999999999999))
_cells = st.one_of(st.integers(-1, 300).map(str), st.sampled_from(["nan", "1e999", "x", "0.5", ""]))


@st.composite
def scene_files(draw):
    """(suffix, bytes): a CSV or PGM file, well formed or not, maybe truncated."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(_cells, min_size=1, max_size=3), max_size=3))
        data = "\n".join(",".join(r) for r in rows).encode()
        suffix = "csv"
    else:
        magic = draw(st.sampled_from([b"P2", b"P5", b"P6"]))
        w, h = draw(_dims), draw(_dims)
        maxval = draw(st.sampled_from([0, 1, 255, 256, 1000, 65535, 65536]))
        if magic == b"P2":
            body = " ".join(draw(st.lists(_cells, max_size=10))).encode()
        else:
            body = draw(st.binary(max_size=20))
        data = b"%s\n%d %d\n%d\n%s" % (magic, w, h, maxval, body)
        suffix = "pgm"
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return suffix, data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(scene_files(), st.sampled_from(["auto", "counts", "value>0.5"]))
def test_load_scene_fuzz(fuzz_dir, file, target):
    """Every file loads into a finite Scene or raises an error the CLI maps to exit 1."""
    suffix, data = file
    path = fuzz_dir / f"scene.{suffix}"
    path.write_bytes(data)
    try:
        s = load_scene(path, target=target)
    except (SceneFormatError, ValueError, FileNotFoundError):
        return
    assert np.isfinite(s.grid).all() and np.isfinite(s.y).all()


def test_non_finite_grid_dir_rejected(tmp_path):
    (tmp_path / "a.csv").write_text("0,1\n1,0\n")
    (tmp_path / "b.csv").write_text("1,inf\n0,0\n")
    with pytest.raises(SceneFormatError, match="non-finite"):
        load_grid_dir(tmp_path)


def test_grid_dir_normalizes_like_load_scene(tmp_path):
    (tmp_path / "a.csv").write_text("0,4\n2,1\n")
    np.testing.assert_array_equal(load_grid_dir(tmp_path)[0], load_scene(tmp_path / "a.csv").grid)
    (tmp_path / "b.csv").write_text("0,1\n-0.5,0\n")
    with pytest.raises(SceneFormatError, match="b.csv: negative"):
        load_grid_dir(tmp_path)


def test_load_grid_dir(tmp_path):
    (tmp_path / "a.csv").write_text("0,1\n1,0\n")
    (tmp_path / "b.csv").write_text("1,1\n0,0\n")
    (tmp_path / "a.target.csv").write_text("0,1\n1,0\n")
    grids = load_grid_dir(tmp_path)
    assert len(grids) == 2
    np.testing.assert_array_equal(grids[0], [0.0, 1.0, 1.0, 0.0])


# -------------------------------------------------------------- invariants


def test_collected_y_cannot_exceed_total():
    rng = np.random.default_rng(9)
    prior = make_blob_prior((8, 8), n_components=3, layout_seed=1)
    s = gen_gmm_scene(prior, 0.5, rng, shape=(8, 8))
    total = s.all_location_y().sum()
    collected = sum(
        measure(s, q, rng).y for q in range(s.n_locations)
    )
    assert collected <= total + 1e-9
