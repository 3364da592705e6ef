"""Hidden search scenes and measurement semantics.

A scene is a rows x cols grid of cell contents normalized to [0, 1] plus a
per-cell target ratio y in [0, 1]. Queries address either single cells or
aligned square blocks (``block`` cells per side); a measurement reveals the
block's contents, optionally corrupted by additive Gaussian noise, together
with the exact target ratio of the block. The ratio feedback is always
noiseless; only revealed pixel values carry noise.

Scene sources: sampling from a Gaussian-mixture prior (so the engine's
analytic prior is exactly right for the scene distribution), CSV grids with
an optional ``<name>.target.csv`` companion, and P2/P5 PGM images. Count
grids (e.g. species observations) use per-scene max normalization for both
contents and target ratios.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridseek.diffusion import GaussianMixturePrior

__all__ = [
    "Scene",
    "Measurement",
    "RepeatMeasurementError",
    "measure",
    "gen_gmm_scene",
    "make_blob_prior",
    "load_scene",
    "save_scene",
    "load_grid_dir",
]


class RepeatMeasurementError(ValueError):
    """Raised when a location is queried twice within one episode."""


class SceneFormatError(ValueError):
    """Raised when a scene file cannot be parsed into a valid grid."""


@dataclass(frozen=True)
class Scene:
    """Immutable ground truth: contents, per-cell target ratios, query layout."""

    grid: np.ndarray
    y: np.ndarray
    shape: tuple[int, int]
    block: int = 1
    noise: tuple[float, float] | None = None

    def __post_init__(self):
        rows, cols = self.shape
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float).ravel())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())
        if self.grid.shape != (rows * cols,) or self.y.shape != (rows * cols,):
            raise ValueError("grid and y must hold rows*cols cells")
        if np.any(self.y < 0.0) or np.any(self.y > 1.0):
            raise ValueError("target ratios must lie in [0, 1]")
        b = self.block
        if b < 1 or rows % b or cols % b:
            raise ValueError(f"block {self.block} must evenly divide {self.shape}")
        # Row-major cells of each location, locations row-major; read-only.
        cells = np.arange(rows * cols).reshape(rows // b, b, cols // b, b)
        cells = cells.transpose(0, 2, 1, 3).reshape(-1, b * b)
        cells.flags.writeable = False
        object.__setattr__(self, "_cells", cells)

    @property
    def n_cells(self) -> int:
        return self.grid.size

    @property
    def n_locations(self) -> int:
        return len(self._cells)

    @property
    def location_shape(self) -> tuple[int, int]:
        rows, cols = self.shape
        return rows // self.block, cols // self.block

    def location_cells(self, location: int) -> np.ndarray:
        """Flat cell indices covered by a query location, row-major (read-only)."""
        if not 0 <= location < self.n_locations:
            raise IndexError(f"location {location} outside 0..{self.n_locations - 1}")
        return self._cells[location]

    def all_location_cells(self) -> np.ndarray:
        """Read-only (n_locations, block^2) cell-index table of every location."""
        return self._cells

    def location_y(self, location: int) -> float:
        return float(self.y[self.location_cells(location)].mean())

    def all_location_y(self) -> np.ndarray:
        return self.y[self.all_location_cells()].mean(axis=1)

    @property
    def n_target_locations(self) -> int:
        """Number of query locations with any target content."""
        return int(np.count_nonzero(self.all_location_y() > 0.0))


@dataclass(frozen=True)
class Measurement:
    """Outcome of one query: revealed contents plus exact target ratio."""

    location: int
    content: np.ndarray
    y: float


def measure(scene: Scene, location: int, rng: np.random.Generator) -> Measurement:
    """Reveal a location's contents (noisy if configured) and its exact y."""
    cells = scene.location_cells(location)
    content = scene.grid[cells].copy()
    if scene.noise is not None:
        mu, sigma = scene.noise
        content = content + rng.normal(mu, sigma, content.shape)
    return Measurement(location=location, content=content, y=scene.location_y(location))


def gen_gmm_scene(
    prior: GaussianMixturePrior,
    threshold: float,
    rng: np.random.Generator,
    shape: tuple[int, int],
    block: int = 1,
    noise: tuple[float, float] | None = None,
) -> Scene:
    """Draw a scene from the mixture prior; cells above ``threshold`` are targets."""
    rows, cols = shape
    if prior.dimension != rows * cols:
        raise ValueError(
            f"prior dimension {prior.dimension} does not match shape {shape}"
        )
    grid = np.clip(prior.sample(rng), 0.0, 1.0)
    y = (grid > float(threshold)).astype(float)
    return Scene(grid=grid, y=y, shape=shape, block=block, noise=noise)


def make_blob_prior(
    shape: tuple[int, int],
    n_components: int = 8,
    layout_seed: int = 0,
    blobs_per_component: int = 2,
    background: float = 0.1,
    amplitude: float = 0.8,
    radius: float = 2.0,
    variance: float = 0.0016,
) -> GaussianMixturePrior:
    """Mixture of smooth bump landscapes used by the synthetic benchmark.

    Each component is a low background plus a few Gaussian bumps at
    layout-seeded positions, so components disagree most exactly where their
    target regions sit. Means stay within [background, background+amplitude].
    """
    rows, cols = shape
    rng = np.random.default_rng(layout_seed)
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    means = []
    for _ in range(n_components):
        field = np.full((rows, cols), background)
        for _ in range(blobs_per_component):
            cr = rng.uniform(radius, rows - 1 - radius)
            cx = rng.uniform(radius, cols - 1 - radius)
            bump = amplitude * np.exp(
                -((rr - cr) ** 2 + (cc - cx) ** 2) / (2.0 * radius**2)
            )
            field = np.maximum(field, background + bump)
        means.append(np.clip(field, 0.0, 1.0))
    return GaussianMixturePrior.from_grids(means, variance)


def _parse_target_spec(spec: str):
    m = re.fullmatch(r"value>([0-9.eE+-]+)", spec)
    if m:
        return float(m.group(1))
    if spec in ("auto", "file", "counts"):
        return spec
    raise ValueError(f"unknown target spec {spec!r}")


def _target_path(path: Path) -> Path:
    return path.with_suffix(".target.csv")


def _require_finite(path: Path, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise SceneFormatError(f"{path}: non-finite cell values")
    return values


def _unit_grid(path: Path, raw: np.ndarray) -> np.ndarray:
    """``raw`` on [0, 1]: negative cells are rejected, and a max above 1 is scaled to 1."""
    if raw.min() < 0.0:
        raise SceneFormatError(f"{path}: negative cell values cannot be normalized")
    return raw / raw.max() if raw.max() > 1.0 else raw


def _read_csv_grid(path: Path) -> np.ndarray:
    try:
        rows = [
            [float(v) for v in line.split(",")]
            for line in path.read_text().strip().splitlines()
            if line.strip()
        ]
    except (OSError, ValueError) as exc:  # a directory, unreadable, not UTF-8 or not numbers
        raise SceneFormatError(f"{path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise SceneFormatError(f"{path}: ragged or empty grid")
    return _require_finite(path, np.asarray(rows, dtype=float))


def _read_pgm(path: Path) -> np.ndarray:
    try:
        data = path.read_bytes()
    except OSError as exc:  # a directory or unreadable
        raise SceneFormatError(f"{path}: {exc}") from exc
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(#[^\n]*\n|\S+)", data[pos:])
        if m is None:
            raise SceneFormatError(f"{path}: truncated header")
        pos += m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    try:
        magic, width, height, maxval = tokens[0], *(int(t) for t in tokens[1:])
    except ValueError as exc:  # a size or maxval that is no integer
        raise SceneFormatError(f"{path}: {exc}") from exc
    if width < 1 or height < 1:
        raise SceneFormatError(f"{path}: bad size {width}x{height}")
    if not 0 < maxval < 65536:
        raise SceneFormatError(f"{path}: bad maxval {maxval}")
    if magic == b"P2":
        try:
            values = np.array(data[pos:].split(), dtype=float)
        except ValueError as exc:  # a pixel that is no number
            raise SceneFormatError(f"{path}: {exc}") from exc
    elif magic == b"P5":
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        if len(data) - pos - 1 < width * height * dtype.itemsize:
            raise SceneFormatError(f"{path}: expected {width * height} pixels")
        values = np.frombuffer(data[pos + 1:], dtype=dtype, count=width * height)
        values = values.astype(float)
    else:
        raise SceneFormatError(f"{path}: unsupported magic {magic!r}")
    if values.size != width * height:
        raise SceneFormatError(f"{path}: expected {width * height} pixels")
    if _require_finite(path, values).max() > maxval:
        raise SceneFormatError(f"{path}: a pixel exceeds maxval {maxval}")
    return (values / maxval).reshape(height, width)


def load_scene(
    path,
    fmt: str | None = None,
    target: str = "auto",
    block: int = 1,
    noise: tuple[float, float] | None = None,
) -> Scene:
    """Load a grid file and derive its target map.

    ``target`` is ``auto`` (companion ``<name>.target.csv`` if present, else
    count normalization), ``file``, ``counts``, or ``value>THETA``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scene file not found: {path}")
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        raw = _read_csv_grid(path)
    elif fmt == "pgm":
        raw = _read_pgm(path)
    else:
        raise SceneFormatError(f"unsupported scene format {fmt!r}")

    grid = _unit_grid(path, raw)

    rule = _parse_target_spec(target)
    target_file = _target_path(path)
    if rule == "auto":
        rule = "file" if target_file.exists() else "counts"
    if rule == "file":
        if not target_file.exists():
            raise FileNotFoundError(f"target file not found: {target_file}")
        y = _read_csv_grid(target_file)
        if y.shape != raw.shape:
            raise SceneFormatError(f"{target_file}: shape differs from grid")
        if y.min() < 0.0 or y.max() > 1.0:
            raise SceneFormatError(f"{target_file}: target ratios must lie in [0, 1]")
    elif rule == "counts":
        top = grid.max()
        y = grid / top if top > 0.0 else np.zeros_like(grid)
    else:  # threshold
        y = (grid > rule).astype(float)

    return Scene(grid=grid.ravel(), y=np.asarray(y, dtype=float).ravel(),
                 shape=raw.shape, block=block, noise=noise)


def save_scene(scene: Scene, path) -> None:
    """Write contents and target map as CSV with full float precision."""
    path = Path(path)
    rows, cols = scene.shape

    def dump(values: np.ndarray, out: Path) -> None:
        grid2d = values.reshape(rows, cols)
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in grid2d)
        out.write_text(text + "\n")

    dump(scene.grid, path)
    dump(scene.y, _target_path(path))


def load_grid_dir(directory) -> list[np.ndarray]:
    """Flattened ``*.csv`` grids from a directory, sorted by name; feeds empirical priors."""
    directory = Path(directory)
    paths = sorted(p for p in directory.glob("*.csv")
                   if not p.name.endswith(".target.csv"))
    if not paths:
        raise FileNotFoundError(f"no grid files matching *.csv in {directory}")
    grids = []
    for p in paths:
        grids.append(_unit_grid(p, _read_csv_grid(p)).ravel())
    return grids
