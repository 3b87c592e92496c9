"""Synthetic specimens with known mass, Stokes-style sinking kinematics, and
optional rasterized silhouettes.

Each specimen draws a size s (lognormal) and a density rho (uniform within
its group's range, relative to the fluid). Volume scales as s^3, silhouette
area as AREA_COEFF * s^2, mass is exactly rho * MASS_COEFF * s^3, and the
terminal speed follows the viscous-drag form v = SPEED_COEFF * (rho - 1) * s^2.
The frame count is the time to cross the cuvette at that speed, so
heavier-per-area specimens produce fewer frames, mirroring the imaging device.

With ``raster_dims`` set, each specimen also gets one ``uint8`` stack of
silhouettes, a row per frame, painted with array ops on at most
PAINT_CHUNK_PIXELS pixels at a time; each row has the bits of a per-frame stable
argsort. ``write_synth_output`` writes one PGM per row under the ingest file name.

Density is invisible in the rasters by construction (silhouettes depend only
on area), so any advantage a metadata-aware model shows over an image-only
one is attributable to the sinking-speed feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import write_files
from .errors import InvalidConfig, SilhouetteTooLarge
from .ingest import raster_names, save_raster, serialize_frame_csv
from .records import CAMERAS, FRAME_DTYPE, Dataset, SpecimenRecord
from .rng import substream

DEFAULT_ASPECT_RANGE = (1.2, 2.2)
CENTER_JITTER_PX = 2
PAINT_CHUNK_PIXELS = 1 << 16  # pixels of the frames whose silhouettes one pass paints
MASS_COEFF = 0.05
AREA_COEFF = 0.6
SPEED_COEFF = 0.32


@dataclass(frozen=True)
class GroupSpec:
    name: str
    density_range: tuple[float, float]
    size_lognormal: tuple[float, float]  # (mu, sigma) of ln size
    count: int
    aspect_range: tuple[float, float] = DEFAULT_ASPECT_RANGE


@dataclass(frozen=True)
class SynthConfig:
    groups: tuple[GroupSpec, ...]
    cuvette_height_px: int = 320
    dt: float = 1.0
    area_noise_cv: float = 0.05
    seed: int = 0
    n_max: int = 200
    raster_dims: tuple[int, int] | None = None

    def validate(self) -> None:
        if not self.groups:
            raise InvalidConfig("need at least one group")
        for g in self.groups:
            if g.count < 1:
                raise InvalidConfig(f"group {g.name!r}: count must be >= 1")
            lo, hi = g.density_range
            if not 0 < lo <= hi:
                raise InvalidConfig(f"group {g.name!r}: bad density range {g.density_range}")
            if g.size_lognormal[1] < 0:
                raise InvalidConfig(f"group {g.name!r}: negative size sigma")
            if not 1 <= g.aspect_range[0] <= g.aspect_range[1]:
                raise InvalidConfig(f"group {g.name!r}: bad aspect range {g.aspect_range}")
        if self.cuvette_height_px <= 0 or self.dt <= 0:
            raise InvalidConfig("cuvette height and dt must be positive")
        if self.area_noise_cv < 0:
            raise InvalidConfig("area_noise_cv must be >= 0")
        if self.n_max < 1:
            raise InvalidConfig("n_max must be >= 1")
        dims = self.raster_dims
        if dims is not None and not (len(dims) == 2 and 0 < dims[0] == dims[1]):
            raise InvalidConfig(f"raster_dims must be two equal positive sides, got {list(dims)}")


@dataclass(frozen=True)
class GroundTruthEntry:
    density: float
    volume: float
    mass: float
    true_speed: float  # pixels per frame, positive when sinking


@dataclass(frozen=True)
class GroundTruth:
    entries: dict[str, GroundTruthEntry]


def _ellipse_stack(dims: tuple[int, int], frames: list[tuple]) -> np.ndarray:
    """A row per ``(area_px, aspect, angle, (jitter_y, jitter_x))`` painting the
    round(area_px) most-central pixels of an oriented ellipse, so that the
    thresholded pixel count is the requested area regardless of discretization.
    The first frame that does not fit raises, its capacity checked first."""
    h, w = dims
    params = []
    for area_px, aspect, angle, (jy, jx) in frames:
        target = int(round(area_px))
        if target > h * w:
            raise SilhouetteTooLarge(f"area {area_px} exceeds {h}x{w} raster capacity")
        a = math.sqrt(area_px * aspect / math.pi)
        b = math.sqrt(area_px / (math.pi * aspect))
        if a + CENTER_JITTER_PX + 1 > min(h, w) / 2.0:
            raise SilhouetteTooLarge(f"ellipse with area {area_px} and aspect {aspect} "
                                     f"does not fit in {h}x{w}")
        params.append((target, a, b, (h - 1) / 2.0 + jy, (w - 1) / 2.0 + jx,
                       math.cos(angle), math.sin(angle)))
    target, a, b, cy, cx, cos_t, sin_t = np.array(params).reshape(-1, 7, 1, 1).swapaxes(0, 1)
    stack = np.empty((len(params), h, w), dtype=np.uint8)
    step = max(1, PAINT_CHUNK_PIXELS // (h * w))
    for rows in (slice(i, i + step) for i in range(0, len(stack), step)):
        dy, dx = np.arange(h)[:, None] - cy[rows], np.arange(w) - cx[rows]
        # u * u + v * v for the pixel's offsets u and v along the axes, in semi-axes
        with np.errstate(divide="ignore", invalid="ignore"):  # area 0: target 0, paints nothing
            metric = np.square((dx * cos_t[rows] + dy * sin_t[rows]) / a[rows])
            metric += np.square((-dx * sin_t[rows] + dy * cos_t[rows]) / b[rows])
        dark = _most_central(metric.reshape(len(metric), -1), target[rows].astype(int).ravel())
        stack[rows] = ~dark.reshape(metric.shape) * np.uint8(255)
    return stack


def _most_central(metric: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Mask of each row's ``target`` smallest metrics, as a stable argsort ranks them."""
    kth = np.sort(metric, axis=1)[np.arange(len(metric)), target - 1, None]
    kth[target == 0] = -np.inf
    dark = metric < kth
    ties = np.flatnonzero(metric == kth)
    row = ties // metric.shape[1]
    rank = np.arange(len(ties)) - np.searchsorted(row, row)
    dark.ravel()[ties] = rank < (target - np.count_nonzero(dark, axis=1))[row]
    return dark


def rasterize_specimen(
    record: SpecimenRecord,
    dims: tuple[int, int],
    seed: int,
    aspect_range: tuple[float, float] = DEFAULT_ASPECT_RANGE,
) -> np.ndarray:
    """A ``(frames, *dims)`` stack with one silhouette per frame, in frame
    order: a dark ellipse on a light background.

    Frames of the same camera share an aspect ratio (same projected view);
    orientation and centering jitter vary per frame.
    """
    rng = substream(seed, "rasterize", record.specimen_id)
    aspect_by_camera = {cam: rng.uniform(*aspect_range) for cam in CAMERAS}
    jitter = (-CENTER_JITTER_PX, CENTER_JITTER_PX + 1)
    return _ellipse_stack(dims, [  # per frame, the angle, then y and x jitter, in draw order
        (area, aspect_by_camera[camera], rng.uniform(0.0, math.pi),
         (int(rng.integers(*jitter)), int(rng.integers(*jitter))))
        for camera, area in record.frames[["camera_id", "area_px"]].tolist()
    ])


def _make_specimen(
    config: SynthConfig, group: GroupSpec, specimen_id: str, rng: np.random.Generator
) -> tuple[SpecimenRecord, GroundTruthEntry]:
    size = rng.lognormal(mean=group.size_lognormal[0], sigma=group.size_lognormal[1])
    density = rng.uniform(*group.density_range)
    volume = size**3
    mass = density * MASS_COEFF * volume
    base_area = AREA_COEFF * size**2
    step = SPEED_COEFF * (density - 1.0) * size**2 * config.dt
    if step > 0:
        n = int(math.ceil(config.cuvette_height_px / step))
    else:
        n = config.n_max  # neutral or floating: fills the sequence budget
    n = max(1, min(config.n_max, n))
    box = int(math.ceil(2.0 * math.sqrt(base_area * (1.0 + 6.0 * config.area_noise_cv))))
    left = int(rng.integers(0, 3))
    # one draw per frame, camera A's frames first, as in the table
    noise = rng.normal(0.0, config.area_noise_cv, 2 * n) if config.area_noise_cv > 0 else 0.0
    top = np.round(config.cuvette_height_px - np.arange(n) * step).astype(np.int64)
    frames = np.empty(2 * n, dtype=FRAME_DTYPE)
    frames["camera_id"][:n], frames["camera_id"][n:] = CAMERAS
    frames["frame_index"][:n] = frames["frame_index"][n:] = np.arange(n)
    frames["top"][:n] = frames["top"][n:] = top
    frames["bottom"] = frames["top"] + box
    frames["left"] = left
    frames["right"] = left + box
    frames["area_px"] = np.maximum(base_area * (1.0 + noise), 0.0)
    frames.flags.writeable = False
    record = SpecimenRecord(
        specimen_id=specimen_id,
        taxon=group.name,
        dry_mass_ug=mass,
        frames=frames,
    )
    truth = GroundTruthEntry(density=density, volume=volume, mass=mass, true_speed=step)
    return record, truth


def generate(config: SynthConfig, name: str = "synthetic") -> tuple[Dataset, GroundTruth]:
    """Generate a dataset plus its ground truth; deterministic per seed.

    Every specimen uses its own seeded substream, so generation order (or a
    parallel implementation) cannot change the output.
    """
    config.validate()
    specimens = []
    truths: dict[str, GroundTruthEntry] = {}
    raster_store: dict[str, np.ndarray] = {}
    counter = 0
    for gi, group in enumerate(config.groups):
        for _ in range(group.count):
            sid = f"s{counter:04d}"
            counter += 1
            rng = substream(config.seed, "synth", gi, counter)
            record, truth = _make_specimen(config, group, sid, rng)
            if config.raster_dims is not None:
                raster_store[sid] = rasterize_specimen(
                    record, config.raster_dims, config.seed, group.aspect_range
                )
            specimens.append(record)
            truths[sid] = truth
    dataset = Dataset(
        name=name,
        specimens=tuple(specimens),
        raster_dims=config.raster_dims,
        rasters=raster_store,
    )
    return dataset, GroundTruth(truths)


def write_synth_output(dataset: Dataset, truth: GroundTruth, out_dir: Path | str) -> Path:
    """Write manifest, frame CSVs, PGM rasters, and ground truth to disk in
    the exact ingest schema, one file at a time. Returns the manifest path."""
    out = Path(out_dir)
    write_files(_synth_files(dataset, truth, out))
    return out / "manifest.json"


def _synth_files(dataset: Dataset, truth: GroundTruth, out: Path):
    """The ``(path, content)`` pairs of ``write_synth_output``, each encoded
    only when it is asked for."""
    manifest = []
    for record in dataset.specimens:
        csv_rel = f"frames/{record.specimen_id}.csv"
        yield out / csv_rel, serialize_frame_csv(record.frames)
        raster_rel = None
        stack = dataset.rasters.get(record.specimen_id)
        if stack is not None:
            raster_rel = f"rasters/{record.specimen_id}"
            rdir = out / raster_rel
            for name, pixels in zip(raster_names(record.frames), stack):
                yield rdir / name, save_raster(pixels)
        manifest.append(
            {
                "specimen_id": record.specimen_id,
                "taxon": record.taxon,
                "dry_mass_ug": record.dry_mass_ug,
                "metadata_csv": csv_rel,
                "raster_dir": raster_rel,
            }
        )
    yield out / "manifest.json", manifest
    yield out / "groundtruth.json", truth.entries
