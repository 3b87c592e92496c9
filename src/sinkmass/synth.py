"""Synthetic specimens with known mass, Stokes-style sinking kinematics, and
optional rasterized silhouettes.

Each specimen draws a size s (lognormal) and a density rho (uniform within
its group's range, relative to the fluid). Volume scales as s^3, silhouette
area as s^2, mass is exactly rho * mass_coeff * s^3, and the terminal speed
follows the viscous-drag form v = speed_coeff * (rho - 1) * s^2. The frame
count is the time to cross the cuvette at that speed, so heavier-per-area
specimens produce fewer frames, mirroring the imaging device.

Density is invisible in the rasters by construction (silhouettes depend only
on area), so any advantage a metadata-aware model shows over an image-only
one is attributable to the sinking-speed feature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, SilhouetteTooLarge
from .ingest import Raster, save_raster, serialize_frame_csv
from .records import Dataset, FrameMeta, SpecimenRecord
from .rng import substream

DEFAULT_ASPECT_RANGE = (1.2, 2.2)
CENTER_JITTER_PX = 2


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
    mass_coeff: float = 0.05
    area_coeff: float = 0.6
    speed_coeff: float = 0.32
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
        if min(self.mass_coeff, self.area_coeff, self.speed_coeff) <= 0:
            raise InvalidConfig("physics coefficients must be positive")


@dataclass(frozen=True)
class GroundTruthEntry:
    density: float
    volume: float
    mass: float
    true_speed: float  # pixels per frame, positive when sinking


@dataclass(frozen=True)
class GroundTruth:
    entries: dict[str, GroundTruthEntry]

    def to_dict(self) -> dict:
        return {
            sid: {
                "density": e.density,
                "volume": e.volume,
                "mass": e.mass,
                "true_speed": e.true_speed,
            }
            for sid, e in sorted(self.entries.items())
        }


def _ellipse_raster(
    area_px: float,
    dims: tuple[int, int],
    aspect: float,
    angle: float,
    jitter: tuple[int, int],
) -> Raster:
    """Paint the round(area_px) most-central pixels of an oriented ellipse.

    Ranking pixels by their elliptical radius and painting exactly the
    target count keeps the thresholded pixel count equal to the requested
    area regardless of discretization.
    """
    h, w = dims
    target = int(round(area_px))
    if target > h * w:
        raise SilhouetteTooLarge(f"area {area_px} exceeds {h}x{w} raster capacity")
    a = math.sqrt(area_px * aspect / math.pi)
    b = math.sqrt(area_px / (math.pi * aspect))
    cy = (h - 1) / 2.0 + jitter[0]
    cx = (w - 1) / 2.0 + jitter[1]
    if a + CENTER_JITTER_PX + 1 > min(h, w) / 2.0:
        raise SilhouetteTooLarge(
            f"ellipse with area {area_px} and aspect {aspect} does not fit in {h}x{w}"
        )
    yy, xx = np.mgrid[0:h, 0:w]
    dy = yy - cy
    dx = xx - cx
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    u = (dx * cos_t + dy * sin_t) / a
    v = (-dx * sin_t + dy * cos_t) / b
    metric = (u * u + v * v).ravel()
    order = np.argsort(metric, kind="stable")
    pixels = np.full(h * w, 255, dtype=np.uint8)
    pixels[order[:target]] = 0
    return Raster(h, w, pixels.reshape(h, w))


def rasterize_specimen(
    record: SpecimenRecord,
    dims: tuple[int, int],
    seed: int,
    aspect_range: tuple[float, float] = DEFAULT_ASPECT_RANGE,
) -> list[Raster]:
    """One silhouette Raster per frame, dark ellipse on light background.

    Frames of the same camera share an aspect ratio (same projected view);
    orientation and centering jitter vary per frame.
    """
    rng = substream(seed, "rasterize", record.specimen_id)
    aspect_by_camera = {
        cam: rng.uniform(*aspect_range) for cam in ("A", "B")
    }
    rasters = []
    for frame in record.frames:
        angle = rng.uniform(0.0, math.pi)
        jitter = (
            int(rng.integers(-CENTER_JITTER_PX, CENTER_JITTER_PX + 1)),
            int(rng.integers(-CENTER_JITTER_PX, CENTER_JITTER_PX + 1)),
        )
        rasters.append(
            _ellipse_raster(frame.area_px, dims, aspect_by_camera[frame.camera_id], angle, jitter)
        )
    return rasters


def _make_specimen(
    config: SynthConfig, group: GroupSpec, specimen_id: str, rng: np.random.Generator
) -> tuple[SpecimenRecord, GroundTruthEntry]:
    size = rng.lognormal(mean=group.size_lognormal[0], sigma=group.size_lognormal[1])
    density = rng.uniform(*group.density_range)
    volume = size**3
    mass = density * config.mass_coeff * volume
    base_area = config.area_coeff * size**2
    step = config.speed_coeff * (density - 1.0) * size**2 * config.dt
    if step > 0:
        n = int(math.ceil(config.cuvette_height_px / step))
    else:
        n = config.n_max  # neutral or floating: fills the sequence budget
    n = max(1, min(config.n_max, n))
    box = int(math.ceil(2.0 * math.sqrt(base_area * (1.0 + 6.0 * config.area_noise_cv))))
    left = int(rng.integers(0, 3))
    frames = []
    for camera in ("A", "B"):
        for i in range(n):
            top = int(round(config.cuvette_height_px - i * step))
            noise = rng.normal(0.0, config.area_noise_cv) if config.area_noise_cv > 0 else 0.0
            area = max(base_area * (1.0 + noise), 0.0)
            frames.append(
                FrameMeta(
                    camera_id=camera,
                    frame_index=i,
                    top=top,
                    bottom=top + box,
                    left=left,
                    right=left + box,
                    area_px=area,
                )
            )
    record = SpecimenRecord(
        specimen_id=specimen_id,
        taxon=group.name,
        dry_mass_ug=mass,
        frames=tuple(frames),
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
                rasters = rasterize_specimen(
                    record, config.raster_dims, config.seed, group.aspect_range
                )
                refs = tuple(
                    f"{sid}/{f.camera_id}_{f.frame_index}.pgm" for f in record.frames
                )
                for ref, raster in zip(refs, rasters):
                    raster_store[ref] = raster.pixels
                record = SpecimenRecord(
                    specimen_id=record.specimen_id,
                    taxon=record.taxon,
                    dry_mass_ug=record.dry_mass_ug,
                    frames=record.frames,
                    raster_refs=refs,
                )
            specimens.append(record)
            truths[sid] = truth
    dataset = Dataset(
        name=name,
        specimens=tuple(specimens),
        raster_dims=config.raster_dims,
        rasters=raster_store if raster_store else None,
    )
    return dataset, GroundTruth(truths)


def write_synth_output(dataset: Dataset, truth: GroundTruth, out_dir: Path | str) -> Path:
    """Write manifest, frame CSVs, PGM rasters, and ground truth to disk in
    the exact ingest schema. Returns the manifest path."""
    out = Path(out_dir)
    frames_dir = out / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for record in dataset.specimens:
        csv_rel = f"frames/{record.specimen_id}.csv"
        (out / csv_rel).write_bytes(serialize_frame_csv(record.frames))
        raster_rel = None
        if record.raster_refs is not None and dataset.rasters is not None:
            raster_rel = f"rasters/{record.specimen_id}"
            rdir = out / raster_rel
            rdir.mkdir(parents=True, exist_ok=True)
            for frame, ref in zip(record.frames, record.raster_refs):
                pixels = dataset.rasters[ref]
                raster = Raster(pixels.shape[0], pixels.shape[1], pixels)
                (rdir / f"{frame.camera_id}_{frame.frame_index}.pgm").write_bytes(
                    save_raster(raster)
                )
        manifest.append(
            {
                "specimen_id": record.specimen_id,
                "taxon": record.taxon,
                "dry_mass_ug": record.dry_mass_ug,
                "metadata_csv": csv_rel,
                "raster_dir": raster_rel,
            }
        )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (out / "groundtruth.json").write_text(
        json.dumps(truth.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return manifest_path
