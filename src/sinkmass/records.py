"""Core domain types shared by every other module.

Masses are stored in micrograms. A dataset's silhouettes are one ``uint8``
stack per specimen, one row per frame in frame order. All types are
immutable after construction and safe to share read-only across parallel
workers. ``validate_dataset`` reports invariant violations as data instead
of raising, so callers can surface every problem in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Predictions are clamped to this floor (micrograms) so percentage metrics
# and log-space R^2 stay defined even when a model extrapolates negative.
MASS_FLOOR_UG = 1e-3

CAMERAS = ("A", "B")


class FrameMeta(NamedTuple):
    """One saved crop: position of the crop box in cuvette coordinates plus
    the specimen area visible in that frame.

    Border positions are recorded the way the imaging device emits them:
    values decrease as the specimen descends, so the first frame of a sinking
    sequence carries the largest ``top`` value. Only differences between
    frames matter downstream.
    """

    camera_id: str
    frame_index: int
    top: int
    bottom: int
    left: int
    right: int
    area_px: float


@dataclass(frozen=True)
class SpecimenRecord:
    """One weighed (or inference-only) individual with its frame sequences."""

    specimen_id: str
    taxon: str
    dry_mass_ug: float | None
    frames: tuple[FrameMeta, ...]

    def frames_for(self, camera_id: str) -> tuple[FrameMeta, ...]:
        return tuple(f for f in self.frames if f.camera_id == camera_id)


@dataclass(frozen=True)
class Dataset:
    """A named collection of specimens, optionally carrying decoded rasters.

    ``rasters`` maps a specimen id to one ``uint8`` array of shape
    ``(len(record.frames), *raster_dims)`` whose row i is the silhouette of
    frame i; a specimen without rasters is absent from it, so the mapping
    is empty when no specimen has rasters. It is filled by ingest (or the
    synthetic generator) and treated as read-only afterwards. ``features``
    is derived from the specimens on first access and cached.
    """

    name: str
    specimens: tuple[SpecimenRecord, ...]
    raster_dims: tuple[int, int] | None = None
    rasters: dict = field(default_factory=dict)

    @property
    def taxon_set(self) -> set[str]:
        return {s.taxon for s in self.specimens}

    @cached_property
    def features(self) -> dict:
        """{specimen_id: SpecimenFeatures} for every specimen. Lazy, because
        a frameless specimen has none and ``validate_dataset`` must still
        report it as a violation instead of failing here."""
        from .features import compute_features  # features.py imports this module

        return {s.specimen_id: compute_features(s) for s in self.specimens}

    def specimen(self, specimen_id: str) -> SpecimenRecord:
        for s in self.specimens:
            if s.specimen_id == specimen_id:
                return s
        raise KeyError(specimen_id)

    def subset(self, specimen_ids) -> tuple[SpecimenRecord, ...]:
        wanted = set(specimen_ids)
        return tuple(s for s in self.specimens if s.specimen_id in wanted)


@dataclass(frozen=True)
class PredictionEntry:
    specimen_id: str
    taxon: str
    true_mass_ug: float
    predicted_mass_ug: float
    predicted_taxon: str | None = None


@dataclass(frozen=True)
class PredictionSet:
    """Pooled (true, predicted) pairs for a set of specimens."""

    entries: tuple[PredictionEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if e.specimen_id in seen:
                raise ValueError(f"duplicate specimen_id {e.specimen_id!r} in PredictionSet")
            seen.add(e.specimen_id)
            if not e.predicted_mass_ug > 0:
                raise ValueError(
                    f"non-positive prediction {e.predicted_mass_ug} for {e.specimen_id!r}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def true_masses(self) -> np.ndarray:
        return np.array([e.true_mass_ug for e in self.entries], dtype=float)

    def predicted_masses(self) -> np.ndarray:
        return np.array([e.predicted_mass_ug for e in self.entries], dtype=float)


@dataclass(frozen=True)
class Violation:
    specimen_id: str
    field: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)


def _validate_frame(specimen_id: str, frame: FrameMeta, out: list[Violation]) -> None:
    if frame.camera_id not in CAMERAS:
        out.append(Violation(specimen_id, "camera_id", f"unknown camera {frame.camera_id!r}"))
    if frame.frame_index < 0:
        out.append(Violation(specimen_id, "frame_index", f"negative index {frame.frame_index}"))
    if not frame.top < frame.bottom:
        out.append(
            Violation(specimen_id, "top", f"top {frame.top} must be < bottom {frame.bottom}")
        )
    if not frame.left < frame.right:
        out.append(
            Violation(specimen_id, "left", f"left {frame.left} must be < right {frame.right}")
        )
    if not math.isfinite(frame.area_px):
        out.append(Violation(specimen_id, "area_px", f"non-finite area {frame.area_px}"))
    elif frame.area_px < 0:
        out.append(Violation(specimen_id, "area_px", f"negative area {frame.area_px}"))
    else:
        box = (frame.bottom - frame.top) * (frame.right - frame.left)
        if box > 0 and frame.area_px > box:
            out.append(
                Violation(
                    specimen_id,
                    "area_px",
                    f"area {frame.area_px} exceeds crop box area {box}",
                )
            )


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check every invariant of a dataset; pure and idempotent.

    Returns a report listing each violation with the offending specimen and
    field. An empty report means the dataset is accepted by every downstream
    operation's structural preconditions.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    for record in dataset.specimens:
        sid = record.specimen_id
        if sid in seen_ids:
            violations.append(Violation(sid, "specimen_id", "duplicate specimen_id"))
        seen_ids.add(sid)
        if not record.frames:
            violations.append(Violation(sid, "frames", "no frames"))
        mass = record.dry_mass_ug
        if mass is not None and not mass > 0:
            violations.append(Violation(sid, "dry_mass_ug", f"non-positive mass {mass}"))
        elif mass is not None and not math.isfinite(mass):
            violations.append(Violation(sid, "dry_mass_ug", f"non-finite mass {mass}"))
        for camera in CAMERAS:
            indices = [f.frame_index for f in record.frames if f.camera_id == camera]
            if any(b <= a for a, b in zip(indices, indices[1:])):
                violations.append(
                    Violation(
                        sid, "frame_index", f"camera {camera} indices not strictly increasing"
                    )
                )
        for frame in record.frames:
            _validate_frame(sid, frame, violations)
        stack = dataset.rasters.get(sid)
        if stack is not None:
            expected = (len(record.frames), *(dataset.raster_dims or stack.shape[1:]))
            if stack.shape != expected:
                message = f"raster stack of shape {stack.shape}, expected {expected}"
                violations.append(Violation(sid, "rasters", message))
    return ValidationReport(tuple(violations))
