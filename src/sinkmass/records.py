"""Core domain types shared by every other module.

Masses are stored in micrograms. A specimen's frames are one frame table, a
structured array of dtype ``FRAME_DTYPE`` (one-character ``camera_id``,
``int64`` frame_index and crop borders, ``float64`` area_px) with a row per
saved crop in file order. Tables that ingest, synth and ``frame_table`` make
are read-only (``flags.writeable`` is False). Border positions are recorded
the way the imaging device emits them: values decrease as the specimen
descends, so the first frame of a sinking sequence carries the largest
``top`` value. Only differences between frames matter downstream. A
dataset's silhouettes are one ``uint8`` stack per specimen, one row per
frame in frame order. All types are immutable after construction and safe
to share read-only across parallel workers. ``validate_dataset`` reports
invariant violations as data instead of raising, so callers can surface
every problem in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Predictions are clamped to this floor (micrograms) so percentage metrics
# and log-space R^2 stay defined even when a model extrapolates negative.
MASS_FLOOR_UG = 1e-3

CAMERAS = ("A", "B")

FRAME_DTYPE = np.dtype([
    ("camera_id", "U1"),
    *((name, np.int64) for name in ("frame_index", "top", "bottom", "left", "right")),
    ("area_px", np.float64),
])


def frame_table(rows) -> np.ndarray:
    """A read-only frame table from rows of FRAME_DTYPE's fields, in order."""
    table = np.array([tuple(row) for row in rows], dtype=FRAME_DTYPE)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class SpecimenRecord:
    """One weighed (or inference-only) individual with its frame table;
    records compare by identity, as tables have no single truth value."""

    specimen_id: str
    taxon: str
    dry_mass_ug: float | None
    frames: np.ndarray

    def frames_for(self, camera_id: str) -> np.ndarray:
        return self.frames[self.frames["camera_id"] == camera_id]


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


def _validate_frame(specimen_id: str, row: tuple, out: list[Violation]) -> None:
    """Append the violations of one frame, given as its Python values."""
    camera_id, frame_index, top, bottom, left, right, area_px = row
    if camera_id not in CAMERAS:
        out.append(Violation(specimen_id, "camera_id", f"unknown camera {camera_id!r}"))
    if frame_index < 0:
        out.append(Violation(specimen_id, "frame_index", f"negative index {frame_index}"))
    if not top < bottom:
        out.append(Violation(specimen_id, "top", f"top {top} must be < bottom {bottom}"))
    if not left < right:
        out.append(Violation(specimen_id, "left", f"left {left} must be < right {right}"))
    if not math.isfinite(area_px):
        out.append(Violation(specimen_id, "area_px", f"non-finite area {area_px}"))
    elif area_px < 0:
        out.append(Violation(specimen_id, "area_px", f"negative area {area_px}"))
    else:
        box = (bottom - top) * (right - left)
        if box > 0 and area_px > box:
            out.append(
                Violation(specimen_id, "area_px", f"area {area_px} exceeds crop box area {box}")
            )


def _frame_flags(specimens) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """From the columns of every frame table at once, per specimen: whether
    a frame may hold a violation, and per camera whether its indices fail to
    increase strictly. A frame with a coordinate of 2**25 or more in
    magnitude always may, which keeps the box areas checked here below 2**52,
    exact in int64 and float64."""
    frames = np.concatenate([np.empty(0, FRAME_DTYPE), *(s.frames for s in specimens)],
                            dtype=FRAME_DTYPE)
    owner = np.repeat(np.arange(len(specimens)), [len(s.frames) for s in specimens])
    top, bottom, left, right, area = (frames[name] for name in FRAME_DTYPE.names[2:])
    index, clean = frames["frame_index"], np.zeros(len(frames), dtype=bool)
    unordered = {}
    for camera in CAMERAS:
        mine = frames["camera_id"] == camera
        clean |= mine
        idx, who = index[mine], owner[mine]
        falls = (who[1:] == who[:-1]) & (idx[1:] <= idx[:-1])
        unordered[camera] = np.bincount(who[1:][falls], minlength=len(specimens)) > 0
    for column in (top, bottom, left, right):
        clean &= (column < 2**25) & (column > -(2**25))
    # area >= 0 fails for NaN and -inf, area <= box for NaN and +inf
    clean &= (index >= 0) & (top < bottom) & (left < right) & (area >= 0)
    clean &= area <= (bottom - top) * (right - left)
    return np.bincount(owner[~clean], minlength=len(specimens)) > 0, unordered


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Check every invariant of a dataset; pure and idempotent.

    Returns a report listing each violation with the offending specimen and
    field. An empty report means the dataset is accepted by every downstream
    operation's structural preconditions.
    """
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    suspect, unordered = _frame_flags(dataset.specimens)
    for i, record in enumerate(dataset.specimens):
        sid = record.specimen_id
        if sid in seen_ids:
            violations.append(Violation(sid, "specimen_id", "duplicate specimen_id"))
        seen_ids.add(sid)
        if len(record.frames) == 0:
            violations.append(Violation(sid, "frames", "no frames"))
        mass = record.dry_mass_ug
        if mass is not None and not mass > 0:
            violations.append(Violation(sid, "dry_mass_ug", f"non-positive mass {mass}"))
        elif mass is not None and not math.isfinite(mass):
            violations.append(Violation(sid, "dry_mass_ug", f"non-finite mass {mass}"))
        for camera in CAMERAS:
            if unordered[camera][i]:
                message = f"camera {camera} indices not strictly increasing"
                violations.append(Violation(sid, "frame_index", message))
        if suspect[i]:
            for row in record.frames.tolist():
                _validate_frame(sid, row, violations)
        stack = dataset.rasters.get(sid)
        if stack is not None:
            expected = (len(record.frames), *(dataset.raster_dims or stack.shape[1:]))
            if stack.shape != expected:
                message = f"raster stack of shape {stack.shape}, expected {expected}"
                violations.append(Violation(sid, "rasters", message))
    return ValidationReport(tuple(violations))
