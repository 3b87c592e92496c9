"""Per-specimen predictors computed from sequence metadata.

Sinking speed is the displacement of the crop's top border between the first
and last frame of one camera's sequence divided by the frame count, in
pixels per frame. Border positions decrease as the specimen descends, so
descent yields a positive speed; negative speeds (floating specimens) are
retained because they still carry density information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewFrames
from .records import SpecimenRecord

# Camera used for the speed formula and the image-count convention. If it
# has fewer than two frames we fall back to the other camera; if both fail,
# speed is absent and the specimen remains usable by area-only models.
REFERENCE_CAMERA = "A"
FALLBACK_CAMERA = "B"


@dataclass(frozen=True)
class SpecimenFeatures:
    mean_area_px: float
    image_count: int
    sinking_speed: float | None
    pseudo_mass: float


def sinking_speed(frames: np.ndarray) -> float:
    """Speed in pixels per frame over one camera's sequence.

    Computed as (top border of first frame - top border of last frame) / n.
    Invariant under a uniform shift of all positions; scales linearly with a
    uniform scale of them.
    """
    n = len(frames)
    if n < 2:
        raise TooFewFrames(n)
    tops = frames["top"]
    # Python ints: an int64 difference could wrap
    return (int(tops[0]) - int(tops[-1])) / n


def mean_area(frames: np.ndarray) -> float:
    """Arithmetic mean of area_px over all frames (both cameras), summed left
    to right as Python floats; np.mean's pairwise sum can differ in the last
    bit."""
    if len(frames) == 0:
        raise ValueError("mean_area needs at least one frame")
    return sum(frames["area_px"].tolist()) / len(frames)


def _reference_frames(record: SpecimenRecord) -> np.ndarray:
    primary = record.frames_for(REFERENCE_CAMERA)
    if len(primary) >= 2:
        return primary
    fallback = record.frames_for(FALLBACK_CAMERA)
    if len(fallback) >= 2:
        return fallback
    return primary if len(primary) else fallback


def compute_features(record: SpecimenRecord) -> SpecimenFeatures:
    """Derive SpecimenFeatures from one record.

    ``image_count`` and the speed denominator use the reference camera's
    frame count; ``mean_area`` pools all frames from both cameras.
    ``pseudo_mass`` is exactly mean_area * image_count.
    """
    ref = _reference_frames(record)
    speed = sinking_speed(ref) if len(ref) >= 2 else None
    area = mean_area(record.frames)
    count = len(ref)
    return SpecimenFeatures(
        mean_area_px=area,
        image_count=count,
        sinking_speed=speed,
        pseudo_mass=area * count,
    )
