import numpy as np
import pytest

from sinkmass.records import Dataset, SpecimenRecord, frame_table


def make_frame(camera="A", index=0, top=100, box=20, area=50.0):
    """One frame-table row: (camera_id, frame_index, top, bottom, left, right, area_px)."""
    return (camera, index, top, top + box, 5, 5 + box, area)


def make_specimen(sid="s1", taxon="groupA", mass=100.0, tops=(320, 240, 160, 80), area=50.0):
    """Descending-position two-camera specimen with equal frame counts."""
    frames = []
    for camera in ("A", "B"):
        for i, top in enumerate(tops):
            frames.append(make_frame(camera, i, top, area=area))
    return SpecimenRecord(
        specimen_id=sid, taxon=taxon, dry_mass_ug=mass, frames=frame_table(frames)
    )


@pytest.fixture
def small_dataset():
    specimens = tuple(
        make_specimen(sid=f"s{i}", taxon="groupA" if i % 2 == 0 else "groupB", mass=50.0 + i)
        for i in range(10)
    )
    return Dataset(name="small", specimens=specimens)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
