import numpy as np
import pytest

from sinkmass.errors import TooFewFrames
from sinkmass.features import (
    compute_features,
    mean_area,
    sinking_speed,
)
from sinkmass.records import SpecimenRecord, frame_table

from conftest import make_frame, make_specimen


def frames_with_tops(tops, camera="A"):
    return [make_frame(camera, i, top) for i, top in enumerate(tops)]


def speed_of_tops(tops):
    return sinking_speed(frame_table(frames_with_tops(tops)))


class TestSinkingSpeed:
    def test_direct_arithmetic(self):
        tops = [320 - i * 8 for i in range(40)]
        tops[-1] = 0
        assert speed_of_tops(tops) == 8.0

    def test_zero_displacement(self):
        assert speed_of_tops([100] * 10) == 0.0

    def test_single_frame_raises(self):
        with pytest.raises(TooFewFrames) as err:
            speed_of_tops([100])
        assert err.value.n == 1

    def test_translation_invariance(self):
        tops = [300, 260, 210, 150]
        shifted = [t + 57 for t in tops]
        assert speed_of_tops(tops) == speed_of_tops(shifted)

    def test_linear_scaling(self):
        tops = [300, 260, 210, 150]
        doubled = [2 * t for t in tops]
        assert speed_of_tops(doubled) == 2 * speed_of_tops(tops)

    def test_floating_specimen_has_negative_speed(self):
        assert speed_of_tops([100, 150, 200]) < 0


class TestMeanArea:
    def test_simple_mean(self):
        frames = [make_frame(index=i, area=a) for i, a in enumerate([100, 200, 300])]
        assert mean_area(frame_table(frames)) == 200.0

    def test_single_frame(self):
        assert mean_area(frame_table([make_frame(area=42)])) == 42.0

    def test_zero_areas(self):
        frames = [make_frame(index=i, area=0.0) for i in range(2)]
        assert mean_area(frame_table(frames)) == 0.0

    def test_sums_left_to_right_not_pairwise(self):
        # areas whose np.mean differs from the sequential sum in the last bit
        areas = [138.19, 156.261, 408.971, 55.039, 304.049, 366.995, 102.072, 37.022, 144.735,
                 332.142]
        sequential = sum(areas) / len(areas)
        assert np.mean(areas) != sequential
        frames = [make_frame("AB"[i % 2], i // 2, area=a) for i, a in enumerate(areas)]
        record = SpecimenRecord("s1", "t", 1.0, frame_table(frames))
        assert mean_area(record.frames) == sequential
        assert compute_features(record).mean_area_px == sequential

    def test_permutation_invariant(self):
        frames = [make_frame(index=i, area=a) for i, a in enumerate([5, 9, 1, 7])]
        assert mean_area(frame_table(frames)) == mean_area(frame_table(reversed(frames)))


class TestComputeFeatures:
    def test_pseudo_mass_is_exact_product(self):
        record = make_specimen(tops=(320, 240, 160, 80), area=50.0)
        feats = compute_features(record)
        assert feats.pseudo_mass == feats.mean_area_px * feats.image_count
        assert feats.image_count == 4  # reference camera count, not total

    def test_reference_camera_is_a(self):
        frames = frame_table(
            frames_with_tops([300, 200], "A") + frames_with_tops([300, 100], "B")
        )
        record = SpecimenRecord("s1", "t", 1.0, frames)
        assert compute_features(record).sinking_speed == 50.0

    def test_falls_back_to_b_when_a_short(self):
        frames = frame_table(
            frames_with_tops([300], "A") + frames_with_tops([300, 100], "B")
        )
        record = SpecimenRecord("s1", "t", 1.0, frames)
        feats = compute_features(record)
        assert feats.sinking_speed == 100.0
        assert feats.image_count == 2

    def test_speed_absent_when_both_cameras_short(self):
        frames = frame_table(frames_with_tops([300], "A") + frames_with_tops([250], "B"))
        record = SpecimenRecord("s1", "t", 1.0, frames)
        feats = compute_features(record)
        assert feats.sinking_speed is None
        assert feats.image_count == 1

    def test_mean_area_pools_both_cameras(self):
        frames = frame_table([
            make_frame("A", 0, 300, area=10.0),
            make_frame("A", 1, 200, area=20.0),
            make_frame("B", 0, 300, area=60.0),
            make_frame("B", 1, 200, area=70.0),
        ])
        record = SpecimenRecord("s1", "t", 1.0, frames)
        assert compute_features(record).mean_area_px == 40.0
