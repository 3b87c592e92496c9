import numpy as np
import pytest

from sinkmass.records import (
    Dataset,
    FrameMeta,
    PredictionEntry,
    PredictionSet,
    SpecimenRecord,
    validate_dataset,
)

from conftest import make_frame, make_specimen


class TestValidateDataset:
    def test_well_formed_dataset_gives_empty_report(self):
        ds = Dataset("ok", tuple(make_specimen(sid=f"s{i}") for i in range(3)))
        report = validate_dataset(ds)
        assert report.ok
        assert len(report) == 0

    def test_inverted_top_bottom_is_one_violation(self):
        bad = FrameMeta("A", 0, top=100, bottom=50, left=0, right=10, area_px=1.0)
        ds = Dataset("bad", (SpecimenRecord("s1", "t", 1.0, (bad,)),))
        report = validate_dataset(ds)
        assert len(report) == 1
        assert report.violations[0].field == "top"
        assert report.violations[0].specimen_id == "s1"

    def test_duplicate_specimen_id_reported(self):
        ds = Dataset("dup", (make_specimen(sid="s1"), make_specimen(sid="s1")))
        report = validate_dataset(ds)
        dup = [v for v in report.violations if v.field == "specimen_id"]
        assert len(dup) == 1

    def test_area_exceeding_crop_box_reported(self):
        frame = FrameMeta("A", 0, top=0, bottom=10, left=0, right=10, area_px=101.0)
        ds = Dataset("big", (SpecimenRecord("s1", "t", 1.0, (frame,)),))
        assert any(v.field == "area_px" for v in validate_dataset(ds).violations)

    def test_non_increasing_frame_index_reported(self):
        frames = (make_frame(index=1), make_frame(index=0))
        ds = Dataset("order", (SpecimenRecord("s1", "t", 1.0, frames),))
        assert any(v.field == "frame_index" for v in validate_dataset(ds).violations)

    def test_inference_only_record_is_legal(self):
        record = SpecimenRecord("s1", "t", None, (make_frame(),))
        assert validate_dataset(Dataset("inf", (record,))).ok

    def test_non_positive_mass_reported(self):
        record = SpecimenRecord("s1", "t", 0.0, (make_frame(),))
        assert any(
            v.field == "dry_mass_ug" for v in validate_dataset(Dataset("z", (record,))).violations
        )

    def test_infinite_mass_reported(self):
        ds = Dataset("z", (SpecimenRecord("s1", "t", float("inf"), (make_frame(),)),))
        assert [(v.field, v.message) for v in validate_dataset(ds).violations] == [
            ("dry_mass_ug", "non-finite mass inf")
        ]

    def test_empty_frames_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, ())
        assert any(v.field == "frames" for v in validate_dataset(Dataset("e", (record,))).violations)

    @pytest.mark.parametrize("area", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_area_reported(self, area):
        ds = Dataset("nf", (SpecimenRecord("s1", "t", 1.0, (make_frame(area=area),)),))
        assert [(v.field, v.message) for v in validate_dataset(ds).violations] == [
            ("area_px", f"non-finite area {area}")
        ]

    def test_idempotent_and_pure(self):
        ds = Dataset("ok", (make_specimen(),))
        first = validate_dataset(ds)
        second = validate_dataset(ds)
        assert first == second

    def test_stack_not_aligned_with_frames_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, (make_frame(),))
        ds = Dataset("mis", (record,), rasters={"s1": np.zeros((2, 3, 3), dtype=np.uint8)})
        assert [(v.specimen_id, v.field) for v in validate_dataset(ds).violations] == [
            ("s1", "rasters")
        ]

    def test_raster_shape_mismatch_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, (make_frame(),))
        ds = Dataset(
            "shape",
            (record,),
            raster_dims=(4, 4),
            rasters={"s1": np.zeros((1, 3, 3), dtype=np.uint8)},
        )
        assert [(v.specimen_id, v.field) for v in validate_dataset(ds).violations] == [
            ("s1", "rasters")
        ]

    def test_fitting_stack_and_specimen_without_rasters_are_legal(self):
        records = (make_specimen(sid="s1"), make_specimen(sid="s2"))
        stack = np.zeros((len(records[0].frames), 4, 4), dtype=np.uint8)
        ds = Dataset("mixed", records, raster_dims=(4, 4), rasters={"s1": stack})
        assert validate_dataset(ds).ok


class TestFrameMeta:
    def test_keyword_construction_matches_positional(self):
        assert make_frame(index=3) == FrameMeta("A", 3, 100, 120, 5, 25, 50.0)

    def test_assigning_an_attribute_raises(self):
        frame = make_frame()
        with pytest.raises(AttributeError):
            frame.top = 0
        with pytest.raises(AttributeError):
            frame.extra = 0

    def test_equal_frames_hash_equal_and_share_a_dict_key(self):
        # frames compare and hash by value, like the tuples they are
        a, b = make_frame(index=2), make_frame(index=2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "raster"}[b] == "raster"
        assert make_frame(index=3) not in {a: "raster"}


class TestPredictionSet:
    def test_rejects_duplicates(self):
        e = PredictionEntry("s1", "t", 1.0, 2.0)
        with pytest.raises(ValueError):
            PredictionSet((e, e))

    def test_rejects_non_positive_predictions(self):
        with pytest.raises(ValueError):
            PredictionSet((PredictionEntry("s1", "t", 1.0, 0.0),))

    def test_mass_arrays_align_with_entries(self):
        ps = PredictionSet(
            (
                PredictionEntry("s1", "t", 1.0, 2.0),
                PredictionEntry("s2", "t", 3.0, 4.0),
            )
        )
        assert ps.true_masses().tolist() == [1.0, 3.0]
        assert ps.predicted_masses().tolist() == [2.0, 4.0]
