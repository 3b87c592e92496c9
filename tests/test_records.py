import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkmass.records import (
    CAMERAS,
    FRAME_DTYPE,
    Dataset,
    PredictionEntry,
    PredictionSet,
    SpecimenRecord,
    Violation,
    _validate_frame,
    frame_table,
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
        bad = ("A", 0, 100, 50, 0, 10, 1.0)
        ds = Dataset("bad", (SpecimenRecord("s1", "t", 1.0, frame_table([bad])),))
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
        frame = ("A", 0, 0, 10, 0, 10, 101.0)
        ds = Dataset("big", (SpecimenRecord("s1", "t", 1.0, frame_table([frame])),))
        assert any(v.field == "area_px" for v in validate_dataset(ds).violations)

    def test_non_increasing_frame_index_reported(self):
        frames = frame_table([make_frame(index=1), make_frame(index=0)])
        ds = Dataset("order", (SpecimenRecord("s1", "t", 1.0, frames),))
        assert any(v.field == "frame_index" for v in validate_dataset(ds).violations)

    def test_inference_only_record_is_legal(self):
        record = SpecimenRecord("s1", "t", None, frame_table([make_frame()]))
        assert validate_dataset(Dataset("inf", (record,))).ok

    def test_non_positive_mass_reported(self):
        record = SpecimenRecord("s1", "t", 0.0, frame_table([make_frame()]))
        assert any(
            v.field == "dry_mass_ug" for v in validate_dataset(Dataset("z", (record,))).violations
        )

    def test_infinite_mass_reported(self):
        ds = Dataset("z", (SpecimenRecord("s1", "t", float("inf"), frame_table([make_frame()])),))
        assert [(v.field, v.message) for v in validate_dataset(ds).violations] == [
            ("dry_mass_ug", "non-finite mass inf")
        ]

    def test_empty_frames_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, frame_table([]))
        assert any(v.field == "frames" for v in validate_dataset(Dataset("e", (record,))).violations)

    @pytest.mark.parametrize("area", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_area_reported(self, area):
        ds = Dataset("nf", (SpecimenRecord("s1", "t", 1.0, frame_table([make_frame(area=area)])),))
        assert [(v.field, v.message) for v in validate_dataset(ds).violations] == [
            ("area_px", f"non-finite area {area}")
        ]

    def test_idempotent_and_pure(self):
        ds = Dataset("ok", (make_specimen(),))
        first = validate_dataset(ds)
        second = validate_dataset(ds)
        assert first == second

    def test_stack_not_aligned_with_frames_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, frame_table([make_frame()]))
        ds = Dataset("mis", (record,), rasters={"s1": np.zeros((2, 3, 3), dtype=np.uint8)})
        assert [(v.specimen_id, v.field) for v in validate_dataset(ds).violations] == [
            ("s1", "rasters")
        ]

    def test_raster_shape_mismatch_reported(self):
        record = SpecimenRecord("s1", "t", 1.0, frame_table([make_frame()]))
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


INT64 = st.integers(-(2**63), 2**63 - 1)
COORD = st.one_of(st.integers(-40, 40), st.sampled_from([2**25 - 1, 2**25, -(2**25)]), INT64)
FRAME_ROWS = st.tuples(
    st.sampled_from(["A", "B", "C"]), st.one_of(st.integers(-1, 4), INT64), COORD, COORD, COORD,
    COORD, st.one_of(st.integers(-1, 6400).map(float), st.floats()),
)


def row_walk_violations(sid, frames):
    """The frame-level violations of a table, found one row at a time."""
    out = []
    rows = frames.tolist()
    for camera in CAMERAS:
        indices = [row[1] for row in rows if row[0] == camera]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            message = f"camera {camera} indices not strictly increasing"
            out.append(Violation(sid, "frame_index", message))
    for row in rows:
        _validate_frame(sid, row, out)
    return out


class TestValidateOnColumns:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(FRAME_ROWS, max_size=6), min_size=1, max_size=4))
    # the box 2**60 + 129 rounds up to this area as a float64
    @example([[("A", 0, 0, 1, 0, 2**60 + 129, float(2**60 + 256))]])
    # camera A's indices fall across the two specimens, not within either
    @example([[("A", 5, 0, 1, 0, 1, 1.0)], [("A", 0, 0, 1, 0, 1, 1.0)]])
    def test_columns_report_what_the_row_walk_reports(self, tables):
        records = tuple(
            SpecimenRecord(f"s{i}", "t", 1.0, frame_table(rows)) for i, rows in enumerate(tables)
        )
        expected = []
        for record in records:
            if not len(record.frames):
                expected.append(Violation(record.specimen_id, "frames", "no frames"))
            expected += row_walk_violations(record.specimen_id, record.frames)
        assert list(validate_dataset(Dataset("d", records)).violations) == expected


class TestFrameTable:
    def test_rows_fill_the_named_fields_in_order(self):
        (row,) = frame_table([make_frame(index=3)])
        assert row.dtype == FRAME_DTYPE
        assert row.tolist() == ("A", 3, 100, 120, 5, 25, 50.0)

    def test_writing_to_a_table_raises(self):
        table = make_specimen().frames
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table["top"][0] = 0

    def test_records_compare_by_identity(self):
        a, b = make_specimen(), make_specimen()
        assert a == a and a != b


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
