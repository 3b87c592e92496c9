import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkmass.errors import (
    DimensionMismatch,
    EmptyFile,
    InputError,
    MalformedRow,
    NonSquareRaster,
    PadTooLarge,
    RasterLargerThanTarget,
    UnsupportedFormat,
)
from sinkmass.ingest import (
    assemble_dataset,
    load_manifest,
    load_raster,
    pad_mirror,
    parse_frame_csv,
    save_raster,
    serialize_frame_csv,
)
from sinkmass.records import CAMERAS, FrameMeta, validate_dataset

HEADER = b"camera_id,frame_index,top,bottom,left,right,area_px\n"

FRAMES = st.builds(
    FrameMeta,
    camera_id=st.sampled_from(CAMERAS),
    frame_index=st.integers(min_value=0),
    top=st.integers(),
    bottom=st.integers(),
    left=st.integers(),
    right=st.integers(),
    area_px=st.floats(allow_nan=False),
)


class TestParseFrameCsv:
    def test_direct_parse(self):
        frames = parse_frame_csv(HEADER + b"A,0,10,100,5,95,2500\n")
        assert frames == [FrameMeta("A", 0, 10, 100, 5, 95, 2500.0)]

    def test_header_only_raises_empty_file(self):
        with pytest.raises(EmptyFile):
            parse_frame_csv(HEADER)

    def test_non_numeric_field_names_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(HEADER + b"A,0,10,abc,5,95,1\n")
        assert err.value.line_no == 2

    def test_wrong_arity_names_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(HEADER + b"A,0,10,100,5,95,1\nA,1,2,3\n")
        assert err.value.line_no == 3

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(b"camera,top\nA,1\n")
        assert err.value.line_no == 1

    def test_unknown_camera_rejected(self):
        with pytest.raises(MalformedRow):
            parse_frame_csv(HEADER + b"C,0,10,100,5,95,1\n")

    def test_frame_index_gaps_permitted(self):
        frames = parse_frame_csv(HEADER + b"A,0,10,20,0,10,1\nA,7,5,15,0,10,1\n")
        assert [f.frame_index for f in frames] == [0, 7]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FRAMES, min_size=1, max_size=40))
    def test_round_trip_identity(self, frames):
        assert parse_frame_csv(serialize_frame_csv(frames)) == frames


def make_pgm(width, height, values, maxval=255, magic=b"P5"):
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    return header + bytes(values)


class TestLoadRaster:
    def test_direct_decode(self):
        raster = load_raster(make_pgm(2, 2, [0, 255, 128, 64]))
        assert raster.dtype == np.uint8
        assert raster.tolist() == [[0, 255], [128, 64]]

    def test_ascii_pgm_rejected(self):
        with pytest.raises(UnsupportedFormat):
            load_raster(b"P3\n2 2\n255\n0 1 2 3\n")

    def test_16bit_pgm_rejected(self):
        with pytest.raises(UnsupportedFormat):
            load_raster(make_pgm(2, 2, [0] * 8, maxval=65535))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareRaster):
            load_raster(make_pgm(3, 2, [0] * 6))

    def test_truncated_body_rejected(self):
        with pytest.raises(UnsupportedFormat):
            load_raster(make_pgm(2, 2, [0, 1, 2]))

    def test_comment_lines_skipped(self):
        payload = b"P5\n# a comment\n2 2\n255\n" + bytes([9, 8, 7, 6])
        assert load_raster(payload).tolist() == [[9, 8], [7, 6]]

    def test_save_load_round_trip(self, rng):
        pixels = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        assert np.array_equal(load_raster(save_raster(pixels)), pixels)


class TestPadMirror:
    def test_448_to_464(self):
        padded = pad_mirror(np.zeros((448, 448), dtype=np.uint8), 8)
        assert padded.shape == (464, 464)

    def test_pad_zero_is_identity(self, rng):
        pixels = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        assert pad_mirror(pixels, 0) is pixels

    def test_pad_too_large(self):
        with pytest.raises(PadTooLarge):
            pad_mirror(np.zeros((1, 1), dtype=np.uint8), 1)

    def test_inclusive_reflection_duplicates_edge(self):
        pixels = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        padded = pad_mirror(pixels, 1)
        assert padded.tolist() == [
            [1, 1, 2, 2],
            [1, 1, 2, 2],
            [3, 3, 4, 4],
            [3, 3, 4, 4],
        ]

    def test_interior_multiset_preserved_and_deterministic(self, rng):
        pixels = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
        a = pad_mirror(pixels, 3)
        b = pad_mirror(pixels, 3)
        assert np.array_equal(a, b)
        assert np.array_equal(a[3:-3, 3:-3], pixels)


class TestAssembleDataset:
    def _write_specimen(self, tmp_path, sid, rows, raster=None, dims=4):
        csv_path = tmp_path / f"{sid}.csv"
        csv_path.write_bytes(HEADER + rows)
        raster_dir = None
        if raster is not None:
            raster_dir = f"rasters_{sid}"
            rdir = tmp_path / raster_dir
            rdir.mkdir()
            (rdir / "A_0.pgm").write_bytes(raster)
        return {
            "specimen_id": sid,
            "taxon": "t",
            "dry_mass_ug": 12.5,
            "metadata_csv": f"{sid}.csv",
            "raster_dir": raster_dir,
        }

    def test_two_entries_assemble(self, tmp_path):
        entries = [
            self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,5\n"),
            self._write_specimen(tmp_path, "s2", b"B,0,30,40,0,10,5\n"),
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(entries))
        dataset = assemble_dataset(load_manifest(manifest), name="two")
        assert len(dataset.specimens) == 2
        assert validate_dataset(dataset).ok

    def test_missing_csv_names_specimen(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                [
                    {
                        "specimen_id": "ghost",
                        "taxon": "t",
                        "dry_mass_ug": 1.0,
                        "metadata_csv": "absent.csv",
                        "raster_dir": None,
                    }
                ]
            )
        )
        with pytest.raises(InputError, match="ghost"):
            assemble_dataset(load_manifest(manifest))

    def test_small_raster_padded_to_target(self, tmp_path):
        pgm = make_pgm(2, 2, [1, 2, 3, 4])
        entry = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,4\n", raster=pgm)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        dataset = assemble_dataset(load_manifest(manifest), raster_dims=(4, 4))
        assert dataset.raster_dims == (4, 4)
        assert dataset.rasters["s1/A_0.pgm"].shape == (4, 4)

    def test_larger_raster_rejected(self, tmp_path):
        pgm = make_pgm(4, 4, list(range(16)))
        entry = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,4\n", raster=pgm)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        with pytest.raises(RasterLargerThanTarget):
            assemble_dataset(load_manifest(manifest), raster_dims=(2, 2))

    def test_odd_padding_gap_rejected(self, tmp_path):
        pgm = make_pgm(3, 3, list(range(9)))
        entry = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,4\n", raster=pgm)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        with pytest.raises(DimensionMismatch):
            assemble_dataset(load_manifest(manifest), raster_dims=(4, 4))
