import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkmass import ingest
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
    parse_frame_rows,
    save_raster,
    serialize_frame_csv,
)
from sinkmass.records import CAMERAS, FRAME_DTYPE, frame_table, validate_dataset

HEADER = b"camera_id,frame_index,top,bottom,left,right,area_px\n"

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FRAME_INDEX = st.integers(min_value=0, max_value=2**63 - 1)
FRAMES = st.tuples(
    st.sampled_from(CAMERAS),
    FRAME_INDEX,
    INT64,
    INT64,
    INT64,
    INT64,
    st.floats(allow_nan=False, allow_infinity=False),
)

# Letters only, without i, n and e, so that no draw spells inf, nan or an exponent.
NOT_A_NUMBER = st.text(alphabet="abcdfghjklmopqrstuvwxyz", min_size=1, max_size=4)


@st.composite
def corrupted_csv(draw):
    """A valid frame CSV with exactly one data row corrupted, and the line
    number the parser must name for it."""
    frames = draw(st.lists(FRAMES, min_size=1, max_size=20))
    lines = serialize_frame_csv(frame_table(frames)).split(b"\n")[:-1]
    row = draw(st.integers(1, len(frames)))
    line_no = row + 1
    fields = lines[row].split(b",")
    kind = draw(
        st.sampled_from(
            ["arity", "non_numeric", "camera", "negative_index", "non_finite_area", "not_utf8"]
        )
    )
    if kind == "arity":
        fields = (fields * 2)[: draw(st.integers(1, 12).filter(lambda n: n != 7))]
    elif kind == "non_numeric":
        fields[draw(st.integers(1, 6))] = draw(NOT_A_NUMBER).encode()
    elif kind == "camera":
        camera = st.text("ABCab ", max_size=3).filter(lambda c: c.strip() not in CAMERAS)
        fields[0] = draw(camera).encode()
    elif kind == "negative_index":
        fields[1] = b"%d" % draw(st.integers(max_value=-1))
    elif kind == "non_finite_area":
        fields[6] = draw(st.sampled_from([b"nan", b"-nan", b"inf", b"-inf", b"Infinity", b"1e999"]))
    else:
        fields[draw(st.integers(0, 6))] += draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"]))
    lines[row] = b",".join(fields)
    return b"\n".join(lines) + b"\n", line_no


def assert_same_table(got, expected):
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


ODD_PADS = st.sampled_from([" ", "\t", "\x0c", "\x0b", "\u3000", "\x85", "\x1c", "\x1f", "\x01"])
ODD_CAMERAS = st.sampled_from([" A ", "B\t", "C", "", "AB", "a", "A\x00", "\x00B"])
ODD_INTS = st.sampled_from([
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "+7", "-3", "-0", "07", "1_0",
    "\u0663", "\uff17", "1.0", "1e3", "", "x",
])
ODD_FLOATS = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e-400", "1_0.5", "+1.5", ".5",
    "5.", "\u0661.\u0665", "1e0_1", "0x1p3", "1e", "", "-0.0",
])
ODD_LINE_ENDS = st.sampled_from(["\r\n", "\r", "\n\n", "\r\r\n", "\n\x00"])


@st.composite
def hostile_csv(draw):
    """A frame CSV in which a drawn share of the fields and line ends is
    spelled oddly: padding, signs, underscores, non-ASCII digits, non-finite
    and out-of-range numbers, control characters, NULs, wrong arity, lone
    CRs, CRLFs, blank lines and a missing final newline."""
    odd_percent = draw(st.sampled_from([0, 2, 10, 50]))

    def pick(plain, odd):
        return draw(odd if draw(st.integers(0, 99)) < odd_percent else plain)

    def field(plain, odd):
        return pick(st.just(""), ODD_PADS) + pick(plain, odd) + pick(st.just(""), ODD_PADS)

    header = "camera_id,frame_index,top,bottom,left,right,area_px"
    text = pick(st.just(header), st.sampled_from([header + "\r", " " + header, header[1:]]))
    for _ in range(draw(st.integers(0, 6))):
        fields = [
            field(st.sampled_from(CAMERAS), ODD_CAMERAS),
            field(FRAME_INDEX.map(str), ODD_INTS),
            *(field(INT64.map(str), ODD_INTS) for _ in range(4)),
            field(st.floats(allow_nan=False, allow_infinity=False).map(repr), ODD_FLOATS),
        ]
        arity = pick(st.just(7), st.sampled_from([6, 8]))
        fields = (fields + ["1"])[:arity]
        text += pick(st.just("\n"), ODD_LINE_ENDS) + ",".join(fields)
    text += pick(st.just("\n"), st.sampled_from(["\r\n", ""]))
    return text.encode("utf-8")


def parse_outcome(parse, payload):
    """What ``parse`` does with ``payload``: the table's dtype and bytes, or
    the error's type, line number and message."""
    try:
        table = parse(payload)
    except MalformedRow as exc:
        return "MalformedRow", exc.line_no, str(exc)
    except EmptyFile as exc:
        return "EmptyFile", str(exc)
    return table.dtype, table.tobytes()


class TestParseFrameCsv:
    def test_direct_parse(self):
        frames = parse_frame_csv(HEADER + b"A,0,10,100,5,95,2500\n")
        assert frames.dtype == FRAME_DTYPE
        assert frames.tolist() == [("A", 0, 10, 100, 5, 95, 2500.0)]

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
        assert frames["frame_index"].tolist() == [0, 7]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FRAMES, min_size=1, max_size=40))
    def test_round_trip_identity(self, frames):
        table = frame_table(frames)
        assert_same_table(parse_frame_csv(serialize_frame_csv(table)), table)

    @pytest.mark.parametrize("area", [b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"1e999"])
    def test_non_finite_area_rejected(self, area):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(HEADER + b"A,0,10,20,0,10,1\nA,1,10,20,0,10," + area + b"\n")
        assert err.value.line_no == 3
        assert "non-finite area_px" in str(err.value)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (b"A,0,10,100,5,95,1\nA,1,2,3\n", "line 3: expected 7 fields, got 4"),
            (b"A,0,10,100,5,95,1,9\n", "line 2: expected 7 fields, got 8"),
            (b"C,0,10,100,5,95,1\n", "line 2: unknown camera_id 'C'"),
            (b"A,0,10,abc,5,95,1\n", "line 2: invalid literal for int() with base 10: 'abc'"),
            (b"A,x,10,abc,5,95,1\n", "line 2: invalid literal for int() with base 10: 'x'"),
            (b"A,0,10,100,5,95,z\n", "line 2: could not convert string to float: 'z'"),
            (b"A,-3,10,100,5,95,1\n", "line 2: negative frame_index -3"),
            (b"A,0,10,100,5,95,1\n\n", "line 3: expected 7 fields, got 1"),
            (
                b"A,0,10,100,5,95,1\nA,1,10,100,5,95,\xff\n",
                "line 3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 86: "
                "invalid start byte",
            ),
            (
                b"\xff,0,10,100,5,95,1\n",
                "line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 52: "
                "invalid start byte",
            ),
        ],
    )
    def test_error_messages(self, rows, message):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(HEADER + rows)
        assert str(err.value) == message

    def test_bad_byte_in_header_is_line_1(self):
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(b"\xff" + HEADER + b"A,0,10,100,5,95,1\n")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("line", [b"B,3,10,100,5,95,7\r\n", b" B ,3,1_0,100,5,95,7\n"])
    def test_both_paths_give_the_frame_dtype(self, line):
        frames = parse_frame_csv(HEADER + line)
        assert frames.dtype == FRAME_DTYPE
        assert frames.tolist() == [("B", 3, 10, 100, 5, 95, 7.0)]

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b""])
    def test_plain_file_is_read_without_the_row_parser(self, monkeypatch, ending):
        monkeypatch.setattr(ingest, "parse_frame_rows", None)
        frames = parse_frame_csv(HEADER + b"A,0,10,100,5,95,7\nB,0,10,100,-5,95,7.5" + ending)
        assert frames["left"].tolist() == [5, -5]

    @pytest.mark.parametrize("line", [b"A,0,10,100,5,95,7\n", b"A ,0,10,100,5,95,7\n"])
    def test_tables_are_read_only(self, line):
        frames = parse_frame_csv(HEADER + line)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames["area_px"][0] = 1.0

    @pytest.mark.parametrize("column", range(1, 6))
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_integer_outside_int64_names_its_line(self, column, value):
        fields = [b"A", b"1", b"10", b"100", b"5", b"95", b"7"]
        fields[column] = b"%d" % value
        if value < 0 and column == 1:
            message = f"line 3: negative frame_index {value}"
        else:
            message = f"line 3: {FRAME_DTYPE.names[column]} {value} outside the int64 range"
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(HEADER + b"A,0,10,100,5,95,7\n" + b",".join(fields) + b"\n")
        assert err.value.line_no == 3
        assert str(err.value) == message

    @settings(max_examples=400, deadline=None)
    @given(hostile_csv())
    @example(HEADER + b"A\x00,0,1,2,3,4,5.0\n")  # the U dtype drops trailing NULs
    @example(HEADER + b"A,0,1,2,3,4,5.0\x1c\n")  # loadtxt strips \x1c, float() does not
    @example(HEADER + b"A,0,1,2,3,4,5.0\n\nB,0,1,2,3,4,5.0\n")  # loadtxt skips blank lines
    @example(HEADER + b"A,0,1,2,3,4,5.0\rB,0,1,2,3,4,5.0\n")
    def test_columns_agree_with_the_row_parser(self, payload):
        assert parse_outcome(parse_frame_csv, payload) == parse_outcome(parse_frame_rows, payload)

    @settings(max_examples=300, deadline=None)
    @given(corrupted_csv())
    def test_one_corrupted_row_names_its_line(self, case):
        payload, line_no = case
        with pytest.raises(MalformedRow) as err:
            parse_frame_csv(payload)
        assert err.value.line_no == line_no


def make_pgm(width, height, values, maxval=255, magic=b"P5"):
    header = magic + b"\n%d %d\n%d\n" % (width, height, maxval)
    return header + bytes(values)


PGMS = st.integers(1, 6).flatmap(
    lambda n: st.binary(min_size=n * n, max_size=n * n).map(
        lambda body: save_raster(np.frombuffer(body, dtype=np.uint8).reshape(n, n))
    )
)
PGM_HEADER_BYTES = list(b"P5 \t\n#+-0123456789")


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

    @settings(max_examples=200, deadline=None)
    @given(PGMS, st.data())
    def test_truncated_pgm_raises_input_error(self, payload, data):
        cut = data.draw(st.integers(0, len(payload) - 1))
        with pytest.raises(InputError):
            load_raster(payload[:cut])

    @settings(max_examples=300, deadline=None)
    @given(PGMS, st.data())
    def test_garbled_pgm_raises_only_input_errors(self, payload, data):
        garbled = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 4))):
            # mostly the header, where a changed byte can still parse
            i = data.draw(st.integers(0, min(len(garbled), 16) - 1))
            garbled[i] = data.draw(st.sampled_from(PGM_HEADER_BYTES) | st.integers(0, 255))
        try:
            raster = load_raster(bytes(garbled))
        except InputError:
            return
        assert raster.dtype == np.uint8
        assert raster.ndim == 2 and raster.shape[0] == raster.shape[1]


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
        assert dataset.rasters == {}
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

    def test_malformed_row_keeps_its_line_after_naming_the_specimen(self, tmp_path):
        entry = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,5\nA,1,2,3\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        with pytest.raises(MalformedRow) as err:
            assemble_dataset(load_manifest(manifest))
        assert err.value.line_no == 3
        assert str(err.value) == "s1: line 3: expected 7 fields, got 4"

    @pytest.mark.parametrize(
        ("rows", "raster", "error", "message"),
        [
            (b"", None, EmptyFile, "s1: no data rows"),
            (
                b"A,0,10,20,0,10,\xff\n", None, MalformedRow,
                "s1: line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 67: "
                "invalid start byte",
            ),
            (
                b"A,0,10,20,0,10,4\n", make_pgm(2, 3, range(6)), NonSquareRaster,
                "s1/A_0.pgm: 2x3 raster; square input required",
            ),
            (
                b"A,0,10,20,0,10,4\n", make_pgm(2, 2, range(4), magic=b"P2"), UnsupportedFormat,
                "s1/A_0.pgm: not a binary PGM (P5) payload",
            ),
        ],
        ids=["empty_csv", "csv_not_utf8", "non_square_raster", "ascii_raster"],
    )
    def test_parse_error_keeps_its_type_and_names_the_specimen(
        self, tmp_path, rows, raster, error, message
    ):
        entry = self._write_specimen(tmp_path, "s1", rows, raster=raster)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        with pytest.raises(error) as err:
            assemble_dataset(load_manifest(manifest))
        assert type(err.value) is error
        assert str(err.value) == message

    @pytest.mark.parametrize("s2_csv", ["s2.csv", "absent.csv"], ids=["malformed", "missing"])
    def test_raster_error_comes_before_the_next_specimens_csv_error(self, tmp_path, s2_csv):
        """s1's rasters are read before s2's frame CSV is parsed or found
        missing, although both CSVs fall in one batch."""
        s1 = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,5\n", raster=b"")
        (tmp_path / "rasters_s1" / "A_0.pgm").unlink()
        s2 = self._write_specimen(tmp_path, "s2", b"A,0,10,20,0,10,5\nA,1,2,3\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([s1, {**s2, "metadata_csv": s2_csv}]))
        with pytest.raises(InputError) as err:
            assemble_dataset(load_manifest(manifest))
        assert type(err.value) is InputError
        assert str(err.value).startswith(f"s1: cannot read {tmp_path / 'rasters_s1' / 'A_0.pgm'}: ")

    def test_small_raster_padded_to_target(self, tmp_path):
        pgm = make_pgm(2, 2, [1, 2, 3, 4])
        entry = self._write_specimen(tmp_path, "s1", b"A,0,10,20,0,10,4\n", raster=pgm)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([entry]))
        dataset = assemble_dataset(load_manifest(manifest), raster_dims=(4, 4))
        assert dataset.raster_dims == (4, 4)
        assert dataset.rasters["s1"].shape == (1, 4, 4)
        assert dataset.rasters["s1"].dtype == np.uint8
        assert np.array_equal(
            dataset.rasters["s1"][0], pad_mirror(np.array([[1, 2], [3, 4]], dtype=np.uint8), 1)
        )

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


PLAIN_CSV = st.lists(FRAMES, min_size=1, max_size=8).map(lambda f: serialize_frame_csv(frame_table(f)))
LONE_CR_CSV = HEADER + b"A,0,1,2,3,4,5.0\rB,0,1,2,3,4,5.0\n"
BLANK_LINE_CSV = HEADER + b"A,0,1,2,3,4,5.0\n\nB,0,1,2,3,4,5.0\n"


def assemble_payloads(payloads):
    """``assemble_dataset`` over a manifest of specimens s0, s1, ... whose
    frame CSVs hold ``payloads``: each frame table's dtype and bytes, or the
    error's type, line number and message."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        entries = []
        for i, payload in enumerate(payloads):
            (base / f"s{i}.csv").write_bytes(payload)
            entries.append({**MANIFEST_ENTRY, "specimen_id": f"s{i}", "metadata_csv": f"s{i}.csv"})
        (base / "manifest.json").write_text(json.dumps(entries))
        try:
            dataset = assemble_dataset(load_manifest(base / "manifest.json"))
        except InputError as exc:
            return type(exc), getattr(exc, "line_no", None), str(exc)
    assert not any(s.frames.flags.writeable for s in dataset.specimens)
    return [(s.frames.dtype, s.frames.tobytes()) for s in dataset.specimens]


def parse_each(payloads):
    """What ``assemble_payloads`` gives when each file is parsed on its own."""
    tables = []
    for i, payload in enumerate(payloads):
        try:
            tables.append(parse_frame_csv(payload))
        except InputError as exc:
            return type(exc), getattr(exc, "line_no", None), f"s{i}: {exc}"
    return [(t.dtype, t.tobytes()) for t in tables]


class TestBatchedFrameCsvs:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(PLAIN_CSV | hostile_csv() | corrupted_csv().map(lambda case: case[0]),
                 min_size=1, max_size=6),
        st.sampled_from([1, 200, 1000, ingest.BATCH_BYTES]),
    )
    @example([LONE_CR_CSV, BLANK_LINE_CSV], ingest.BATCH_BYTES)
    @example([BLANK_LINE_CSV, LONE_CR_CSV], ingest.BATCH_BYTES)
    # no final newline: joined, the two bad lines would make one good row
    @example([HEADER + b"A,0,1,2,3,4,", HEADER + b"5.0\nB,0,1,2,3,4,5.0\n"], ingest.BATCH_BYTES)
    def test_batches_agree_with_parsing_each_file(self, payloads, batch_bytes):
        """Same tables as a per-file parse, or the same first error; a lone
        CR (one line that loadtxt could read as two rows) next to a blank
        line (one that gives no row) must not shift the files' boundaries."""
        with mock.patch.object(ingest, "BATCH_BYTES", batch_bytes):
            assert assemble_payloads(payloads) == parse_each(payloads)

    def test_plain_manifest_is_parsed_in_batches(self, monkeypatch):
        payloads = [
            serialize_frame_csv(frame_table([("A", i, 300, 320, 5, 25, 50.5), ("B", 0, 9, 19, 0, 9, 7.0)]))
            for i in range(40)
        ]
        calls = []
        parse = ingest.parse_frame_csv

        def counted(payload):
            calls.append(len(payload))
            return parse(payload)

        def never(payload):
            raise AssertionError("a plain manifest reached the row parser")

        monkeypatch.setattr(ingest, "parse_frame_csv", counted)
        monkeypatch.setattr(ingest, "parse_frame_rows", never)
        tables = assemble_payloads(payloads)
        assert len(calls) < 40
        assert tables == [(t.dtype, t.tobytes()) for t in map(parse, payloads)]


MANIFEST_ENTRY = {
    "specimen_id": "s1",
    "taxon": "t",
    "dry_mass_ug": 12.5,
    "metadata_csv": "s1.csv",
    "raster_dir": None,
}
# Any JSON value; no "/" in strings, so a drawn path stays under the test's directory.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestManifest:
    @staticmethod
    def _assemble(manifest_text):
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            (base / "s1.csv").write_bytes(HEADER + b"A,0,10,20,0,10,5\n")
            (base / "manifest.json").write_text(manifest_text)
            return assemble_dataset(load_manifest(base / "manifest.json"))

    def test_valid_entry_assembles(self):
        assert self._assemble(json.dumps([MANIFEST_ENTRY])).specimens[0].dry_mass_ug == 12.5

    @pytest.mark.parametrize("key", ["specimen_id", "taxon", "dry_mass_ug", "metadata_csv"])
    def test_missing_required_key_raises_input_error(self, key):
        entry = {k: v for k, v in MANIFEST_ENTRY.items() if k != key}
        with pytest.raises(InputError, match=f"manifest entry 0: '{key}'"):
            self._assemble(json.dumps([entry]))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(MANIFEST_ENTRY)), JSON_VALUES)
    def test_mistyped_value_raises_only_input_errors(self, key, value):
        text = json.dumps([{**MANIFEST_ENTRY, key: value}])
        if key in ("specimen_id", "taxon"):
            mistyped = not isinstance(value, str)
        else:
            mistyped = key == "dry_mass_ug" and (
                isinstance(value, bool) or not isinstance(value, (int, float, type(None)))
            )
        if mistyped:
            with pytest.raises(InputError, match=f"manifest entry 0: {key} must be"):
                self._assemble(text)
            return
        try:
            self._assemble(text)
        except InputError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    def test_entry_that_is_not_an_object_raises_input_error(self, value):
        with pytest.raises(InputError, match="manifest entry 0"):
            self._assemble(json.dumps([value]))
        if not isinstance(value, list):
            with pytest.raises(InputError, match="must be a JSON array"):
                self._assemble(json.dumps(value))

    @pytest.mark.parametrize("mass", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_mass_raises_input_error(self, mass):
        text = json.dumps([MANIFEST_ENTRY]).replace("12.5", mass)
        with pytest.raises(InputError, match="manifest entry 0: dry_mass_ug must be finite"):
            self._assemble(text)

    def test_duplicate_specimen_id_raises_input_error(self):
        entries = [{**MANIFEST_ENTRY, "specimen_id": f"s{i}"} for i in range(8)]
        entries[7]["specimen_id"] = "s0"
        with pytest.raises(InputError) as info:
            self._assemble(json.dumps(entries))
        assert str(info.value) == "manifest entry 7: duplicate specimen_id 's0'"

    def test_overlong_integer_literal_raises_input_error(self):
        text = json.dumps([MANIFEST_ENTRY]).replace("12.5", "1" * 5000)
        with pytest.raises(InputError, match="cannot read manifest"):
            self._assemble(text)


class TestManifestPaths:
    """Manifest paths are joined as strings, but name what pathlib would: the
    same entry paths and, when a file cannot be read, the same message."""

    CSV_SPELLINGS = [
        "s1.csv", "./s1.csv", ".//s1.csv", "sub/../s1.csv", "sub//../s1.csv", "sub/./../s1.csv",
        "missing.csv", "./missing.csv", "sub/", "sub//", "sub/.", "", ".", "./", "s1.csv/",
    ]
    RASTER_SPELLINGS = ["r", "r/", "./r", "r//", "r/.", "sub/../r", ".", "", "./", "missing"]

    @pytest.fixture(params=["cwd", "dot", "relative", "absolute"])
    def manifest(self, request, tmp_path, monkeypatch):
        """Where the manifest lies and how it is named: in the working
        directory, as ``./manifest.json``, under a relative directory, or by
        an absolute path."""
        base = tmp_path / "data"
        (base / "sub").mkdir(parents=True)
        (base / "r").mkdir()
        (base / "s1.csv").write_bytes(HEADER + b"A,0,10,20,0,10,5\n")
        (base / "b.csv").write_bytes(HEADER + b"B,0,10,20,0,10,5\n")  # no B_0.pgm anywhere
        for folder in (base, base / "r"):
            (folder / "A_0.pgm").write_bytes(make_pgm(2, 2, range(4)))
        monkeypatch.chdir(base if request.param in ("cwd", "dot") else tmp_path)
        return {
            "cwd": "manifest.json",
            "dot": "./manifest.json",
            "relative": "data/manifest.json",
            "absolute": str(base / "manifest.json"),
        }[request.param]

    @staticmethod
    def _outcome(manifest, entry):
        """The error message of assembling a one-entry manifest, or None."""
        Path(manifest).write_text(json.dumps([{**MANIFEST_ENTRY, **entry}]))
        try:
            assemble_dataset(load_manifest(manifest))
        except InputError as exc:
            return str(exc)
        return None

    def test_csv_paths_match_pathlib(self, manifest):
        for rel in self.CSV_SPELLINGS:
            expected = Path(manifest).parent / rel
            Path(manifest).write_text(json.dumps([{**MANIFEST_ENTRY, "metadata_csv": rel}]))
            assert load_manifest(manifest)[0].metadata_csv == str(expected), rel
            try:
                expected.read_bytes()
                message = None
            except OSError as exc:
                message = f"s1: cannot read {expected}: {exc}"
            assert self._outcome(manifest, {"metadata_csv": rel}) == message, rel

    @pytest.mark.parametrize("csv", ["s1.csv", "b.csv"])
    def test_raster_dirs_match_pathlib(self, manifest, csv):
        for rel in self.RASTER_SPELLINGS:
            expected = Path(manifest).parent / rel
            Path(manifest).write_text(json.dumps([{**MANIFEST_ENTRY, "raster_dir": rel}]))
            assert load_manifest(manifest)[0].raster_dir == str(expected), rel
            # Path(".") / "A_0.pgm" is "A_0.pgm"
            pgm = expected / ("A_0.pgm" if csv == "s1.csv" else "B_0.pgm")
            message = None if pgm.exists() else (
                f"s1: cannot read {pgm}: [Errno 2] No such file or directory: '{pgm}'"
            )
            assert self._outcome(manifest, {"metadata_csv": csv, "raster_dir": rel}) == message, rel

    @pytest.mark.parametrize("value", [5, 2.5, True, [], {"a": 1}])
    def test_mistyped_path_names_pathlib_type_error(self, manifest, value):
        with pytest.raises(TypeError) as expected:
            Path(manifest).parent / value
        for key in ("metadata_csv", "raster_dir"):
            message = self._outcome(manifest, {key: value})
            assert message == f"manifest entry 0: {expected.value}"
