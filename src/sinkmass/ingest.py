"""Parse sequence-metadata files and silhouette rasters into a Dataset.

File formats (the imaging device's native output is proprietary; users
export to this schema):

* Frame CSV: header ``camera_id,frame_index,top,bottom,left,right,area_px``,
  LF line endings, decimal point ``.``. ``camera_id`` is ``A`` or ``B``,
  ``frame_index`` a non-negative integer, the four borders integers (both
  within the ``int64`` range) and ``area_px`` a finite number (``nan`` and
  ``inf`` are rejected).
  Whitespace around the header and around each field is ignored, so a file
  with CRLF line endings parses too. ``assemble_dataset`` parses the files in
  batches, and one by one where a batch fails, so that errors are unchanged.
* Manifest: JSON array of objects with keys ``specimen_id``, ``taxon``,
  ``dry_mass_ug`` (nullable), ``metadata_csv``, ``raster_dir`` (nullable).
  Paths are resolved relative to the manifest file.
* Rasters: binary PGM (P5), maxval 255, one square image per frame named
  ``<camera_id>_<frame_index>.pgm`` (``raster_names``). ``assemble_dataset``
  stacks a specimen's rasters, mirror-padded to one size, into one ``uint8``
  array with a row per frame in frame-CSV order. It reads every file in one
  unbuffered ``os.read``, at half a buffered ``open()``'s cost per file.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_json
from .errors import (
    DimensionMismatch,
    EmptyFile,
    InputError,
    MalformedRow,
    NonSquareRaster,
    PadTooLarge,
    RasterLargerThanTarget,
    UnsupportedFormat,
)
from .records import CAMERAS, FRAME_DTYPE, Dataset, SpecimenRecord, frame_table

FRAME_CSV_HEADER = "camera_id,frame_index,top,bottom,left,right,area_px"
_HEADER_LINE = (FRAME_CSV_HEADER + "\n").encode()
BATCH_BYTES = 64 * 1024  # assemble_dataset parses frame CSVs in batches of at least this many bytes


@dataclass(frozen=True)
class ManifestEntry:
    specimen_id: str
    taxon: str
    dry_mass_ug: float | None
    metadata_csv: str
    raster_dir: str | None = None


def parse_frame_csv(payload: bytes) -> np.ndarray:
    """Decode a frame-metadata CSV into a read-only frame table, preserving
    order: with one ``np.loadtxt`` when the columns pass, else with
    ``parse_frame_rows``, which gives the same table or raises."""
    table = _parse_columns(payload)
    return parse_frame_rows(payload) if table is None else table


# loadtxt reads two camera characters, so that no longer field is cut to a
# valid camera. Control characters other than whitespace go to the rows: the
# U dtype drops trailing NULs, and loadtxt strips \x1c-\x1f, which int() and
# float() reject.
_LOADTXT_DTYPE = np.dtype([("camera_id", "U2"), *FRAME_DTYPE.descr[1:]])
_CONTROL = bytes([*range(0x00, 0x09), *range(0x0E, 0x20)])


def _parse_columns(payload: bytes) -> np.ndarray | None:
    """The frame table of a UTF-8 payload with the header, data lines that
    loadtxt reads without error or warning, one row per line (it skips blank
    lines), cameras A or B, no negative frame_index and finite areas; None
    for any other payload."""
    if len(payload.translate(None, _CONTROL)) != len(payload):
        return None
    try:  # a UnicodeDecodeError is a ValueError
        lines = payload.decode("utf-8").removesuffix("\n").split("\n")
        if len(lines) < 2 or lines[0].strip() != FRAME_CSV_HEADER:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = np.loadtxt(lines[1:], _LOADTXT_DTYPE, delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    if not (
        len(raw) == len(lines) - 1
        and set(raw["camera_id"].tolist()) <= set(CAMERAS)
        and raw["frame_index"].min() >= 0
        and np.isfinite(raw["area_px"]).all()
    ):
        return None
    table = raw.astype(FRAME_DTYPE)
    table.flags.writeable = False
    return table


def parse_frame_rows(payload: bytes) -> np.ndarray:
    """``parse_frame_csv`` one row at a time, for every spelling ``int()``
    and ``float()`` accept. Raises MalformedRow(line_no) on a bad header,
    wrong arity, an unknown camera, a non-numeric field, a negative
    frame_index, a non-finite area_px or an integer outside int64, and
    EmptyFile without data rows. Gaps in frame_index are permitted here."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = payload.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(line_no, f"not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].strip() != FRAME_CSV_HEADER:
        raise MalformedRow(1, f"expected header {FRAME_CSV_HEADER!r}")
    rows = []
    for offset, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            camera_id, frame_index, top, bottom, left, right, area_px = parts
        except ValueError:
            raise MalformedRow(offset, f"expected 7 fields, got {len(parts)}") from None
        camera_id = camera_id.strip()
        if camera_id not in CAMERAS:
            raise MalformedRow(offset, f"unknown camera_id {camera_id!r}")
        try:
            ints = [int(frame_index), int(top), int(bottom), int(left), int(right)]
            area_px = float(area_px)
        except ValueError as exc:
            raise MalformedRow(offset, str(exc)) from None
        if ints[0] < 0:
            raise MalformedRow(offset, f"negative frame_index {ints[0]}")
        if not math.isfinite(area_px):
            raise MalformedRow(offset, f"non-finite area_px {area_px}")
        for name, value in zip(FRAME_DTYPE.names[1:], ints):
            if not -(2**63) <= value < 2**63:
                raise MalformedRow(offset, f"{name} {value} outside the int64 range")
        rows.append((camera_id, *ints, area_px))
    if not rows:
        raise EmptyFile("no data rows")
    return frame_table(rows)


def serialize_frame_csv(frames: np.ndarray) -> bytes:
    """Inverse of parse_frame_csv; for frames with finite areas the round
    trip is the identity."""
    rows = (",".join([row[0], *map(repr, row[1:])]) for row in frames.tolist())
    lines = [FRAME_CSV_HEADER, *rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def raster_names(frames: np.ndarray) -> list[str]:
    """The PGM file name of each frame's silhouette in its specimen's raster_dir."""
    cameras, indices = frames["camera_id"].tolist(), frames["frame_index"].tolist()
    return [f"{camera}_{index}.pgm" for camera, index in zip(cameras, indices)]


# four tokens after whitespace and "#" comments, which the lookahead ends at "\n" or the end
_PGM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?:\s|\Z))" * 4)


def _pgm_tokens(payload: bytes) -> tuple[tuple[bytes, ...], int]:
    """The four header tokens, comments skipped, and the offset one past the
    whitespace byte that ends the last token (or past the payload's end)."""
    if (match := _PGM_HEADER.match(payload)) is None:
        raise UnsupportedFormat("truncated PGM header")
    return match.groups(), match.end(4) + 1


def load_raster(payload: bytes) -> np.ndarray:
    """Decode a binary PGM (P5, maxval 255) into a (height, width) uint8 array.

    Non-P5 magic or a maxval other than 255 raises UnsupportedFormat;
    non-square images raise NonSquareRaster.
    """
    if len(payload) < 2 or payload[:2] != b"P5":
        raise UnsupportedFormat("not a binary PGM (P5) payload")
    tokens, offset = _pgm_tokens(payload)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise UnsupportedFormat("non-numeric PGM header field") from None
    if maxval != 255:
        raise UnsupportedFormat(f"maxval {maxval} not supported, expected 255")
    if width <= 0 or height <= 0:
        raise UnsupportedFormat(f"bad dimensions {width}x{height}")
    if height != width:
        raise NonSquareRaster(f"{width}x{height} raster; square input required")
    body = payload[offset : offset + height * width]
    if len(body) != height * width:
        raise UnsupportedFormat(
            f"payload holds {len(body)} pixels, header promises {height * width}"
        )
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width).copy()


def save_raster(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.astype(np.uint8, copy=False).tobytes()


def pad_mirror(pixels: np.ndarray, pad: int) -> np.ndarray:
    """Grow a raster by ``pad`` pixels on all four sides with inclusive
    reflection (the edge row/column is duplicated).

    The interior pixel multiset is preserved and the operation is
    deterministic; pad=0 returns the input unchanged.
    """
    if pad < 0:
        raise PadTooLarge(f"negative pad {pad}")
    if pad == 0:
        return pixels
    height, width = pixels.shape
    if pad >= min(height, width):
        raise PadTooLarge(f"pad {pad} too large for {height}x{width} raster")
    return np.pad(pixels, pad, mode="symmetric")


def load_manifest(path: Path | str) -> list[ManifestEntry]:
    """Read a manifest JSON array of unique specimen ids; paths become absolute
    relative to it."""
    path = Path(path)
    raw = read_json(path, "manifest")
    if not isinstance(raw, list):
        raise InputError("manifest must be a JSON array")
    base = path.parent
    prefix = "" if base == Path() else os.path.join(base, "")  # Path(".") / "a" is "a"

    def join(rel) -> str:  # str(base / rel), joined as strings where pathlib would not normalise
        plain = isinstance(rel, str) and not {"", "."} & set(rel.split("/"))
        return prefix + rel if plain else str(base / rel)
    entries, ids = [], set()
    for i, obj in enumerate(raw):
        try:
            mass = obj["dry_mass_ug"]
            for key in ("specimen_id", "taxon"):
                if not isinstance(obj[key], str):
                    raise TypeError(f"{key} must be a string, not {type(obj[key]).__name__}")
            if obj["specimen_id"] in ids:
                raise ValueError(f"duplicate specimen_id {obj['specimen_id']!r}")
            ids.add(obj["specimen_id"])
            if isinstance(mass, bool) or not isinstance(mass, (int, float, type(None))):
                raise TypeError(f"dry_mass_ug must be a number or null, not {type(mass).__name__}")
            if mass is not None and not math.isfinite(mass):
                raise ValueError(f"dry_mass_ug must be finite, got {mass}")
            entries.append(
                ManifestEntry(
                    specimen_id=obj["specimen_id"],
                    taxon=obj["taxon"],
                    dry_mass_ug=None if mass is None else float(mass),
                    metadata_csv=join(obj["metadata_csv"]),
                    raster_dir=None if obj.get("raster_dir") is None else join(obj["raster_dir"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"manifest entry {i}: {exc}") from None
    return entries


def _pad_to_target(pixels: np.ndarray, target: tuple[int, int], ref: str) -> np.ndarray:
    (h, w), (th, tw) = pixels.shape, target
    if h > th or w > tw:
        raise RasterLargerThanTarget(f"{ref}: raster {h}x{w} exceeds target {th}x{tw}")
    dh, dw = th - h, tw - w
    if dh != dw or dh % 2 != 0:
        raise DimensionMismatch(
            f"{ref}: cannot mirror-pad {h}x{w} to {th}x{tw} symmetrically"
        )
    return pad_mirror(pixels, dh // 2)


def _read_file(path: str) -> bytes:
    """A file's bytes, as ``open(path, "rb").read()`` gives them or raises."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, size := os.fstat(fd).st_size + 1)
        while chunk := os.read(fd, size):  # the file grew since fstat
            data += chunk
        return data
    except OSError as exc:  # os.read leaves the path out, e.g. for a directory
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)


def _frame_tables(manifest: list[ManifestEntry]):
    """(entry, frame table) for each entry, in order; errors surface in that order too."""
    batch, size = [], 0
    for i, entry in enumerate(manifest, 1):
        try:
            payload = _read_file(entry.metadata_csv)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            yield from _parse_batch(batch)
            raise InputError(f"{entry.specimen_id}: cannot read {entry.metadata_csv}: {exc}") from None
        batch.append((entry, payload))
        size += len(payload)
        if size >= BATCH_BYTES or i == len(manifest):
            yield from _parse_batch(batch)
            batch, size = [], 0


def _parse_batch(batch: list[tuple[ManifestEntry, bytes]]):
    """(entry, frame table) for each (entry, payload), in order. Payloads with the
    exact header line, a data line and a final newline share one parse of their data
    lines, cut into views by line count (a line gives one row or the parse raises);
    any other payload, or all if that parse raised, is parsed alone when reached."""
    data = [p[len(_HEADER_LINE):] if p.startswith(_HEADER_LINE) else b"" for _, p in batch]
    joined = [d for d in data if d.endswith(b"\n")]
    try:  # with nothing joined, the lone header raises EmptyFile
        table = parse_frame_csv(_HEADER_LINE + b"".join(joined))
        views = iter(np.split(table, np.cumsum([d.count(b"\n") for d in joined])[:-1]))
    except InputError:
        views = iter(())
    for (entry, payload), d in zip(batch, data):
        frames = next(views, None) if d.endswith(b"\n") else None
        if frames is None:
            try:
                frames = parse_frame_csv(payload)
            except InputError as exc:
                exc.args = (f"{entry.specimen_id}: {exc}",)
                raise exc from None
        yield entry, frames


def assemble_dataset(
    manifest: list[ManifestEntry],
    name: str = "dataset",
    raster_dims: tuple[int, int] | None = None,
) -> Dataset:
    """Build an in-memory Dataset from manifest entries.

    Rasters smaller than ``raster_dims`` are mirror-padded up to it on load;
    larger ones are rejected. When ``raster_dims`` is None it is inferred as
    the largest raster dimensions present. Parse errors are re-raised, type
    and fields intact, with the offending specimen_id prefixed to the message.
    """
    specimens: list[SpecimenRecord] = []
    pending: list[tuple[SpecimenRecord, list[np.ndarray]]] = []
    inferred: tuple[int, int] | None = None

    for entry, frames in _frame_tables(manifest):
        record = SpecimenRecord(entry.specimen_id, entry.taxon, entry.dry_mass_ug, frames)
        specimens.append(record)
        if entry.raster_dir is None:
            continue
        rasters = []
        # Path(".") / name is "name", so "." joins as ""
        raster_dir = "" if entry.raster_dir == "." else entry.raster_dir
        for file_name in raster_names(frames):
            fpath = os.path.join(raster_dir, file_name)
            try:
                raster = load_raster(_read_file(fpath))
            except (OSError, ValueError) as exc:
                raise InputError(f"{entry.specimen_id}: cannot read {fpath}: {exc}") from None
            except InputError as exc:
                exc.args = (f"{entry.specimen_id}/{file_name}: {exc}",)
                raise exc from None
            rasters.append(raster)
            if inferred is None or raster.shape[0] > inferred[0]:
                inferred = raster.shape
        pending.append((record, rasters))

    target = raster_dims if raster_dims is not None else inferred
    stacks: dict[str, np.ndarray] = {}
    for record, rasters in pending:
        sid = record.specimen_id
        stacks[sid] = np.stack([
            raster if raster.shape == target else _pad_to_target(raster, target, f"{sid}/{file_name}")
            for file_name, raster in zip(raster_names(record.frames), rasters)
        ])
        rasters.clear()
    return Dataset(
        name=name,
        specimens=tuple(specimens),
        raster_dims=target,
        rasters=stacks,
    )
