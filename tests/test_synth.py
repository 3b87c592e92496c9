import math
import warnings

import numpy as np
import pytest

from sinkmass import synth
from sinkmass.errors import InvalidConfig, SilhouetteTooLarge
from sinkmass.linear import FeatureSpec, fit_ols, build_rows
from sinkmass.records import CAMERAS, FRAME_DTYPE, validate_dataset
from sinkmass.rng import substream
from sinkmass.synth import (
    CENTER_JITTER_PX,
    MASS_COEFF,
    GroupSpec,
    SynthConfig,
    _ellipse_stack,
    _most_central,
    generate,
    rasterize_specimen,
)


def reference_raster(area_px, dims, aspect, angle, jitter):
    """One frame painted on its own: the round(area_px) pixels first in a
    stable argsort of their elliptical radii. The oracle for the stack painter."""
    h, w = dims
    target = int(round(area_px))
    if target > h * w:
        raise SilhouetteTooLarge(f"area {area_px} exceeds {h}x{w} raster capacity")
    a = math.sqrt(area_px * aspect / math.pi)
    b = math.sqrt(area_px / (math.pi * aspect))
    cy = (h - 1) / 2.0 + jitter[0]
    cx = (w - 1) / 2.0 + jitter[1]
    if a + CENTER_JITTER_PX + 1 > min(h, w) / 2.0:
        raise SilhouetteTooLarge(
            f"ellipse with area {area_px} and aspect {aspect} does not fit in {h}x{w}"
        )
    dy = (np.arange(h) - cy)[:, None]
    dx = np.arange(w) - cx
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    u = (dx * cos_t + dy * sin_t) / a
    v = (-dx * sin_t + dy * cos_t) / b
    metric = (u * u + v * v).ravel()
    order = np.argsort(metric, kind="stable")
    pixels = np.full(h * w, 255, dtype=np.uint8)
    pixels[order[:target]] = 0
    return pixels.reshape(h, w)


def random_frames(rng, side, count, aspect_range=(1.0, 2.2)):
    """``count`` painter frames that fit a ``side``-square raster. Aspect 1.0,
    an angle of 0 or pi/2 and the half-integer centres of an even side give
    exact metric ties; areas under 0.5 paint nothing."""
    frames = []
    for _ in range(count):
        aspect = float(rng.choice([1.0, 1.5, rng.uniform(*aspect_range)]))
        angle = float(rng.choice([0.0, math.pi / 2, rng.uniform(0.0, math.pi)]))
        # just under the largest area whose major semi-axis fits
        fit = 0.999 * math.pi * (side / 2.0 - CENTER_JITTER_PX - 1) ** 2 / aspect
        area = float(rng.choice([0.3, rng.integers(1, max(fit, 2)), rng.uniform(0.0, fit)]))
        jitter = tuple(int(j) for j in rng.integers(-CENTER_JITTER_PX, CENTER_JITTER_PX + 1, 2))
        frames.append((area, aspect, angle, jitter))
    return frames


def same_specimens(a, b):
    """Whether two datasets hold the same specimens: ids, taxa, masses and
    frame tables."""
    return len(a.specimens) == len(b.specimens) and all(
        (r.specimen_id, r.taxon, r.dry_mass_ug) == (s.specimen_id, s.taxon, s.dry_mass_ug)
        and np.array_equal(r.frames, s.frames)
        for r, s in zip(a.specimens, b.specimens)
    )


def two_group_config(**overrides):
    base = dict(
        groups=(
            GroupSpec("light", (1.2, 1.4), (2.1, 0.25), 40),
            GroupSpec("dense", (2.6, 3.2), (2.1, 0.25), 40),
        ),
        area_noise_cv=0.05,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_dataset_passes_validation(self):
        dataset, _ = generate(two_group_config())
        assert dataset.rasters == {}
        assert validate_dataset(dataset).ok

    def test_mass_is_exact_density_volume_product(self):
        dataset, truth = generate(two_group_config())
        for record in dataset.specimens:
            entry = truth.entries[record.specimen_id]
            assert entry.mass == entry.density * MASS_COEFF * entry.volume
            assert record.dry_mass_ug == entry.mass

    def test_deterministic_per_seed(self):
        a, _ = generate(two_group_config())
        b, _ = generate(two_group_config())
        assert same_specimens(a, b)

    def test_seed_changes_output(self):
        a, _ = generate(two_group_config())
        b, _ = generate(two_group_config(seed=8))
        assert not same_specimens(a, b)

    def test_frame_tables_are_read_only(self):
        dataset, _ = generate(two_group_config())
        frames = dataset.specimens[0].frames
        assert frames.dtype == FRAME_DTYPE and not frames.flags.writeable
        with pytest.raises(ValueError):
            frames["top"][0] = 0

    def test_doubling_excess_density_halves_frame_count(self):
        # same size everywhere; excess density (rho - 1) doubles between groups
        config = SynthConfig(
            groups=(
                GroupSpec("slow", (1.5, 1.5), (2.0, 0.0), 5),
                GroupSpec("fast", (2.0, 2.0), (2.0, 0.0), 5),
            ),
            area_noise_cv=0.0,
            seed=1,
        )
        dataset, _ = generate(config)
        slow_n = [len(s.frames_for("A")) for s in dataset.specimens if s.taxon == "slow"]
        fast_n = [len(s.frames_for("A")) for s in dataset.specimens if s.taxon == "fast"]
        assert abs(slow_n[0] - 2 * fast_n[0]) <= 1

    def test_recovered_speed_within_discretization_error(self):
        dataset, truth = generate(two_group_config())
        table = dataset.features
        checked = 0
        for record in dataset.specimens:
            feats = table[record.specimen_id]
            entry = truth.entries[record.specimen_id]
            if feats.sinking_speed is None or entry.true_speed <= 0:
                continue
            n = feats.image_count
            # measured speed spans n-1 inter-frame gaps divided by n, plus
            # integer rounding of the two endpoint positions
            tolerance = entry.true_speed / n + 1.0 / n
            assert abs(feats.sinking_speed - entry.true_speed) <= tolerance + 1e-9
            checked += 1
        assert checked >= 70

    def test_zero_noise_gives_constant_areas(self):
        dataset, _ = generate(two_group_config(area_noise_cv=0.0))
        for record in dataset.specimens:
            areas = set(record.frames["area_px"].tolist())
            assert len(areas) == 1

    @pytest.mark.parametrize("seed", [7, 19, 101])
    def test_area_and_speed_beat_area_alone_in_sample(self, seed):
        # disjoint density ranges with overlapping areas: the speed column
        # must strictly reduce the in-sample residual sum of squares
        dataset, _ = generate(two_group_config(seed=seed))
        table = dataset.features
        records = [s for s in dataset.specimens if table[s.specimen_id].sinking_speed is not None]
        assert len(records) >= 50

        def rss(feature_spec):
            rows = build_rows(records, table, feature_spec)
            model = fit_ols(rows)
            x, y = rows[:, :-1], rows[:, -1]
            fitted = model.intercept + x @ np.array(model.coefficients)
            return float(np.sum((y - fitted) ** 2))

        assert rss(FeatureSpec.AREA_PLUS_SPEED) < rss(FeatureSpec.AREA_ONLY)

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(groups=()).validate()
        with pytest.raises(InvalidConfig):
            two_group_config(cuvette_height_px=0).validate()
        with pytest.raises(InvalidConfig):
            SynthConfig(
                groups=(GroupSpec("g", (0.0, 1.0), (2.0, 0.1), 3),)
            ).validate()

    @pytest.mark.parametrize("dims", [(16, 20), (0, 0), (-16, -16), (16,)])
    def test_raster_dims_must_be_two_equal_positive_sides(self, dims):
        with pytest.raises(InvalidConfig, match="raster_dims must be two equal positive sides"):
            two_group_config(raster_dims=dims).validate()


class TestRasterize:
    def test_thresholded_pixel_count_matches_area(self):
        raster = _ellipse_stack((32, 32), [(100.0, 1.5, 0.3, (1, -1))])[0]
        dark = int((raster < 128).sum())
        assert 98 <= dark <= 102

    def test_equal_area_different_density_can_look_identical(self):
        a = _ellipse_stack((32, 32), [(80.0, 1.5, 0.0, (0, 0))])[0]
        b = _ellipse_stack((32, 32), [(80.0, 1.5, 0.0, (0, 0))])[0]
        assert np.array_equal(a, b)

    def test_too_large_area_rejected(self):
        with pytest.raises(SilhouetteTooLarge):
            _ellipse_stack((32, 32), [(1100.0, 1.2, 0.0, (0, 0))])

    def test_rasterize_specimen_counts_match_frame_areas(self):
        config = two_group_config(raster_dims=(32, 32))
        dataset, _ = generate(config)
        record = dataset.specimens[0]
        rasters = rasterize_specimen(record, (32, 32), seed=config.seed)
        assert rasters.shape == (len(record.frames), 32, 32)
        assert np.array_equal(rasters, dataset.rasters[record.specimen_id])
        for area, raster in zip(record.frames["area_px"].tolist(), rasters):
            dark = int((raster < 128).sum())
            assert abs(dark - area) <= max(0.02 * area, 0.51)

    def test_generate_fills_raster_store(self):
        config = SynthConfig(
            groups=(GroupSpec("g", (1.3, 1.6), (2.0, 0.2), 6),),
            raster_dims=(32, 32),
            seed=3,
        )
        dataset, _ = generate(config)
        assert set(dataset.rasters) == {s.specimen_id for s in dataset.specimens}
        for record in dataset.specimens:
            stack = dataset.rasters[record.specimen_id]
            assert stack.shape == (len(record.frames), 32, 32)
            assert stack.dtype == np.uint8
        assert validate_dataset(dataset).ok


class TestStackPainter:
    """The stack painter gives each frame the bits of the per-frame oracle."""

    @staticmethod
    def reference_stack(dims, frames):
        return np.stack([reference_raster(area, dims, aspect, angle, jitter)
                         for area, aspect, angle, jitter in frames])

    @pytest.mark.parametrize("side", [8, 16, 17, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_stack_equals_per_frame_painter(self, side, seed):
        frames = random_frames(np.random.default_rng([seed, side]), side, 40)
        stack = _ellipse_stack((side, side), frames)
        assert stack.dtype == np.uint8 and stack.shape == (40, side, side)
        assert np.array_equal(stack, self.reference_stack((side, side), frames))

    def test_exact_ties_take_the_lower_index(self):
        # a circle about a half-integer centre: mirrored pixels tie exactly,
        # so an odd area splits a tied pair
        frames = [(float(area), 1.0, 0.0, (0, 0)) for area in range(1, 60, 2)]
        stack = _ellipse_stack((16, 16), frames)
        assert np.array_equal(stack, self.reference_stack((16, 16), frames))
        assert [int((row == 0).sum()) for row in stack] == list(range(1, 60, 2))

    def test_area_that_rounds_to_zero_paints_nothing(self):
        frames = [(0.3, 1.5, 0.2, (0, 0)), (0.0, 1.0, 0.0, (1, 1)), (2.0, 1.0, 0.0, (0, 0))]
        with np.errstate(divide="ignore", invalid="ignore"):  # area 0 has zero semi-axes
            stack = _ellipse_stack((8, 8), frames)
            reference = self.reference_stack((8, 8), frames)
        assert np.array_equal(stack, reference)
        assert (stack[:2] == 255).all() and int((stack[2] == 0).sum()) == 2

    def test_frames_clamped_to_zero_area_paint_without_a_warning(self):
        # large area noise clamps some frames' areas to 0, whose semi-axes are 0
        group = GroupSpec("light", (1.3, 1.5), (1.6, 0.12), 12, aspect_range=(1.2, 1.5))
        config = SynthConfig(groups=(group,), dt=8.0, n_max=6, area_noise_cv=0.6,
                             raster_dims=(16, 16), seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset, _ = generate(config)
        assert any((s.frames["area_px"] == 0).any() for s in dataset.specimens)
        jitter = (-CENTER_JITTER_PX, CENTER_JITTER_PX + 1)
        for record in dataset.specimens:  # rasterize_specimen's draws, in its order
            rng = substream(config.seed, "rasterize", record.specimen_id)
            aspects = {camera: rng.uniform(*group.aspect_range) for camera in CAMERAS}
            frames = [(area, aspects[camera], rng.uniform(0.0, math.pi),
                       (int(rng.integers(*jitter)), int(rng.integers(*jitter))))
                      for camera, area in record.frames[["camera_id", "area_px"]].tolist()]
            with np.errstate(divide="ignore", invalid="ignore"):  # the oracle divides by 0
                reference = self.reference_stack((16, 16), frames)
            assert np.array_equal(dataset.rasters[record.specimen_id], reference)

    def test_empty_frame_list_gives_an_empty_stack(self):
        assert _ellipse_stack((8, 8), []).shape == (0, 8, 8)

    @pytest.mark.parametrize("n", [1, 2, 4, 64])
    def test_rows_take_their_target_smallest_like_a_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        # few distinct values, so most rows hold ties at their cut
        metric = rng.integers(0, 6, (30, n)).astype(float)
        target = rng.integers(0, n + 1, 30)
        target[:2] = 0, n
        dark = _most_central(metric, target)
        for row, t, mask in zip(metric, target, dark):
            expected = np.zeros(n, dtype=bool)
            expected[np.argsort(row, kind="stable")[:t]] = True
            assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("frames_per_chunk", [1, 3, 7])
    @pytest.mark.parametrize("count", [1, 6, 7, 8, 22])
    def test_chunks_stay_under_the_cap(self, monkeypatch, frames_per_chunk, count):
        side = 12
        cap = frames_per_chunk * side * side + side  # not a whole number of frames
        monkeypatch.setattr(synth, "PAINT_CHUNK_PIXELS", cap)
        chunks = []

        def spy(metric, target):
            chunks.append(metric.size)
            return _most_central(metric, target)

        monkeypatch.setattr(synth, "_most_central", spy)
        frames = random_frames(np.random.default_rng(count), side, count)
        stack = _ellipse_stack((side, side), frames)
        assert np.array_equal(stack, self.reference_stack((side, side), frames))
        assert max(chunks) <= cap and sum(chunks) == count * side * side
        assert len(chunks) == -(-count // frames_per_chunk)

    def test_a_frame_larger_than_the_cap_is_painted_alone(self, monkeypatch):
        monkeypatch.setattr(synth, "PAINT_CHUNK_PIXELS", 10)
        frames = random_frames(np.random.default_rng(5), 16, 3)
        assert np.array_equal(_ellipse_stack((16, 16), frames),
                              self.reference_stack((16, 16), frames))

    @pytest.mark.parametrize(
        "bad",
        [(300.0, 1.0, 0.0, (0, 0)), (60.0, 2.0, 0.0, (0, 0)), (1e6, 1.0, 0.0, (0, 0))],
        ids=["over_capacity", "does_not_fit", "both"],
    )
    def test_first_failing_frame_raises_the_per_frame_message(self, bad):
        """Capacity is checked before fit, and frame by frame: a later frame
        that fails the other check is not reached."""
        good = (20.0, 1.2, 0.5, (1, 0))
        later = (400.0, 3.0, 0.0, (0, 0))
        with pytest.raises(SilhouetteTooLarge) as expected:
            reference_raster(bad[0], (16, 16), *bad[1:])
        with pytest.raises(SilhouetteTooLarge) as err:
            _ellipse_stack((16, 16), [good, good, bad, later])
        assert str(err.value) == str(expected.value)
        assert ("capacity" in str(err.value)) == (bad[0] > 256)
