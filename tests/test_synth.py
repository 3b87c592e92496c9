import numpy as np
import pytest

from sinkmass.errors import InvalidConfig, SilhouetteTooLarge
from sinkmass.linear import FeatureSpec, fit_ols, build_rows
from sinkmass.records import FRAME_DTYPE, validate_dataset
from sinkmass.synth import (
    MASS_COEFF,
    GroupSpec,
    SynthConfig,
    _ellipse_raster,
    generate,
    rasterize_specimen,
)


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
        raster = _ellipse_raster(100.0, (32, 32), aspect=1.5, angle=0.3, jitter=(1, -1))
        dark = int((raster < 128).sum())
        assert 98 <= dark <= 102

    def test_equal_area_different_density_can_look_identical(self):
        a = _ellipse_raster(80.0, (32, 32), aspect=1.5, angle=0.0, jitter=(0, 0))
        b = _ellipse_raster(80.0, (32, 32), aspect=1.5, angle=0.0, jitter=(0, 0))
        assert np.array_equal(a, b)

    def test_too_large_area_rejected(self):
        with pytest.raises(SilhouetteTooLarge):
            _ellipse_raster(1100.0, (32, 32), aspect=1.2, angle=0.0, jitter=(0, 0))

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
