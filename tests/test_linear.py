import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkmass.config import config_from_dict, config_to_dict
from sinkmass.errors import EmptyInput, InputError, MissingSpeed, RankDeficient, TooFewRows
from sinkmass.features import compute_features
from sinkmass.linear import (
    FeatureSpec,
    LinearModel,
    TargetSpace,
    build_rows,
    fit_ols,
    load_linear_model,
    median,
    predict_per_image,
    predict_specimen,
    save_linear_model,
    target_to_mass,
)
from sinkmass.records import MASS_FLOOR_UG, SpecimenRecord, frame_table

from conftest import make_frame


def normal_equation_fit(x, y):
    """Independent oracle: closed-form (X^T X)^{-1} X^T y with intercept."""
    design = np.column_stack([np.ones(len(y)), x])
    xtx = design.T @ design
    beta = np.linalg.inv(xtx) @ design.T @ y
    return beta


def specimen_with_areas(areas, speed_tops=None):
    tops = speed_tops or [300 - 10 * i for i in range(len(areas))]
    frames = frame_table(
        make_frame("A", i, tops[i], area=a) for i, a in enumerate(areas)
    )
    return SpecimenRecord("s1", "t", 10.0, frames)


class TestFitOls:
    def test_exact_fit_one_feature(self):
        rows = np.array([[a, 2.0 + 3.0 * a] for a in [1.0, 2.0, 5.0, 7.0]])
        model = fit_ols(rows)
        assert model.intercept == pytest.approx(2.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-10)
        assert model.feature_spec is FeatureSpec.AREA_ONLY

    def test_exact_fit_two_features(self):
        rows = np.array([
            [a, s, 1.0 + 2.0 * a + 5.0 * s]
            for a, s in [(1, 1), (2, 3), (4, 2), (5, 7), (3, 0)]
        ])
        model = fit_ols(rows)
        assert model.intercept == pytest.approx(1.0, abs=1e-9)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert model.coefficients[1] == pytest.approx(5.0, abs=1e-9)

    def test_matches_normal_equation_oracle(self, rng):
        for trial in range(100):
            p = 1 + trial % 2
            x = rng.uniform(0, 100, size=(50, p))
            y = rng.uniform(0, 500, size=50)
            model = fit_ols(np.column_stack([x, y]))
            oracle = normal_equation_fit(x, y)
            fitted = np.array([model.intercept, *model.coefficients])
            assert np.allclose(fitted, oracle, rtol=1e-8, atol=1e-10)

    def test_residuals_orthogonal_to_features_and_sum_zero(self, rng):
        x = rng.uniform(0, 10, size=(60, 2))
        y = 3.0 + x @ np.array([2.0, -1.0]) + rng.normal(0, 1, size=60)
        model = fit_ols(np.column_stack([x, y]))
        predictions = model.intercept + x @ np.array(model.coefficients)
        residuals = y - predictions
        scale = np.abs(y).sum()
        assert abs(residuals.sum()) / scale < 1e-8
        for j in range(2):
            assert abs(residuals @ x[:, j]) / (scale * np.abs(x[:, j]).mean()) < 1e-8

    def test_row_permutation_invariance(self, rng):
        rows = np.array([[float(a), float(3 * a + rng.normal())] for a in range(10)])
        shuffled = rows[rng.permutation(len(rows))]
        m1, m2 = fit_ols(rows), fit_ols(shuffled)
        assert m1.intercept == pytest.approx(m2.intercept, rel=1e-12)
        assert m1.coefficients[0] == pytest.approx(m2.coefficients[0], rel=1e-12)

    def test_no_rows(self):
        with pytest.raises(TooFewRows, match="no rows"):
            fit_ols(np.empty((0, 3)))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_ols(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_rank_deficient(self):
        rows = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [3.0, 6.0, 3.0], [4.0, 8.0, 4.0]])
        with pytest.raises(RankDeficient):
            fit_ols(rows)


class TestTargetToMass:
    def test_underflowing_log_value_floored(self):
        assert math.exp(-800.0) == 0.0
        assert target_to_mass(np.array([-800.0]), TargetSpace.LOG).tolist() == [MASS_FLOOR_UG]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=math.log(MASS_FLOOR_UG), max_value=700.0))
    def test_log_value_above_floor_is_exp_bit_for_bit(self, v):
        expected = np.exp(v)
        if expected >= MASS_FLOOR_UG:
            assert target_to_mass(np.array([v]), TargetSpace.LOG)[0] == expected


class TestPredictPerImage:
    def test_identity_coefficients(self):
        model = LinearModel(FeatureSpec.AREA_ONLY, 0.0, (1.0,))
        record = specimen_with_areas([10.0, 20.0, 30.0])
        feats = compute_features(record)
        out = predict_per_image(model, record, feats)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [10.0, 20.0, 30.0]

    def test_negative_prediction_clamped_to_floor(self):
        model = LinearModel(FeatureSpec.AREA_ONLY, -100.0, (1.0,))
        record = specimen_with_areas([10.0])
        feats = compute_features(record)
        assert predict_per_image(model, record, feats).tolist() == [MASS_FLOOR_UG]

    def test_missing_speed_raises(self):
        model = LinearModel(FeatureSpec.AREA_PLUS_SPEED, 0.0, (1.0, 1.0))
        record = specimen_with_areas([10.0])  # single frame, no speed
        feats = compute_features(record)
        assert feats.sinking_speed is None
        with pytest.raises(MissingSpeed):
            predict_per_image(model, record, feats)

    def test_log_space_exponentiates(self):
        model = LinearModel(
            FeatureSpec.AREA_ONLY, 0.0, (1.0,), target_space=TargetSpace.LOG
        )
        record = specimen_with_areas([0.0, 1.0])
        feats = compute_features(record)
        out = predict_per_image(model, record, feats)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(math.e)

    def test_speed_contributes(self):
        model = LinearModel(FeatureSpec.AREA_PLUS_SPEED, 0.0, (1.0, 2.0))
        record = specimen_with_areas([10.0, 10.0], speed_tops=[300, 200])
        feats = compute_features(record)
        assert feats.sinking_speed == 50.0
        assert predict_per_image(model, record, feats).tolist() == [110.0, 110.0]


_VALUES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestTrimmedMedian:
    def test_twenty_values_trims_one_per_end(self):
        values = list(range(1, 21))
        assert median(values) == 10.5

    def test_singleton(self):
        assert median([5]) == 5

    def test_even_count_of_numpy_values_gives_python_float(self):
        result = median(np.array([1.0, 2.0, 4.0, 8.0]))
        assert type(result) is float and result == 3.0

    def test_five_values_no_trim_at_five_percent(self):
        assert median([1, 1, 1, 1, 1000]) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            median([])
        with pytest.raises(EmptyInput):
            median(np.empty(0))

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_list_and_array_give_the_same_float(self, values):
        from_list = median(values)
        from_array = median(np.array(values))
        assert type(from_list) is type(from_array) is float
        assert from_list == from_array

    @settings(max_examples=300, deadline=None)
    @given(st.data(), _VALUES)
    def test_permutation_invariant(self, data, values):
        shuffled = data.draw(st.permutations(values))
        assert median(shuffled) == median(values)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_equals_numpy_median(self, values):
        assert median(values) == float(np.median(values))

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.floats() | st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan]),
            min_size=1, max_size=40,
        ),
        st.integers(0, 40),
    )
    @example([-0.0], 0)
    @example([-0.0, 5.0, -1.0], 1)  # even: the central two are -0.0
    @example([-math.inf, math.inf], 0)
    @example([1e308, 1e308], 0)
    @example([2.0, math.nan, 1.0], 0)
    def test_equals_numpy_median_bit_for_bit(self, values, repeats):
        """Odd and even counts, duplicates (the first ``repeats`` values
        again), signed zeros, infinities and NaN: the same float64 bits as
        np.median, and NaN wherever np.median gives NaN."""
        values = values + values[:repeats]
        with np.errstate(all="ignore"):
            expected = float(np.median(np.array(values)))
        got = median(values)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_lies_between_min_and_max(self, values):
        assert min(values) <= median(values) <= max(values)

    def test_corrupting_max_of_thirty_changes_nothing(self, rng):
        values = list(rng.uniform(10, 20, size=30))
        baseline = median(values)
        corrupted = list(values)
        corrupted[int(np.argmax(corrupted))] *= 100.0
        assert median(corrupted) == baseline


class TestPredictSpecimen:
    def test_constant_areas(self):
        model = LinearModel(FeatureSpec.AREA_ONLY, 0.0, (1.0,))
        record = specimen_with_areas([10.0] * 4)
        assert predict_specimen(model, record, compute_features(record)) == 10.0

    def test_outlier_trimmed(self):
        model = LinearModel(FeatureSpec.AREA_ONLY, 0.0, (1.0,))
        areas = [float(v) for v in range(1, 20)] + [10000.0]
        record = specimen_with_areas(areas)
        assert predict_specimen(model, record, compute_features(record)) == 10.5

    def test_single_frame_returns_clamped_prediction(self):
        model = LinearModel(FeatureSpec.AREA_ONLY, -50.0, (1.0,))
        record = specimen_with_areas([10.0])
        assert predict_specimen(model, record, compute_features(record)) == MASS_FLOOR_UG

    def test_always_positive(self, rng):
        model = LinearModel(FeatureSpec.AREA_ONLY, -1000.0, (0.5,))
        for _ in range(20):
            areas = list(rng.uniform(0, 100, size=5))
            record = specimen_with_areas(areas)
            assert predict_specimen(model, record, compute_features(record)) > 0


class TestBuildRowsAndPersistence:
    def test_per_image_rows_duplicate_target(self):
        record = specimen_with_areas([10.0, 20.0])
        table = {"s1": compute_features(record)}
        rows = build_rows([record], table, FeatureSpec.AREA_ONLY)
        assert rows.dtype == float and rows.shape == (2, 2)
        assert rows.tolist() == [[10.0, 10.0], [20.0, 10.0]]

    def test_per_image_area_speed_rows(self):
        record = specimen_with_areas([10.0, 20.0, 30.0], speed_tops=[300, 270, 240])
        table = {"s1": compute_features(record)}
        rows = build_rows([record], table, FeatureSpec.AREA_PLUS_SPEED)
        assert rows.dtype == float and rows.shape == (3, 3)
        assert rows.tolist() == [[10.0, 20.0, 10.0], [20.0, 20.0, 10.0], [30.0, 20.0, 10.0]]

    def test_specimen_mean_rows(self):
        record = specimen_with_areas([10.0, 20.0])
        table = {"s1": compute_features(record)}
        rows = build_rows([record], table, FeatureSpec.AREA_ONLY, per_image=False)
        assert rows.dtype == float and rows.shape == (1, 2)
        assert rows.tolist() == [[15.0, 10.0]]

    def test_speedless_specimens_skipped_for_area_speed(self):
        record = specimen_with_areas([10.0])
        table = {"s1": compute_features(record)}
        rows = build_rows([record], table, FeatureSpec.AREA_PLUS_SPEED)
        assert rows.dtype == float and rows.shape == (0, 3)

    def test_log_target_rows(self):
        record = specimen_with_areas([10.0])
        table = {"s1": compute_features(record)}
        rows = build_rows([record], table, FeatureSpec.AREA_ONLY, TargetSpace.LOG)
        assert rows[0, -1] == pytest.approx(math.log(10.0))

    def test_json_round_trip(self, tmp_path):
        model = LinearModel(
            FeatureSpec.AREA_PLUS_SPEED, 1.5, (0.25, -3.75), TargetSpace.LOG
        )
        path = tmp_path / "model.json"
        save_linear_model(model, path)
        assert load_linear_model(path) == model

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dict_round_trip(self, data):
        spec = data.draw(st.sampled_from(FeatureSpec))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        model = LinearModel(
            spec,
            data.draw(finite),
            tuple(data.draw(finite) for _ in range(spec.n_features)),
            data.draw(st.sampled_from(TargetSpace)),
        )
        assert config_from_dict(LinearModel, config_to_dict(model)) == model

    @pytest.mark.parametrize("payload", [b"{", b"\xff\xfe"], ids=["not_json", "not_utf8"])
    def test_unreadable_file_raises_input_error(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_bytes(payload)
        with pytest.raises(InputError, match="cannot read linear model file"):
            load_linear_model(path)
