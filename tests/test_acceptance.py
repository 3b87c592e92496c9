"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Timed criteria assert their stated wall-clock budgets.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from sinkmass import experiments
from sinkmass.cli import main as cli_main
from sinkmass.evaluation import (
    bootstrap,
    classification_report,
    compute_metrics,
    ks_two_sample,
    mae,
    make_cv_splits,
)
from sinkmass.features import compute_features
from sinkmass.linear import (
    FeatureSpec,
    LinearModel,
    TargetSpace,
    fit_ols,
    predict_per_image,
    predict_specimen,
)
from sinkmass.neural.losses import LossKind, LossSpace, regression_loss
from sinkmass.neural.model import (
    Architecture,
    Batch,
    HeadKind,
    MetadataInput,
    ModelConfig,
    NeuralNet,
    init_params,
)
from sinkmass.neural.training import (
    AugmentPolicy,
    FreezeMode,
    TrainConfig,
    fine_tune,
    train,
)
from sinkmass.records import (
    Dataset,
    PredictionEntry,
    PredictionSet,
    SpecimenRecord,
    frame_table,
)
from sinkmass.rng import substream
from sinkmass.synth import GroupSpec, SynthConfig, generate


def _ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def prediction_set(y, yhat):
    return PredictionSet(
        tuple(
            PredictionEntry(f"s{i}", "t", float(a), float(b))
            for i, (a, b) in enumerate(zip(y, yhat))
        )
    )


def test_criterion_01_metric_oracle():
    start = time.monotonic()
    report = compute_metrics(prediction_set([1, 2, 4], [2, 2, 2]))
    assert abs(report.mae - 1.0) < 1e-12
    assert abs(report.mape - 0.5) < 1e-12
    assert abs(report.mdape - 0.5) < 1e-12
    assert abs(report.rmse - math.sqrt(5.0 / 3.0)) < 1e-12

    exact = compute_metrics(prediction_set([1, 2, 4], [1, 2, 4]))
    assert exact.mae == 0.0 and exact.mape == 0.0 and exact.mdape == 0.0
    assert exact.rmse == 0.0 and exact.r2_log == 1.0

    y = [1.0, 3.0, 9.0, 27.0, 81.0]
    center = math.exp(float(np.mean(np.log(y))))
    baseline = compute_metrics(prediction_set(y, [center] * len(y)))
    assert abs(baseline.r2_log) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"(metric oracle, {elapsed:.3f}s)")


def test_criterion_02_ols_oracle_equivalence():
    start = time.monotonic()
    rng = substream(2024, "ols-acceptance")
    for trial in range(100):
        p = 1 + trial % 2
        x = rng.uniform(0, 100, size=(50, p))
        y = 5.0 + x @ rng.uniform(0.1, 3.0, size=p) + rng.normal(0, 4.0, size=50)
        model = fit_ols(np.column_stack([x, y]))
        design = np.column_stack([np.ones(50), x])
        oracle = np.linalg.inv(design.T @ design) @ design.T @ y
        fitted = np.array([model.intercept, *model.coefficients])
        assert np.allclose(fitted, oracle, rtol=1e-8, atol=1e-10)
        residuals = y - design @ fitted
        scale = float(np.abs(y).sum())
        assert abs(residuals.sum()) / scale < 1e-8
        for j in range(p):
            assert abs(residuals @ x[:, j]) / (scale * float(np.abs(x[:, j]).mean())) < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(2, f"(100 instances vs normal equations, {elapsed:.2f}s)")


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    h = 1e-5
    combos = itertools.product(
        list(Architecture), list(LossKind), list(LossSpace), list(HeadKind)
    )
    for arch, kind, space, head in combos:
        meta = (
            (MetadataInput.FRAME_AREA, MetadataInput.MEAN_AREA, MetadataInput.SINKING_SPEED)
            if arch is Architecture.METADATA_AWARE
            else ()
        )
        config = ModelConfig(
            architecture=arch,
            encoder_channels=(2, 3),
            head=head,
            head_hidden=4,
            metadata_inputs=meta,
            target_space=TargetSpace.LOG if space is LossSpace.LOG else TargetSpace.RAW,
            input_size=8,
        )
        # one fixed seeded batch per architecture: kinked losses (L1, APE)
        # need a test point with residuals far from zero for central
        # differences to be valid, and this draw keeps them O(1)
        rng = substream(99, "gradcheck")
        params = init_params(config, rng)
        net = NeuralNet(config, params)
        batch = Batch(
            images=rng.normal(0.5, 0.25, size=(4, 1, 8, 8)),
            images2=(
                rng.normal(0.5, 0.25, size=(4, 1, 8, 8))
                if arch is Architecture.MULTI_VIEW
                else None
            ),
            metadata=rng.normal(0.0, 1.0, size=(4, 3)) if meta else None,
        )
        y = rng.uniform(2.0, 9.0, size=4)
        out, cache = net.forward_cached(batch)
        _, dout = regression_loss(kind, space, y, out)
        grads = net.backward(cache, dout)
        for name, values in params.items():
            flat = values.ravel()
            gflat = grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = regression_loss(kind, space, y, net.forward(batch))
                flat[i] = orig - h
                lm, _ = regression_loss(kind, space, y, net.forward(batch))
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(gflat[i] - fd) / (abs(gflat[i]) + 1e-8)
                assert rel < 1e-4, f"{arch.value}/{kind.value}/{space.value}/{head.value} {name}[{i}]"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(3, f"(36 combos, every parameter, {elapsed:.1f}s)")


def _acceptance_linear_dataset():
    return SynthConfig(
        groups=(
            GroupSpec("light", (1.15, 1.35), (2.3, 0.3), 100),
            GroupSpec("medium", (1.9, 2.3), (2.3, 0.3), 100),
            GroupSpec("dense", (3.0, 3.6), (2.3, 0.3), 100),
        ),
        area_noise_cv=0.05,
        seed=42,
    )


def test_criterion_04_area_speed_beats_area_only():
    start = time.monotonic()
    dataset, _ = generate(_acceptance_linear_dataset())
    area = experiments.crossval_linear(dataset, FeatureSpec.AREA_ONLY, seed=7)
    both = experiments.crossval_linear(dataset, FeatureSpec.AREA_PLUS_SPEED, seed=7)
    ratio = both.pooled_report.mdape / area.pooled_report.mdape
    assert ratio <= 0.8, f"MdAPE ratio {ratio:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _ok(
        4,
        f"(MdAPE {both.pooled_report.mdape:.3f} vs {area.pooled_report.mdape:.3f}, "
        f"ratio {ratio:.2f}, {elapsed:.1f}s)",
    )


def _acceptance_raster_dataset():
    return SynthConfig(
        groups=(
            GroupSpec("light", (1.35, 1.5), (2.1, 0.15), 67),
            GroupSpec("medium", (1.9, 2.1), (2.1, 0.15), 67),
            GroupSpec("dense", (2.6, 3.0), (2.1, 0.15), 66),
        ),
        cuvette_height_px=320,
        dt=1.3 / 0.32,
        area_noise_cv=0.05,
        n_max=12,
        seed=1001,
        raster_dims=(32, 32),
    )


@pytest.mark.slow
def test_criterion_05_metadata_model_beats_image_only():
    start = time.monotonic()
    dataset, _ = generate(_acceptance_raster_dataset())
    table = dataset.features
    assert all(f.sinking_speed is not None for f in table.values())

    image_config = ModelConfig(
        architecture=Architecture.SINGLE_VIEW,
        encoder_channels=(8, 16),
        head=HeadKind.TWO_LAYER,
        head_hidden=64,
        target_space=TargetSpace.LOG,
        input_size=32,
    )
    metadata_config = ModelConfig(
        architecture=Architecture.METADATA_AWARE,
        encoder_channels=(8, 16),
        head=HeadKind.TWO_LAYER,
        head_hidden=64,
        metadata_inputs=(
            MetadataInput.FRAME_AREA,
            MetadataInput.MEAN_AREA,
            MetadataInput.SINKING_SPEED,
        ),
        target_space=TargetSpace.LOG,
        input_size=32,
    )
    train_config = TrainConfig(
        loss=LossKind.L1,
        loss_space=LossSpace.LOG,
        epochs=50,
        batch_size=128,
        lr_max=3e-3,
        lr_min=1e-5,
        seed=77,
        augmentation=AugmentPolicy.FLIPS90,
    )
    image_only = experiments.crossval_neural(dataset, image_config, train_config, seed=55)
    metadata = experiments.crossval_neural(dataset, metadata_config, train_config, seed=55)
    assert image_only.pooled_report.n == metadata.pooled_report.n == 200
    ratio = metadata.pooled_report.mdape / image_only.pooled_report.mdape
    assert ratio <= 0.8, f"MdAPE ratio {ratio:.3f}"
    # training makes real progress: best validation loss at most half the
    # first epoch's on every metadata fold
    for history in metadata.fold_val_histories:
        assert min(history) <= 0.5 * history[0]
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    _ok(
        5,
        f"(MdAPE {metadata.pooled_report.mdape:.3f} vs "
        f"{image_only.pooled_report.mdape:.3f}, ratio {ratio:.2f}, {elapsed:.0f}s)",
    )


def test_criterion_06_trimmed_median_robustness():
    areas = [10.0 + 0.01 * i for i in range(30)]
    frames = frame_table(
        ("A", i, 300 - i, 320 - i, 0, 20, a) for i, a in enumerate(areas)
    )
    record = SpecimenRecord("s1", "t", 10.0, frames)
    model = LinearModel(FeatureSpec.AREA_ONLY, 0.0, (1.0,))
    feats = compute_features(record)
    baseline = predict_specimen(model, record, feats)

    corrupt_areas = list(areas)
    corrupt_areas[-1] *= 100.0  # the corrupted value becomes the sorted maximum
    corrupt_frames = frame_table(
        ("A", i, 300 - i, 320 - i, 0, 2000, a)
        for i, a in enumerate(corrupt_areas)
    )
    corrupted = SpecimenRecord("s1", "t", 10.0, corrupt_frames)
    corrupted_estimate = predict_specimen(model, corrupted, compute_features(corrupted))
    assert corrupted_estimate == baseline  # exactly 0 change

    clean_mean = float(np.mean(predict_per_image(model, record, feats)))
    corrupt_mean = float(
        np.mean(predict_per_image(model, corrupted, compute_features(corrupted)))
    )
    mean_change = abs(corrupt_mean - clean_mean) / clean_mean
    assert mean_change > 3.0
    _ok(6, f"(trimmed median unchanged; mean moved {mean_change * 100:.0f}%)")


def test_criterion_07_split_integrity():
    rng = substream(777, "split-acceptance")
    frames = frame_table([("A", 0, 10, 20, 0, 10, 5.0)])
    for trial in range(1000):
        n_taxa = int(rng.integers(2, 7))
        n_total = int(rng.integers(max(20, 5 * n_taxa), 201))
        counts = [5] * n_taxa
        for _ in range(n_total - 5 * n_taxa):
            counts[int(rng.integers(0, n_taxa))] += 1
        specimens = []
        i = 0
        for t, count in enumerate(counts):
            for _ in range(count):
                specimens.append(SpecimenRecord(f"s{i}", f"taxon{t}", 1.0, frames))
                i += 1
        dataset = Dataset("rand", tuple(specimens))
        plan = make_cv_splits(dataset, k=5, seed=int(rng.integers(0, 1 << 31)))
        taxon_of = {s.specimen_id: s.taxon for s in specimens}
        all_test = []
        per_taxon_fold = {f"taxon{t}": [] for t in range(n_taxa)}
        for fold in plan.folds:
            train_set, val_set, test_set = set(fold.train), set(fold.val), set(fold.test)
            assert not (train_set & val_set or train_set & test_set or val_set & test_set)
            assert len(train_set) + len(val_set) + len(test_set) == n_total
            assert abs(len(test_set) - 0.20 * n_total) <= 1
            assert abs(len(val_set) - 0.16 * n_total) <= 1
            assert abs(len(train_set) - 0.64 * n_total) <= 1
            all_test.extend(fold.test)
            for taxon in per_taxon_fold:
                per_taxon_fold[taxon].append(
                    sum(1 for sid in fold.test if taxon_of[sid] == taxon)
                )
        assert sorted(all_test) == sorted(s.specimen_id for s in specimens)
        for counts_per_fold in per_taxon_fold.values():
            assert max(counts_per_fold) - min(counts_per_fold) <= 1
    _ok(7, "(1000 random datasets, no leakage, proportions within 1)")


def test_criterion_08_ks_correctness():
    rng = substream(4004, "ks-acceptance")

    def brute_force(a, b):
        best = 0.0
        for t in list(a) + list(b):
            best = max(best, abs(float(np.mean(a <= t)) - float(np.mean(b <= t))))
        return best

    for _ in range(200):
        a = rng.normal(0, 1, size=30)
        b = rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0), size=30)
        d, _ = ks_two_sample(a, b)
        assert d == brute_force(a, b)

    d_same, p_same = ks_two_sample([1.0, 2.0, 5.0], [5.0, 2.0, 1.0])
    assert d_same == 0.0
    assert abs(p_same - 1.0) < 1e-9
    d_disjoint, _ = ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0])
    assert d_disjoint == 1.0
    _ok(8, "(200 brute-force matches; degenerate cases exact)")


def test_criterion_09_bootstrap_coverage():
    start = time.monotonic()
    sigma = 5.0
    population_mae = sigma * math.sqrt(2.0 / math.pi)
    rng = substream(31415, "coverage")
    covered = 0
    trials = 200
    for trial in range(trials):
        y = rng.uniform(100.0, 200.0, size=500)
        yhat = y + rng.normal(0.0, sigma, size=500)
        entries = prediction_set(y, yhat)
        interval = bootstrap(mae, entries, n_draws=1000, level=0.95, seed=trial)
        if interval.low <= population_mae <= interval.high:
            covered += 1
    coverage = covered / trials
    assert coverage >= 0.90, f"coverage {coverage:.3f}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(9, f"(coverage {coverage:.2f} over {trials} trials, {elapsed:.0f}s)")


def test_criterion_10_end_to_end_determinism(tmp_path):
    synth_config = {
        "groups": [
            {
                "name": "light",
                "density_range": [1.2, 1.4],
                "size_lognormal": [2.1, 0.25],
                "count": 25,
            },
            {
                "name": "dense",
                "density_range": [2.6, 3.2],
                "size_lognormal": [2.1, 0.25],
                "count": 25,
            },
        ],
        "area_noise_cv": 0.05,
    }
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(synth_config))

    def run_flow(root):
        data = root / "data"
        assert cli_main(
            ["synth", "--seed", "17", "--config", str(config_path), "--out", str(data)]
        ) == 0
        assert cli_main(
            ["ingest", "--manifest", str(data / "manifest.json"), "--name", "e2e",
             "--out", str(root / "ingest")]
        ) == 0
        assert cli_main(
            ["crossval", "--manifest", str(data / "manifest.json"), "--name", "e2e",
             "--model", "linear-area-speed", "--seed", "23", "--out", str(root / "cv")]
        ) == 0
        assert cli_main(
            ["report", str(root / "cv" / "crossval_report.json"),
             "--out", str(root / "rep")]
        ) == 0

    for run_name in ("run1", "run2"):
        run_flow(tmp_path / run_name)

    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    files1 = sorted(p.relative_to(run1) for p in run1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(run2) for p in run2.rglob("*") if p.is_file())
    assert files1 == files2
    assert len(files1) > 50  # manifest, frame csvs, reports, splits, ...
    for rel in files1:
        assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes(), rel
    _ok(10, f"({len(files1)} output files byte-identical across runs)")


@pytest.fixture(scope="module")
def freeze_dataset():
    config = SynthConfig(
        groups=(
            GroupSpec("light", (1.3, 1.5), (1.6, 0.12), 12, aspect_range=(1.2, 1.6)),
            GroupSpec("dense", (2.4, 2.8), (1.6, 0.12), 12, aspect_range=(1.2, 1.6)),
        ),
        dt=8.0,
        n_max=6,
        area_noise_cv=0.05,
        seed=33,
        raster_dims=(16, 16),
    )
    dataset, _ = generate(config)
    ids = [s.specimen_id for s in dataset.specimens]
    return dataset, ids[:16], ids[16:20]


def test_criterion_11_freeze_contract(freeze_dataset):
    dataset, train_ids, val_ids = freeze_dataset
    train_config = TrainConfig(
        loss=LossKind.L1,
        loss_space=LossSpace.LOG,
        epochs=3,
        batch_size=32,
        lr_max=2e-3,
        lr_min=1e-5,
        seed=5,
    )
    base_config = ModelConfig(
        architecture=Architecture.METADATA_AWARE,
        encoder_channels=(2, 4),
        head=HeadKind.ONE_LAYER,
        metadata_inputs=(
            MetadataInput.FRAME_AREA,
            MetadataInput.MEAN_AREA,
            MetadataInput.SINKING_SPEED,
        ),
        target_space=TargetSpace.LOG,
        input_size=16,
    )
    base = train(dataset, train_ids, val_ids, base_config, train_config)

    encoder_frozen = fine_tune(
        base, dataset, train_ids, val_ids,
        TrainConfig(
            loss=LossKind.L1, loss_space=LossSpace.LOG, epochs=3, batch_size=32,
            lr_max=2e-3, lr_min=1e-5, seed=9, freeze=FreezeMode.ENCODER,
        ),
    )
    for name in base.params:
        if name.startswith("enc."):
            assert np.array_equal(encoder_frozen.params[name], base.params[name]), name

    both_frozen = fine_tune(
        base, dataset, train_ids, val_ids,
        TrainConfig(
            loss=LossKind.L1, loss_space=LossSpace.LOG, epochs=3, batch_size=32,
            lr_max=2e-3, lr_min=1e-5, seed=9, freeze=FreezeMode.ENCODER_AND_METADATA,
        ),
    )
    for name in base.params:
        if name.startswith(("enc.", "meta.")):
            assert np.array_equal(both_frozen.params[name], base.params[name]), name
    _ok(11, "(frozen branches bit-identical after fine-tuning)")


def test_criterion_12_classification_and_pipeline_counts():
    true = ["pos"] * 4 + ["neg"] * 6  # TP=3, FP=1, FN=1, TN=5
    predicted = ["pos"] * 3 + ["neg"] + ["pos"] + ["neg"] * 5
    report = classification_report(true, predicted)
    pos = report.per_class["pos"]
    assert abs(pos.precision - 0.75) < 1e-12
    assert abs(pos.recall - 0.75) < 1e-12
    assert abs(pos.f1 - 0.75) < 1e-12

    dataset, _ = generate(_acceptance_linear_dataset())
    rng = substream(6, "pipeline-acceptance")
    taxa = sorted(dataset.taxon_set)
    predicted_taxa, predicted_masses = {}, {}
    for r in dataset.specimens:
        predicted_taxa[r.specimen_id] = taxa[int(rng.integers(0, len(taxa)))]
        predicted_masses[r.specimen_id] = r.dry_mass_ug * float(rng.uniform(0.8, 1.2))
    pipeline = experiments.run_pipeline(dataset, predicted_taxa, predicted_masses)
    assert sum(g.n for g in pipeline.groups) == len(dataset.specimens)
    _ok(12, "(hand confusion exact; pipeline group counts partition dataset)")
