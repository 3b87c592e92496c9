"""The three benchmark workloads: set-up, one timed repetition, and the
correctness checks that decide which operations failed.

Each workload is a closed loop with one caller: every call into sinkmass
waits for the previous one. Inputs come from the workload seed; only the
pipeline's two models come from a fixed one. Why each workload exists is
recorded in NOTES.md next to this file.

sinkmass functions are called through their modules (``synth.generate``,
``training.train``) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from sinkmass import cli, experiments, synth
from sinkmass.features import compute_features
from sinkmass.linear import TargetSpace
from sinkmass.neural.losses import LossKind, LossSpace
from sinkmass.neural import training
from sinkmass.neural.model import Architecture, HeadKind, MetadataInput, ModelConfig
from sinkmass.neural.training import AugmentPolicy, TrainConfig
from sinkmass.synth import GroupSpec, SynthConfig

from instrument import ENCODER_CHANNELS

NP_REPR = "np.float64("


@dataclass
class Outcome:
    """What one timed repetition did, judged after the timing stopped."""

    attempted: int
    failed: int
    mdape: float
    outputs: dict[str, bytes]  # primary outputs, compared traced vs untraced
    problems: list[str] = field(default_factory=list)  # failed run-level checks
    taxon_accuracy: float = 0.0
    np_repr_cells: int = 0


def _log_failure(what: str) -> None:
    print(f"benchmark: {what} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _csv_mass(cell: str) -> float:
    """A mass cell of predictions.csv. Neural predictions are written as
    ``np.float64(<value>)`` when the trimmed median averages two numpy values
    (a known output defect, see NOTES.md); the value inside is read."""
    if cell.startswith(NP_REPR):
        cell = cell[len(NP_REPR):-1]
    return float(cell)


def _mdape(rows) -> float:
    return statistics.median(abs(p - t) / t for t, p in rows)


def _raster_config(counts, seed: int, size_mu=(2.1, 2.1, 2.1)) -> SynthConfig:
    """Acceptance criterion 05's generator. Its taxa share one size
    distribution unless ``size_mu`` gives each its own mean log size."""
    densities = {"light": (1.35, 1.5), "medium": (1.9, 2.1), "dense": (2.6, 3.0)}
    return SynthConfig(
        groups=tuple(
            GroupSpec(name, density, (mu, 0.15), count)
            for (name, density), mu, count in zip(densities.items(), size_mu, counts)
        ),
        cuvette_height_px=320,
        dt=1.3 / 0.32,
        area_noise_cv=0.05,
        n_max=12,
        seed=seed,
        raster_dims=(32, 32),
    )


def _run_cli(argv) -> int:
    """One in-process CLI command; its stdout is dropped, stderr kept."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _read_outputs(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class NeuralCV:
    """Five-fold crossval of the metadata-aware CNN on in-memory rasters."""

    name = "neural_cv"
    # Seconds of the run's --seconds budget per repetition (run.repetitions);
    # a repetition takes 25 to 30 s on the reference host.
    REP_SECONDS = 15
    # At three epochs about one seed in fifteen had a fold whose first epoch
    # validated best (a lucky first epoch, then worse), failing the progress
    # check. At six every fold's last epoch was at most 0.67 of its first
    # over 13 seeds.
    EPOCHS = 6
    # Pooled MdAPE was 0.083-0.130 over 13 seeds at EPOCHS; a run outside
    # [REF / TOL, REF * TOL] means training no longer learns what it did.
    MDAPE_REF = 0.10
    MDAPE_TOL = 3.0
    MODEL = ModelConfig(
        architecture=Architecture.METADATA_AWARE,
        encoder_channels=ENCODER_CHANNELS,
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

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.counts = (8, 8, 8) if smoke else (67, 67, 66)
        self.train_config = TrainConfig(
            loss=LossKind.L1,
            loss_space=LossSpace.LOG,
            epochs=self.EPOCHS,
            batch_size=128,
            lr_max=3e-3,
            lr_min=1e-5,
            seed=seed,
            augmentation=AugmentPolicy.FLIPS90,
        )
        self.check_reference = not smoke

    def setup(self, workdir: Path) -> None:
        self.dataset, _ = synth.generate(_raster_config(self.counts, self.seed))

    def expected_n(self) -> int:
        return sum(
            1 for s in self.dataset.specimens
            if s.dry_mass_ug is not None and compute_features(s).sinking_speed is not None
        )

    def run(self, repdir: Path):
        try:
            return experiments.crossval_neural(
                self.dataset, self.MODEL, self.train_config, k=5, seed=self.seed
            )
        except Exception:
            _log_failure("crossval_neural")
            return None

    def judge(self, result, repdir: Path) -> Outcome:
        if result is None:
            return Outcome(attempted=5, failed=5, mdape=float("nan"), outputs={})
        failed = sum(1 for h in result.fold_val_histories if not min(h) < h[0])
        report = result.pooled_report
        problems = []
        if report.n != self.expected_n():
            problems.append(f"pooled n {report.n} != specimens with a speed {self.expected_n()}")
        lo, hi = self.MDAPE_REF / self.MDAPE_TOL, self.MDAPE_REF * self.MDAPE_TOL
        if self.check_reference and not lo <= report.mdape <= hi:
            problems.append(f"MdAPE {report.mdape} outside reference band [{lo}, {hi}]")
        outputs = {
            "predictions.csv": cli._predictions_csv(result.pooled_predictions).encode(),
            "report.json": json.dumps(
                [r.to_dict() for r in result.fold_reports] + [report.to_dict()],
                sort_keys=True,
            ).encode(),
        }
        return Outcome(5, failed, report.mdape, outputs, problems)


class LinearProtocol:
    """Seven CLI commands over a frame-CSV dataset on disk, no rasters."""

    name = "linear_protocol"
    REP_SECONDS = 5  # a repetition takes 7 to 12 s on the reference host

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        per_taxon = 20 if smoke else 1000
        self.synth_config = SynthConfig(
            groups=(
                GroupSpec("light", (1.15, 1.35), (2.3, 0.3), per_taxon),
                GroupSpec("medium", (1.9, 2.3), (2.3, 0.3), per_taxon),
                GroupSpec("dense", (3.0, 3.6), (2.3, 0.3), per_taxon),
            ),
            area_noise_cv=0.05,
            seed=seed,
        )

    def setup(self, workdir: Path) -> None:
        dataset, truth = synth.generate(self.synth_config)
        self.manifest = synth.write_synth_output(dataset, truth, workdir / "data")

    def commands(self, rep: Path):
        m, s = self.manifest, self.seed
        return [
            ("ingest", ["ingest", "--manifest", m, "--out", rep / "ingest"]),
            ("features", ["features", "--manifest", m, "--out", rep / "features"]),
            ("crossval_area", ["crossval", "--manifest", m, "--model", "linear-area",
                               "--seed", s, "--out", rep / "cv_area"]),
            ("crossval_speed", ["crossval", "--manifest", m, "--model", "linear-area-speed",
                                "--seed", s, "--out", rep / "cv_speed"]),
            ("fit_linear", ["fit-linear", "--manifest", m, "--features", "area_speed",
                            "--out", rep / "model"]),
            ("evaluate", ["evaluate", "--manifest", m, "--model",
                          rep / "model" / "linear_model.json", "--bootstrap", 1000,
                          "--seed", s, "--out", rep / "eval"]),
            ("report", ["report", rep / "cv_area" / "crossval_report.json",
                        rep / "cv_speed" / "crossval_report.json",
                        rep / "eval" / "metrics.json", "--out", rep / "report"]),
        ]

    def run(self, repdir: Path):
        codes = {}
        for label, argv in self.commands(repdir):
            try:
                codes[label] = _run_cli(argv)
            except Exception:
                _log_failure(f"command {label}")
                codes[label] = None
        return codes

    def judge(self, codes, repdir: Path) -> Outcome:
        bad = {label for label, code in codes.items() if code != 0}
        mdape = float("nan")
        if not bad & {"crossval_area", "crossval_speed"}:
            area = json.loads((repdir / "cv_area" / "crossval_report.json").read_text())
            speed = json.loads((repdir / "cv_speed" / "crossval_report.json").read_text())
            mdape = speed["report"]["mdape"]
            if not mdape / area["report"]["mdape"] <= 0.8:  # acceptance criterion 04's gate
                bad.add("crossval_speed")
        if "evaluate" not in bad:
            report = json.loads((repdir / "eval" / "metrics.json").read_text())["report"]
            for metric, interval in report["bootstrap"].items():
                if not interval["low"] <= report[metric] <= interval["high"]:
                    bad.add("evaluate")
        return Outcome(len(codes), len(bad), mdape, _read_outputs(repdir))


class PipelineInfer:
    """Classify-then-estimate over a raster dataset on disk, forward only."""

    name = "pipeline_infer"
    REP_SECONDS = 3.75  # a repetition takes about 4 s on the reference host
    PER_TAXON = 300
    # Criterion 05's taxa all share one size distribution, and density is
    # invisible in the rasters, so an image classifier cannot tell them
    # apart: it collapses onto one taxon and leaves the other predicted-taxon
    # groups (and their KS and Pearson statistics) empty. Here the taxa also
    # differ in size, larger for lighter ones so frame counts stay close.
    SIZE_MU = (2.3, 2.0, 1.7)
    # Set-up trains both models on a small training set generated from the
    # fixed TRAIN_SEED, so every workload seed runs the same two models and
    # the seed varies only the specimens the pipeline sees. Small batches let
    # few epochs suffice: the classifier reaches about 0.78 accuracy.
    TRAIN_SEED = 2026
    TRAIN_PER_TAXON = 20
    EPOCHS = 5
    BATCH = 16
    LR_MAX = 1e-2

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        per_taxon = 10 if smoke else self.PER_TAXON
        self.synth_config = _raster_config((per_taxon,) * 3, seed, self.SIZE_MU)
        self.train_per_taxon = 5 if smoke else self.TRAIN_PER_TAXON
        self.check_groups = not smoke
        self.train_config = TrainConfig(
            loss=LossKind.L1, loss_space=LossSpace.LOG, epochs=self.EPOCHS,
            batch_size=self.BATCH, lr_max=self.LR_MAX, lr_min=1e-5, seed=self.TRAIN_SEED,
            augmentation=AugmentPolicy.FLIPS90,
        )

    def setup(self, workdir: Path) -> None:
        dataset, truth = synth.generate(self.synth_config)
        self.manifest = synth.write_synth_output(dataset, truth, workdir / "data")
        self.weighed = {s.specimen_id for s in dataset.specimens if s.dry_mass_ug is not None}
        del dataset, truth
        train_set, _ = synth.generate(
            _raster_config((self.train_per_taxon,) * 3, self.TRAIN_SEED, self.SIZE_MU)
        )
        taxa = tuple(sorted(train_set.taxon_set))
        train_ids, val_ids = [], []
        for taxon in taxa:
            ids = [s.specimen_id for s in train_set.specimens if s.taxon == taxon]
            n_val = max(1, len(ids) // 5)
            val_ids += ids[:n_val]
            train_ids += ids[n_val:]
        classifier = training.train(
            train_set, train_ids, val_ids,
            ModelConfig(architecture=Architecture.SINGLE_VIEW,
                        encoder_channels=ENCODER_CHANNELS, n_classes=len(taxa)),
            self.train_config, taxa=taxa,
        )
        mass = training.train(
            train_set, train_ids, val_ids,
            ModelConfig(architecture=Architecture.MULTI_VIEW, encoder_channels=ENCODER_CHANNELS),
            self.train_config,
        )
        self.classifier = workdir / "classifier.json"
        self.mass_model = workdir / "mass_model.json"
        training.save_checkpoint(classifier, self.classifier)
        training.save_checkpoint(mass, self.mass_model)

    def run(self, repdir: Path):
        try:
            return _run_cli(["pipeline", "--manifest", self.manifest,
                             "--classifier", self.classifier,
                             "--mass-model", self.mass_model, "--out", repdir / "pipe"])
        except Exception:
            _log_failure("pipeline")
            return None

    def judge(self, code, repdir: Path) -> Outcome:
        attempted = len(self.weighed)
        if code != 0:
            return Outcome(attempted, attempted, float("nan"), {})
        out = repdir / "pipe"
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = Counter(r["specimen_id"] for r in rows)
        good_rows = [
            r for r in rows
            if r["specimen_id"] in self.weighed and seen[r["specimen_id"]] == 1
            and _csv_mass(r["predicted_mass_ug"]) > 0
        ]
        failed = attempted - len(good_rows)
        report = json.loads((out / "pipeline_report.json").read_text())
        problems = []
        by_group = Counter(r["predicted_taxon"] for r in rows)
        groups = {g["taxon"]: g["n"] for g in report["groups"]}
        if groups != {t: by_group.get(t, 0) for t in groups} or sum(groups.values()) != len(rows):
            problems.append(f"groups {groups} do not partition the predictions {dict(by_group)}")
        if self.check_groups and min(groups.values()) == 0:
            problems.append(f"empty predicted-taxon group: {groups}")
        mdape = _mdape(
            (_csv_mass(r["true_mass_ug"]), _csv_mass(r["predicted_mass_ug"])) for r in good_rows
        )
        np_repr_cells = sum(r["predicted_mass_ug"].startswith(NP_REPR) for r in rows)
        return Outcome(attempted, failed, mdape, _read_outputs(out), problems,
                       report["accuracy"], np_repr_cells)


WORKLOADS = {w.name: w for w in (NeuralCV, LinearProtocol, PipelineInfer)}
