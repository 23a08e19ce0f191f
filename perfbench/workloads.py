"""The three workloads: inputs made from a seed, one timed round of library
calls in the order the CLI commands make them, and the checks on a
round's outputs.

Each workload attempts the same fixed number of library calls per round
(``ops_per_round``), so the share of failed calls never depends on the
seed or the run length.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from opdense import dataio, dataset, evaluation, featsel, pe, reports, svm, synth, x86
from opdense.kernels import KernelSpec
from opdense.labels import ClassLabel, LabelScheme
from opdense.smo import TrainerConfig

import checks
from pegen import PeGenerator

KERNEL = KernelSpec()  # PUK, sigma = omega = 1, C = 1: the CLI's defaults
CONFIG = TrainerConfig()
SPLIT_PERCENT = 30.0
CV_FOLDS = 10
RANK_EVALUATORS = ("info_gain", "gain_ratio", "symm_uncert", "correlation", "one_r", "relieff")
RANDOM_EVERY = 3  # every third triage file gets a random executable section
SELECT_INFORMATIVE = 3  # with 3 the sweep keeps 3 attributes on every seed; with 5, 3 or 4


@dataclass(frozen=True)
class TriageSize:
    train_per_class: int = 16
    batch_per_class: int = 40
    instructions: tuple[int, int] = (2500, 5000)
    random_bytes: tuple[int, int] = (512, 1024)


@dataclass(frozen=True)
class TrainSize:
    n_per_class: int = 150  # rounds of about a second, so a run holds tens of them


@dataclass(frozen=True)
class SelectSize:
    n_per_class: int = 30


class Workload:
    """Subclasses fill in ``setup``, ``run_round``, ``check`` and ``results``.

    Every set-up of a run writes the same files into the same directory,
    so after the first it overwrites them in place: creating and deleting
    thousands of files slows file creation on the reference machine for
    a while after, so set-up time would drift over a series of runs."""

    ops_per_round = 0

    def __init__(self, seed: int, size):
        self.seed = seed
        self.size = size
        self.work: Path | None = None  # set by setup(); rounds read and write here
        self.done = 0  # library calls completed in the current round

    def call(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        self.done += 1
        return result

    def new_work_dir(self, work: Path) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.work = work


@functools.cache
def decoder_vocabulary() -> tuple[str, ...]:
    """Every mnemonic the decoder can name, found by decoding each opcode
    (one-byte, 0F under each mandatory prefix, 0F 38, 0F 3A, fused wait)
    with each ModRM reg field in memory form and each register-form byte.

    A probe of the benchmark's own, not a step of the CLI: it does not
    depend on the seed, so it runs once per process, before the timed
    set-ups, and streams its candidates rather than holding them."""
    modrms = [reg << 3 for reg in range(8)] + list(range(0xC0, 0x100))
    pad = bytes(10)
    candidates = itertools.chain(
        (bytes([op, m]) for op in range(256) for m in modrms),
        (p + bytes([0x0F, op, m]) for p in (b"", b"\x66", b"\xf2", b"\xf3") for op in range(256) for m in modrms),
        (bytes([0x0F, esc, op, 0]) for esc in (0x38, 0x3A) for op in range(256)),
        (bytes([0x9B, esc, m]) for esc in (0xD9, 0xDB, 0xDD, 0xDF) for m in modrms))
    names = set()
    for code in candidates:
        decoded = x86.decode_one(code + pad, 0)
        if decoded is not None:
            names.add(decoded.mnemonic)
    return tuple(sorted(names))


def _histogram(sample_id: str, counted) -> reports.OpcodeHistogram:
    return reports.OpcodeHistogram(sample_id=sample_id, counts=dict(counted.counts),
                                   total=counted.decoded_instructions, source="disassembly")


class Triage(Workload):
    """Goodware vs ransomware triage of generated PE files by a saved binary
    model: parse_pe -> count_opcodes -> report format/parse (disasm, ingest)
    -> load_model -> assemble over the model's attributes -> predict_dataset."""

    def __init__(self, seed, size=TriageSize()):
        super().__init__(seed, size)
        self.ops_per_round = 5 * 2 * size.batch_per_class + 4
        self.vocabulary = decoder_vocabulary()

    def _samples(self, gen: PeGenerator, prefix: str, per_class: int):
        out = []
        (n_lo, n_hi), (r_lo, r_hi) = self.size.instructions, self.size.random_bytes
        for i in range(2 * per_class):
            # sizes follow the file index, not the seed, so every seed decodes
            # about the same number of bytes
            step = (i // 2) % 8 / 7
            n = n_lo + round((n_hi - n_lo) * step)
            extra = r_lo + round((r_hi - r_lo) * step) if i % RANDOM_EVERY == 0 else 0
            out.append(gen.sample(f"{prefix}_{i:04d}", ("good", "malware")[i % 2], n, extra))
        return out

    def setup(self, work: Path) -> None:
        self.new_work_dir(work)
        gen = PeGenerator(self.seed)
        training = self._samples(gen, "train", self.size.train_per_class)
        self.batch = self._samples(gen, "batch", self.size.batch_per_class)
        batch_dir = self.work / "batch"
        batch_dir.mkdir(exist_ok=True)
        for sample in self.batch:
            (batch_dir / f"{sample.sample_id}.exe").write_bytes(sample.data)
        labeled = []
        for sample in training:
            counted = x86.count_opcodes(pe.parse_pe(sample.data))
            labeled.append(reports.LabeledHistogram(_histogram(sample.sample_id, counted),
                                                    ClassLabel(LabelScheme.binary, sample.label)))
        # the model spans the decoder's whole vocabulary, so any decoded batch
        # assembles over its attributes
        ds = dataset.assemble(labeled, self.vocabulary)
        scaled, _ = dataset.minmax_scale(ds)
        self.model = svm.train_multiclass(scaled, KERNEL, CONFIG)
        (self.work / "model.json").write_text(svm.save_model(self.model), encoding="utf-8")

    def run_round(self):
        text = self.call((self.work / "model.json").read_text, encoding="utf-8")
        model = self.call(svm.load_model, text)
        labeled, decoded = [], []
        for sample in self.batch:
            data = self.call((self.work / "batch" / f"{sample.sample_id}.exe").read_bytes)
            counted = self.call(x86.count_opcodes, self.call(pe.parse_pe, data))
            report = self.call(reports.format_report, _histogram(sample.sample_id, counted))
            parsed = self.call(reports.parse_report, report, sample.sample_id)
            labeled.append(reports.LabeledHistogram(parsed, ClassLabel(LabelScheme.binary, sample.label)))
            decoded.append((parsed.counts, counted.unknown_bytes))
        ds = self.call(dataset.assemble, labeled, model.attributes)
        predicted = self.call(svm.predict_dataset, model, ds)
        return {"text": text, "model": model, "decoded": decoded, "ds": ds, "predicted": predicted}

    def check(self, out) -> list[str]:
        problems = []
        for sample, (counts, unknown) in zip(self.batch, out["decoded"]):
            problems += checks.check_counts(sample.sample_id, sample.expected, counts, unknown,
                                            sample.random_bytes)
        problems += checks.check_density_rows(out["ds"].X)
        problems += checks.check_same_predictions(
            svm.predict_dataset(self.model, out["ds"]), out["predicted"], "in-memory vs reloaded model")
        return problems

    def results(self, out) -> dict[str, float]:
        return {"holdout_precision": checks.weighted_precision(list(out["ds"].labels), out["predicted"]),
                "attributes_kept": len(out["model"].attributes),
                "model_bytes": len(out["text"].encode("utf-8"))}


class Train(Workload):
    """The paper's six-class scheme on the synthetic report corpus:
    scan_directory -> assemble -> CSV write/read -> minmax_scale/shuffle
    -> CSV write/read -> split_percentage -> train_multiclass (PUK) ->
    save_model -> load_model -> holdout_evaluate."""

    ops_per_round = 22

    def setup(self, work: Path) -> None:
        self.new_work_dir(work)
        synth.generate_corpus(self.work / "corpus", classes=6, n_per_class=self.size.n_per_class,
                              seed=self.seed)

    def _csv_round_trip(self, ds, name):
        path = self.work / name
        self.call(path.write_bytes, self.call(dataio.write_dataset, ds, "csv"))
        return self.call(dataio.read_dataset, self.call(path.read_bytes), "csv")

    def run_round(self):
        scan = self.call(reports.scan_directory, self.work / "corpus")
        master = self.call(dataset.build_master_list, scan.histograms)
        ds = self.call(dataset.assemble, scan.histograms, master)
        ds = self.call(dataset.sort_attributes_by_mean_density, ds)
        ds = self._csv_round_trip(ds, "full.csv")
        scaled, _ = self.call(dataset.minmax_scale, ds)
        prep = self._csv_round_trip(self.call(dataset.shuffle, scaled, self.seed), "prep.csv")
        train = self.call(dataset.split_percentage, prep, SPLIT_PERCENT, invert=False)
        test = self.call(dataset.split_percentage, prep, SPLIT_PERCENT, invert=True)
        model = self.call(svm.train_multiclass, train, KERNEL, CONFIG)
        self.call((self.work / "model.json").write_text, self.call(svm.save_model, model), encoding="utf-8")
        text = self.call((self.work / "model.json").read_text, encoding="utf-8")
        loaded = self.call(svm.load_model, text)
        report = self.call(evaluation.holdout_evaluate, loaded, test)
        return {"scan": scan, "train": train, "test": test, "model": model, "loaded": loaded,
                "text": text, "report": report}

    def check(self, out) -> list[str]:
        problems = [f"{f.path}: {f.error}" for f in out["scan"].failures]
        train, model = out["train"], out["model"]
        labels = np.array(train.labels, dtype=object)
        for m in model.machines:
            if m.hit_iteration_cap:
                continue
            neg, pos = m.class_pair
            mask = (labels == neg) | (labels == pos)
            y = np.where(labels[mask] == pos, 1.0, -1.0)
            problems += checks.check_machine(train.X[mask], y, m.support_vectors, m.alphas, m.bias,
                                             KERNEL.C, CONFIG.tolerance, f"machine {neg}/{pos}")
        test = out["test"]
        predicted = svm.predict_dataset(out["loaded"], test)
        problems += checks.check_same_predictions(svm.predict_dataset(model, test), predicted,
                                                  "before save vs after load")
        precision = checks.weighted_precision(list(test.labels), predicted)
        if abs(precision - out["report"].weighted.precision) > 1e-12:
            problems.append(f"hold-out precision {out['report'].weighted.precision} != recount {precision}")
        if precision < 0.95:
            problems.append(f"hold-out precision {precision:.4f} < 0.95")
        return problems

    def results(self, out) -> dict[str, float]:
        return {"holdout_precision": out["report"].weighted.precision,
                "attributes_kept": len(out["loaded"].attributes),
                "model_bytes": len(out["text"].encode("utf-8"))}


class Select(Workload):
    """Attribute selection on a smaller six-class corpus: six ranking
    evaluators, principal components, CFS best-first, rank aggregation,
    a PUK threshold sweep over the correlation ranking, 10-fold CV of the
    chosen subset, and the final reduced model."""

    ops_per_round = len(RANK_EVALUATORS) * 2 + 12

    def setup(self, work: Path) -> None:
        self.new_work_dir(work)
        corpus = self.work / "corpus"
        synth.generate_corpus(corpus, classes=6, n_per_class=self.size.n_per_class,
                              informative=SELECT_INFORMATIVE, seed=self.seed)
        scan = reports.scan_directory(corpus)
        ds = dataset.assemble(scan.histograms, dataset.build_master_list(scan.histograms))
        scaled, _ = dataset.minmax_scale(dataset.sort_attributes_by_mean_density(ds))
        prep = dataset.shuffle(scaled, self.seed)
        self.train = dataset.split_percentage(prep, SPLIT_PERCENT, invert=False)
        self.test = dataset.split_percentage(prep, SPLIT_PERCENT, invert=True)

    def run_round(self):
        train, test = self.train, self.test
        lists, scores = [], {}
        for evaluator in RANK_EVALUATORS:
            scores[evaluator] = self.call(featsel.rank_attributes, train, evaluator, seed=self.seed)
            lists.append(self.call(featsel.ranker_select, scores[evaluator], 0.0,
                                   evaluator=evaluator).retained[:21])
        self.call(featsel.pca_eval, train)
        scorer = self.call(featsel.CfsMeritScorer, train)
        lists.append(self.call(featsel.search_best_first, train.attributes, scorer).retained[:21])
        self.call(featsel.aggregate_rank, lists)

        def classifier_fn(ds_train, ds_test):
            return evaluation.holdout_evaluate(svm.train_multiclass(ds_train, KERNEL, CONFIG), ds_test)

        threshold, chosen, sweep = self.call(featsel.tune_threshold, train, test, scores["correlation"],
                                             classifier_fn, evaluator="correlation")
        reduced_train = self.call(featsel.reduce_dataset, train, chosen)
        reduced_test = self.call(featsel.reduce_dataset, test, chosen)
        cv = self.call(evaluation.cross_validate, reduced_train, CV_FOLDS, self.seed,
                       evaluation.make_trainer(KERNEL, CONFIG))
        model = self.call(svm.train_multiclass, reduced_train, KERNEL, CONFIG)
        text = self.call(svm.save_model, model)
        loaded = self.call(svm.load_model, text)
        report = self.call(evaluation.holdout_evaluate, loaded, reduced_test)
        return {"scores": scores, "threshold": threshold, "chosen": chosen,
                "baseline": sweep[0]["metric"], "cv": cv, "reduced_train": reduced_train,
                "text": text, "loaded": loaded, "report": report}

    def check(self, out) -> list[str]:
        correlation = {s.attribute: s.score for s in out["scores"]["correlation"]}
        problems = checks.check_correlation(self.train.attributes, correlation, self.train.X, self.train.labels)
        problems += checks.check_kept(out["chosen"].retained, correlation, out["threshold"])
        precision = out["report"].weighted.precision
        if precision < out["baseline"] - 1e-12:
            problems.append(f"chosen subset precision {precision:.4f} < full-attribute {out['baseline']:.4f}")
        problems += checks.check_cv_matrix(out["cv"].matrix.cells, out["cv"].classes,
                                           out["reduced_train"].labels)
        return problems

    def results(self, out) -> dict[str, float]:
        return {"holdout_precision": out["report"].weighted.precision,
                "attributes_kept": len(out["loaded"].attributes),
                "model_bytes": len(out["text"].encode("utf-8"))}


WORKLOADS = {"triage": (Triage, TriageSize()), "train": (Train, TrainSize()), "select": (Select, SelectSize())}
