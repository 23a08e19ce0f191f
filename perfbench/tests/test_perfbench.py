"""The benchmark's own tests: each correctness check passes the program's
real output and rejects the same output with one value planted wrong, and
a tiny-size run of every workload, untraced and traced, ends correct with
no failed operation."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from opdense import featsel, pe, svm, x86  # noqa: E402
from opdense.dataset import Dataset  # noqa: E402
from opdense.kernels import KernelSpec  # noqa: E402
from opdense.labels import LabelScheme  # noqa: E402
from opdense.smo import TrainerConfig  # noqa: E402
from pegen import PeGenerator  # noqa: E402
from workloads import SelectSize, TrainSize, TriageSize  # noqa: E402


def _decode(sample):
    counted = x86.count_opcodes(pe.parse_pe(sample.data))
    return dict(counted.counts), counted.unknown_bytes


def test_counts_reject_one_mnemonic_off_by_one():
    sample = PeGenerator(3).sample("s", "malware", 400)
    counts, unknown = _decode(sample)
    assert checks.check_counts("s", sample.expected, counts, unknown, 0) == []
    name = sorted(counts)[0]
    counts[name] += 1
    assert checks.check_counts("s", sample.expected, counts, unknown, 0)


def test_counts_with_random_section_reject_a_missing_instruction():
    sample = PeGenerator(4).sample("s", "good", 400, random_bytes=512)
    counts, unknown = _decode(sample)
    assert checks.check_counts("s", sample.expected, counts, unknown, 512) == []
    assert checks.check_counts("s", sample.expected, counts, 513, 512)
    name = sorted(sample.expected)[0]
    counts[name] = sample.expected[name] - 1
    assert checks.check_counts("s", sample.expected, counts, unknown, 512)


def _two_class(n=40, d=4, seed=5):
    rs = np.random.RandomState(seed)
    labels = ["good"] * (n // 2) + ["malware"] * (n // 2)
    X = rs.rand(n, d)
    X[n // 2:, 0] = np.clip(X[n // 2:, 0] + 0.4, 0, 1)
    return Dataset(attributes=tuple(f"a{j}" for j in range(d)), X=X, labels=tuple(labels),
                   scheme=LabelScheme.binary)


def test_kkt_rejects_one_alpha_above_c():
    ds = _two_class()
    spec, config = KernelSpec(C=1.0), TrainerConfig()
    machine = svm.train_multiclass(ds, spec, config).machines[0]
    y = np.where(np.array(ds.labels) == "malware", 1.0, -1.0)
    args = (ds.X, y, machine.support_vectors, machine.alphas, machine.bias, spec.C, config.tolerance, "m")
    assert checks.check_machine(*args) == []
    planted = machine.alphas.copy()
    planted[0] = spec.C + 1e-6
    problems = checks.check_machine(ds.X, y, machine.support_vectors, planted, machine.bias,
                                    spec.C, config.tolerance, "m")
    assert any("outside" in p for p in problems)


def test_predictions_reject_one_flipped_label():
    ds = _two_class()
    model = svm.train_multiclass(ds, KernelSpec(), TrainerConfig())
    predicted = svm.predict_dataset(model, ds)
    reloaded = svm.predict_dataset(svm.load_model(svm.save_model(model)), ds)
    assert checks.check_same_predictions(predicted, reloaded, "p") == []
    flipped = list(reloaded)
    flipped[3] = "good" if flipped[3] == "malware" else "malware"
    assert checks.check_same_predictions(predicted, flipped, "p")


def test_correlation_rejects_one_score_perturbed_by_1e_6():
    rs = np.random.RandomState(6)
    labels = tuple(["good", "Locky", "Cerber"][i % 3] for i in range(60))
    X = rs.rand(60, 5)
    X[:, 4] = 0.25  # a constant column scores 0
    ds = Dataset(attributes=tuple(f"a{j}" for j in range(5)), X=X, labels=labels, scheme=LabelScheme.family)
    scores = {s.attribute: s.score for s in featsel.rank_attributes(ds, "correlation")}
    assert checks.check_correlation(ds.attributes, scores, ds.X, ds.labels) == []
    scores["a2"] += 1e-6
    assert checks.check_correlation(ds.attributes, scores, ds.X, ds.labels)


def test_density_rows_reject_a_row_off_by_more_than_rounding():
    X = np.array([[0.33333333, 0.33333333, 0.33333334], [0.5, 0.5, 0.0]])
    assert checks.check_density_rows(X) == []
    X[1, 1] = 0.50000002
    assert checks.check_density_rows(X)


def test_kept_and_cv_matrix_reject_planted_errors():
    scores = {"a": 0.9, "b": 0.5, "c": 0.1}
    assert checks.check_kept(("a", "b"), scores, 0.1) == []
    assert checks.check_kept(("a",), scores, 0.1)
    cells = np.array([[3, 1], [0, 4]])
    assert checks.check_cv_matrix(cells, ("good", "malware"), ["good"] * 4 + ["malware"] * 4) == []
    assert checks.check_cv_matrix(cells, ("good", "malware"), ["good"] * 4 + ["malware"] * 5)


TINY = {
    "triage": TriageSize(train_per_class=4, batch_per_class=3, instructions=(200, 400),
                         random_bytes=(256, 512)),
    "train": TrainSize(n_per_class=30),
    "select": SelectSize(n_per_class=12),
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_with_no_failed_operation(name, trace, tmp_path):
    result = run.run(name, seed=7, seconds=0, trace=trace, size=TINY[name], work=tmp_path / "work")
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace:
        assert (tmp_path / f"trace-{name}-seed7.jsonl").is_file()


class _PlantedFailure(workloads.Workload):
    """Two calls a round; the second raises in every round from round
    ``size`` on."""

    ops_per_round = 2

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.rounds = 0

    def setup(self, work):
        self.new_work_dir(work)

    def run_round(self):
        self.rounds += 1
        self.call(time.sleep, 0.002)
        self.call(self._step)
        return {}

    def _step(self):
        if self.rounds >= self.size:
            raise RuntimeError("planted failure")

    def check(self, out):
        return []

    def results(self, out):
        return {"holdout_precision": 1.0, "attributes_kept": 3, "model_bytes": 100}


def test_run_whose_every_round_fails_is_not_correct(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "planted", (_PlantedFailure, 1))
    result = run.run("planted", seed=1, seconds=0.05, trace=False, work=tmp_path / "work")
    assert not result["correct"]
    assert result["failed"] * 2 == result["attempted"] > 0


def test_failing_last_round_keeps_the_checked_results_of_an_earlier_one(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "planted", (_PlantedFailure, 2))
    result = run.run("planted", seed=1, seconds=0.05, trace=False, work=tmp_path / "work")
    assert result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
