import hashlib
import json

import pytest

from opdense.cli import main
from opdense.dataio import read_arff, read_csv, write_arff
from opdense.errors import SchemaMismatch
from opdense.evaluation import default_grid
from opdense.featsel import EVALUATORS, load_selection
from pe_builder import text_only_pe


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared synthetic corpus taken all the way through the pipeline."""
    root = tmp_path_factory.mktemp("pipeline")
    p = lambda name: str(root / name)
    assert run("synth", "--out-dir", p("corpus"), "--classes", "2",
               "--n-per-class", "20", "--seed", "42") == 0
    assert run("ingest", p("corpus"), "--out", p("full.csv")) == 0
    assert run("preprocess", p("full.csv"), "--out", p("prep.csv"),
               "--iqr-report", p("iqr.csv"), "--seed", "42") == 0
    assert run("split", p("prep.csv"), "--percent", "30",
               "--train-out", p("train.csv"), "--test-out", p("test.csv")) == 0
    assert run("train", p("train.csv"), "--kernel", "puk", "--out", p("model.json")) == 0
    assert run("eval", p("model.json"), p("test.csv"), "--out", p("report.txt")) == 0
    return root


def test_pipeline_outputs_exist(pipeline):
    for name in ("full.csv", "prep.csv", "train.csv", "test.csv", "model.json",
                 "report.txt", "report.txt.json", "iqr.csv"):
        assert (pipeline / name).exists(), name


def test_pipeline_counts(pipeline):
    full = read_csv((pipeline / "full.csv").read_bytes())
    train = read_csv((pipeline / "train.csv").read_bytes())
    test = read_csv((pipeline / "test.csv").read_bytes())
    assert full.n_instances == 40
    assert train.n_instances == 28 and test.n_instances == 12


def test_iqr_report_row_per_instance(pipeline):
    lines = (pipeline / "iqr.csv").read_text().strip().splitlines()
    assert lines[0] == "instance,outlier,extreme"
    assert len(lines) == 41


def test_model_file_echoes_defaults(pipeline):
    doc = json.loads((pipeline / "model.json").read_text())
    assert doc["kernel"]["family"] == "puk"
    assert doc["kernel"]["sigma"] == 1.0
    assert doc["kernel"]["omega"] == 1.0
    assert doc["kernel"]["C"] == 1.0


def test_eval_report_machine_readable(pipeline):
    doc = json.loads((pipeline / "report.txt.json").read_text())
    assert "weighted" in doc and "precision" in doc["weighted"]
    assert doc["weighted"]["precision"] >= 0.9


def test_cv_command(pipeline):
    assert run("cv", pipeline / "train.csv", "--k", "4", "--kernel", "puk",
               "--out", pipeline / "cv.txt") == 0
    assert (pipeline / "cv.txt.json").exists()


def test_select_reduce_roundtrip(pipeline):
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation",
               "--search", "ranker", "--threshold", "0.1",
               "--out", pipeline / "sel.json") == 0
    selection = load_selection((pipeline / "sel.json").read_text())
    assert selection.evaluator == "correlation"
    assert 0 < len(selection.retained)
    assert run("reduce", pipeline / "train.csv", pipeline / "sel.json",
               "--out", pipeline / "reduced.csv") == 0
    reduced = read_csv((pipeline / "reduced.csv").read_bytes())
    assert reduced.attributes == selection.retained


def test_a_negative_threshold_in_exponent_form_selects_with_the_equals_sign(pipeline, tmp_path):
    # argparse takes a bare "-1e-3" for an option; "--threshold=-1e-3" is a value
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation",
               "--threshold=-1e-3", "--out", tmp_path / "sel.json") == 0
    selection = load_selection((tmp_path / "sel.json").read_text())
    assert selection.threshold == -1e-3
    train = read_csv((pipeline / "train.csv").read_bytes())
    assert sorted(selection.retained) == sorted(train.attributes)  # every score is above -1e-3
    assert run("reduce", pipeline / "train.csv", tmp_path / "sel.json", "--out", tmp_path / "reduced.csv") == 0
    assert read_csv((tmp_path / "reduced.csv").read_bytes()).attributes == selection.retained


def test_reduce_to_an_empty_selection_reads_back(pipeline):
    # no correlation score passes a threshold of 2, so no attribute is kept
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation",
               "--search", "ranker", "--threshold", "2",
               "--out", pipeline / "none.json") == 0
    assert load_selection((pipeline / "none.json").read_text()).retained == ()
    train = read_csv((pipeline / "train.csv").read_bytes())
    for name, read in (("empty.csv", read_csv), ("empty.arff", read_arff)):
        assert run("reduce", pipeline / "train.csv", pipeline / "none.json", "--out", pipeline / name) == 0
        reduced = read((pipeline / name).read_bytes())
        assert reduced.attributes == () and reduced.X.shape == (train.n_instances, 0)
        assert reduced.labels == train.labels


def test_select_cfs_best_first(pipeline):
    assert run("select", pipeline / "train.csv", "--evaluator", "cfs-subset",
               "--search", "best-first", "--out", pipeline / "cfs.json") == 0
    selection = load_selection((pipeline / "cfs.json").read_text())
    assert selection.search == "best_first"
    assert len(selection.retained) >= 1


def test_select_pca_and_reduce(pipeline):
    assert run("select", pipeline / "train.csv", "--evaluator", "pca",
               "--out", pipeline / "pca.json") == 0
    assert run("reduce", pipeline / "train.csv", pipeline / "pca.json",
               "--out", pipeline / "pca_train.csv") == 0
    reduced = read_csv((pipeline / "pca_train.csv").read_bytes())
    assert reduced.attributes[0] == "pc1"


def test_tune_threshold_command(pipeline):
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation",
               "--threshold", "-1", "--out", pipeline / "scores.json") == 0
    assert run("tune-threshold", pipeline / "train.csv", pipeline / "test.csv",
               pipeline / "scores.json", "--kernel", "puk",
               "--out", pipeline / "sweep.txt",
               "--selection-out", pipeline / "best.json") == 0
    doc = json.loads((pipeline / "sweep.txt.json").read_text())
    assert doc["retained"] <= 70
    best = load_selection((pipeline / "best.json").read_text())
    assert len(best.retained) == doc["retained"]
    # the sweep keeps steps whose metric did not drop, which fits no lower-is-better metric
    assert run("tune-threshold", pipeline / "train.csv", pipeline / "test.csv", pipeline / "scores.json",
               "--metric", "fpr", "--out", pipeline / "fpr.txt") == 1


@pytest.mark.parametrize("evaluator, search", [
    ("cfs-subset", "ranker"), ("pca", "best-first"), ("correlation", "greedy-stepwise")])
def test_select_with_a_search_the_evaluator_cannot_use_exits_1(pipeline, tmp_path, capsys, evaluator, search):
    out = tmp_path / "sel.json"
    assert run("select", pipeline / "train.csv", "--evaluator", evaluator, "--search", search, "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: UsageError: ")
    assert not out.exists()


@pytest.mark.parametrize("flags, cut", [
    (("--evaluator", "cfs-subset", "--search", "best-first"), ("--num-to-select", "3")),
    (("--evaluator", "cfs-subset", "--search", "best-first"), ("--threshold", "0.1")),
    (("--evaluator", "pca"), ("--num-to-select", "3")),
    (("--evaluator", "pca"), ("--threshold", "0.1")),
    (("--evaluator", "cfs-subset", "--search", "greedy-stepwise"), ("--num-to-select", "3")),
    (("--evaluator", "cfs-subset", "--search", "greedy-stepwise"), ("--threshold", "0.1")),
], ids=["best-first count", "best-first threshold", "pca count", "pca threshold", "greedy-stepwise count",
        "greedy-stepwise threshold"])
def test_select_refuses_a_cut_where_it_makes_no_ranking(pipeline, tmp_path, capsys, flags, cut):
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert run("select", pipeline / "train.csv", *flags, *cut, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: UsageError: {cut[0]} cut a ranking")
    assert not out.exists()
    # without the cut, the same run selects
    assert run("select", pipeline / "train.csv", *flags, "--out", out) == 0


def test_cfs_selection_has_no_scores_to_sweep(pipeline, tmp_path, capsys):
    assert run("select", pipeline / "train.csv", "--evaluator", "cfs-subset", "--search", "best-first",
               "--out", tmp_path / "cfs.json") == 0
    capsys.readouterr()
    assert run("tune-threshold", pipeline / "train.csv", pipeline / "test.csv", tmp_path / "cfs.json",
               "--out", tmp_path / "sweep.txt") == 1
    assert capsys.readouterr().err.startswith("error: UsageError: the selection file carries no attribute scores")
    assert not (tmp_path / "sweep.txt").exists()


def test_pca_selection_has_no_ranking_to_sweep_or_aggregate(pipeline, tmp_path, capsys):
    assert run("select", pipeline / "train.csv", "--evaluator", "pca", "--out", tmp_path / "pca.json") == 0
    capsys.readouterr()
    assert run("tune-threshold", pipeline / "train.csv", pipeline / "test.csv", tmp_path / "pca.json",
               "--out", tmp_path / "sweep.txt") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UsageError: principal components") and "Traceback" not in err
    assert not (tmp_path / "sweep.txt").exists()
    assert run("rank-aggregate", *[tmp_path / "pca.json"] * 7, "--out", tmp_path / "agg.txt") == 1
    assert capsys.readouterr().err.startswith("error: UsageError: principal components")


def test_removed_options_exit_1_and_write_no_file(pipeline, tmp_path, capsys):
    # no evaluator draws a random number, and no report carries the time
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation", "--seed", "1",
               "--out", tmp_path / "sel.json") == 1
    assert run("eval", pipeline / "model.json", pipeline / "test.csv", "--stamp",
               "--out", tmp_path / "report.txt") == 1
    assert capsys.readouterr().err.count("error: usage: unrecognized arguments: ") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def selection_outputs(tmp_path_factory):
    """Every file the selection commands write for the six-class synthetic
    corpus (30 samples per class, seed 42)."""
    root = tmp_path_factory.mktemp("selection")
    p = lambda name: str(root / name)
    assert run("synth", "--out-dir", p("corpus"), "--classes", "6", "--n-per-class", "30", "--seed", "42") == 0
    assert run("ingest", p("corpus"), "--out", p("full.csv")) == 0
    assert run("preprocess", p("full.csv"), "--out", p("prep.csv"), "--seed", "42") == 0
    assert run("split", p("prep.csv"), "--train-out", p("train.csv"), "--test-out", p("test.csv")) == 0
    rankers = ("correlation", "gain-ratio", "info-gain", "one-r", "relieff", "symm-uncert")
    for evaluator in rankers + ("pca",):
        assert run("select", p("train.csv"), "--evaluator", evaluator, "--out", p(f"{evaluator}.json")) == 0
    for name, flags in (("cfs-best-first", ["--search", "best-first"]),
                        ("cfs-greedy", ["--search", "greedy-stepwise"]),
                        ("cfs-greedy-ranking", ["--search", "greedy-stepwise", "--generate-ranking"])):
        assert run("select", p("train.csv"), "--evaluator", "cfs-subset", *flags, "--out", p(f"{name}.json")) == 0
    assert run("tune-threshold", p("train.csv"), p("test.csv"), p("correlation.json"),
               "--out", p("sweep.txt"), "--selection-out", p("tuned.json")) == 0
    assert run("rank-aggregate", *[p(f"{e}.json") for e in rankers], p("cfs-best-first.json"),
               "--out", p("aggregate.txt")) == 0
    return root


# sha256 prefixes of the selection outputs, recorded before featsel was
# folded to one copy of each rule; every byte must stay the same
PINNED_SELECTION_OUTPUTS = {
    "correlation.json": "45202dad780f8d2b",
    "gain-ratio.json": "48e0d2b37ac1aeb9",
    "info-gain.json": "57dbfbe667988ad6",
    "one-r.json": "0aafbf527a453ab4",
    "relieff.json": "142f61eea988a5e4",
    "symm-uncert.json": "38e1b85a86f9db52",
    "pca.json": "b54cd99d085ea734",
    "cfs-best-first.json": "cd9c6c4f1e203993",
    "cfs-greedy.json": "e2c6a24e513ecc03",
    "cfs-greedy-ranking.json": "973bde93fb94f76a",
    "sweep.txt": "a2e0a4cec950a3fe",
    "sweep.txt.json": "5e281154b491c0cd",
    "tuned.json": "e70ec615ff1d24fa",
    "aggregate.txt": "ae022206fc2cc4fc",
}


def test_pinned_selection_output(selection_outputs):
    digests = {name: hashlib.sha256((selection_outputs / name).read_bytes()).hexdigest()[:16]
               for name in PINNED_SELECTION_OUTPUTS}
    assert digests == PINNED_SELECTION_OUTPUTS


# sha256 prefixes of the pipeline fixture's text outputs, recorded before
# the report parser, density assembly and dataset writers went to one call
# per row; "full.arff" is full.csv written as ARFF, and "model.json" is the
# model document re-encoded with sorted keys, since its layout may change
# but its content may not
PINNED_PIPELINE_OUTPUTS = {
    "full.csv": "ccbdd35651691588",
    "prep.csv": "18e9146beb725e6e",
    "train.csv": "a05382afb3b81c69",
    "test.csv": "8302624eccaba37c",
    "iqr.csv": "6944b4b0142ebe2e",
    "report.txt": "865a5487829daa3f",
    "report.txt.json": "324f65a387e1bc2f",
    "full.arff": "49a9063e5a7ecc31",
    "model.json": "90fd9bf1a8f40c23",
}


def test_pinned_pipeline_output(pipeline):
    texts = {name: (pipeline / name).read_bytes() for name in PINNED_PIPELINE_OUTPUTS if name != "full.arff"}
    texts["full.arff"] = write_arff(read_csv(texts["full.csv"]))
    texts["model.json"] = json.dumps(json.loads(texts["model.json"]), sort_keys=True).encode()
    digests = {name: hashlib.sha256(texts[name]).hexdigest()[:16] for name in PINNED_PIPELINE_OUTPUTS}
    assert digests == PINNED_PIPELINE_OUTPUTS


def test_tune_kernel_command(pipeline):
    assert run("tune-kernel", pipeline / "train.csv", pipeline / "test.csv",
               "--kernels", "puk", "--out", pipeline / "grid.txt") == 0
    rows = json.loads((pipeline / "grid.txt.json").read_text())
    assert len(rows) == 4  # four complexity values for the puk family


def test_rank_aggregate_command(tmp_path):
    from opdense.featsel import ranker_select, save_selection
    from opdense.featsel.selection import AttributeScore
    paths = []
    for i in range(7):
        scores = [AttributeScore("fdivp", 1.0), AttributeScore("mov", 0.5)]
        sel = ranker_select(scores, threshold=0.0, evaluator="correlation")
        path = tmp_path / f"sel{i}.json"
        path.write_text(save_selection(sel))
        paths.append(path)
    out = tmp_path / "ranking.txt"
    assert run("rank-aggregate", *paths, "--out", out) == 0
    text = out.read_text()
    assert text.splitlines()[1].split()[1] == "fdivp"


def test_rank_aggregate_wrong_count(tmp_path):
    out = tmp_path / "ranking.txt"
    assert run("rank-aggregate", tmp_path / "missing.json", "--out", out) == 1


def test_disasm_command(tmp_path):
    pe_path = tmp_path / "tiny.bin"
    pe_path.write_bytes(text_only_pe(b"\x90\x90\xC3"))
    assert run("disasm", pe_path, "--out-dir", tmp_path / "reports") == 0
    text = (tmp_path / "reports" / "tiny.txt").read_text()
    assert "nop" in text and "ret" in text and "TOTAL\t3" in text


def test_disasm_reports_unknown_bytes(tmp_path, capsys):
    pe_path = tmp_path / "odd.bin"
    # 0F 01 D0 (xgetbv) lies outside the decoder's coverage: its 0F byte
    # is unknown, and 01 D0 then decodes as add
    pe_path.write_bytes(text_only_pe(bytes.fromhex("900F01D0C3")))
    capsys.readouterr()
    assert run("disasm", pe_path, "--out-dir", tmp_path / "reports") == 0
    assert capsys.readouterr().out == "odd.bin: 3 instructions, 3 distinct opcodes, 1 unknown bytes\n"


def test_disasm_rejects_non_pe(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a pe file")
    assert run("disasm", bad, "--out-dir", tmp_path / "reports") == 2


@pytest.mark.parametrize("make_unreadable", [
    lambda path: None,
    lambda path: path.mkdir(),
], ids=["missing", "directory"])
def test_disasm_unreadable_file_fails_alone(tmp_path, capsys, make_unreadable):
    # sorted first, the unreadable path must not stop the valid PE after it
    make_unreadable(tmp_path / "a.exe")
    (tmp_path / "z.exe").write_bytes(text_only_pe(b"\x90\xC3"))
    capsys.readouterr()
    assert run("disasm", tmp_path / "a.exe", tmp_path / "z.exe", "--out-dir", tmp_path / "reports") == 2
    assert "TOTAL\t2" in (tmp_path / "reports" / "z.txt").read_text()
    assert not (tmp_path / "reports" / "a.txt").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: ") and "a.exe" in err[0]
    assert err[1] == "1 file(s) failed"


def test_disasm_refuses_inputs_with_the_same_stem(tmp_path, capsys):
    # both would be written to x.txt, so nothing is written at all
    for folder, code in (("a", b"\x90\xC3"), ("b", b"\x90\x90\x90\xC3")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "x.exe").write_bytes(text_only_pe(code))
    capsys.readouterr()
    assert run("disasm", tmp_path / "a" / "x.exe", tmp_path / "b" / "x.exe", "--out-dir", tmp_path / "reports") == 2
    assert not (tmp_path / "reports").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "x.exe" in err[0]


def test_ingest_partial_failure_warns_but_succeeds(tmp_path, capsys):
    (tmp_path / "good").mkdir()
    (tmp_path / "good" / "a.txt").write_text("1. 5 50.00% mov\n")
    (tmp_path / "good" / "bad.txt").write_text("garbage\n")
    (tmp_path / "malware").mkdir()
    (tmp_path / "malware" / "b.txt").write_text("1. 5 50.00% ret\n")
    assert run("ingest", tmp_path, "--out", tmp_path / "out.csv") == 0
    captured = capsys.readouterr()
    assert "bad.txt" in captured.err
    ds = read_csv((tmp_path / "out.csv").read_bytes())
    assert ds.n_instances == 2


def test_ingest_dedupe_keeps_the_first_sample_of_each_row(tmp_path, capsys):
    for label, sample, text in (("good", "a", "1. 3 75.00% mov\n2. 1 25.00% ret\n"),
                                ("good", "b", "1. 1 50.00% mov\n2. 1 50.00% ret\n"),
                                ("malware", "c", "1. 6 75.00% mov\n2. 2 25.00% ret\n"),
                                ("malware", "d", "1. 2 100.00% push\n")):
        (tmp_path / label).mkdir(exist_ok=True)
        (tmp_path / label / f"{sample}.txt").write_text(text)
    assert run("ingest", tmp_path, "--out", tmp_path / "all.csv") == 0
    assert run("ingest", tmp_path, "--dedupe", "--out", tmp_path / "unique.csv") == 0
    assert "samples: 3 " in capsys.readouterr().out
    every = read_csv((tmp_path / "all.csv").read_bytes())
    unique = read_csv((tmp_path / "unique.csv").read_bytes())
    assert every.n_instances == 4  # c has a's densities under the other label
    assert unique.labels == ("good", "good", "malware")
    assert unique.X.tolist() == every.X[[0, 1, 3]].tolist()


def test_usage_error_exit_code():
    assert run("train") == 1
    assert run("no-such-command") == 1


def test_data_error_exit_code(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run("preprocess", missing, "--out", tmp_path / "x.csv") == 2


def test_numeric_error_exit_code(tmp_path):
    # zero-norm row breaks the normalized polynomial kernel
    csv = tmp_path / "zero.csv"
    csv.write_text("mov,ret,class\n0.00000000,0.00000000,good\n"
                   "1.00000000,0.00000000,malware\n")
    assert run("train", csv, "--kernel", "normalized-poly",
               "--out", tmp_path / "m.json") == 3


def _header_only(pipeline, tmp_path):
    """The pipeline's test set without its rows."""
    empty = tmp_path / "empty.csv"
    empty.write_text((pipeline / "test.csv").read_text().splitlines()[0] + "\n")
    return empty


def test_eval_empty_test_set(tmp_path, pipeline):
    empty = _header_only(pipeline, tmp_path)
    assert run("eval", pipeline / "model.json", empty, "--out", tmp_path / "r.txt") == 2


@pytest.mark.parametrize("matrix", ["correlation", "covariance"])
@pytest.mark.filterwarnings("error")  # refused before any numpy call divides by a count of 0
def test_pca_of_a_dataset_without_rows_exits_2(pipeline, tmp_path, capsys, matrix):
    empty = _header_only(pipeline, tmp_path)
    capsys.readouterr()
    assert run("select", empty, "--evaluator", "pca", "--pca-matrix", matrix, "--out", tmp_path / "s.json") == 2
    assert capsys.readouterr().err == "error: EmptyResult: principal components need at least one instance\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("evaluator", [e.replace("_", "-") for e in EVALUATORS])
def test_every_evaluator_refuses_a_dataset_without_rows(pipeline, tmp_path, capsys, evaluator):
    empty = _header_only(pipeline, tmp_path)
    search = ["--search", "best-first"] if evaluator == "cfs-subset" else []
    capsys.readouterr()
    assert run("select", empty, "--evaluator", evaluator, *search, "--out", tmp_path / "s.json") == 2
    assert capsys.readouterr().err.startswith("error: EmptyResult: ")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("empty_side, error", [
    ("train", "SingleClass: need at least two classes, found []"),
    ("test", "EmptyTestSet: test set is empty"),
], ids=["no train rows", "no test rows"])
def test_tune_kernel_where_no_cell_trains_writes_its_error_rows_and_exits_2(pipeline, tmp_path, capsys,
                                                                              empty_side, error):
    empty = _header_only(pipeline, tmp_path)
    train = empty if empty_side == "train" else pipeline / "train.csv"
    test = empty if empty_side == "test" else pipeline / "test.csv"
    out = tmp_path / "grid.txt"
    capsys.readouterr()
    assert run("tune-kernel", train, test, "--kernels", "puk", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and "best cell" not in captured.out
    kernels = [spec.describe() for spec in default_grid(["puk"])]
    message = error.split(": ", 1)[1]
    assert out.read_text().splitlines()[1:] == [f"{k:<40}{'error':>10}: {message}" for k in kernels]
    assert json.loads((tmp_path / "grid.txt.json").read_text()) == [{"kernel": k, "error": message} for k in kernels]


def test_ingest_where_no_report_parses_exits_1_and_writes_nothing(tmp_path, capsys):
    for label in ("good", "malware"):
        (tmp_path / label).mkdir()
        (tmp_path / label / f"{label}.txt").write_text("garbage\n")
    capsys.readouterr()
    assert run("ingest", tmp_path, "--out", tmp_path / "out.csv") == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: UsageError: no report parsed successfully"
    assert len(err) == 3 and all(line.startswith("warning: ") for line in err[:2])
    assert not (tmp_path / "out.csv").exists()


# command -> the error it exits 2 with; {p} is the pipeline, {header_only}
# its test set without rows and {empty} a file of no bytes
REFUSED_INPUTS = {
    "cv of one fold": (["cv", "{p}/train.csv", "--k", "1"], "SchemaMismatch: need at least 2 folds"),
    "preprocess of no rows": (["preprocess", "{header_only}"], "EmptyResult: cannot scale an empty dataset"),
    "train on an empty file": (["train", "{empty}"], "SchemaMismatch: empty CSV"),
}


@pytest.mark.parametrize("argv, error", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS.keys())
def test_refused_input_exits_2_and_writes_nothing(pipeline, tmp_path, capsys, argv, error):
    inputs = {"p": pipeline, "header_only": _header_only(pipeline, tmp_path), "empty": tmp_path / "nothing.csv"}
    inputs["empty"].write_bytes(b"")
    capsys.readouterr()
    assert run(*(a.format(**inputs) for a in argv), "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not list(tmp_path.glob("out*"))


def test_correlation_of_a_one_class_split_scores_every_attribute_zero(pipeline, tmp_path):
    lines = (pipeline / "train.csv").read_text().splitlines()
    (tmp_path / "good.csv").write_text("\n".join([lines[0]] + [x for x in lines[1:] if x.endswith(",good")]) + "\n")
    assert run("select", tmp_path / "good.csv", "--evaluator", "correlation", "--out", tmp_path / "sel.json") == 0
    selection = load_selection((tmp_path / "sel.json").read_text())
    assert len(selection.scores) == 70 and {s.score for s in selection.scores} == {0.0}


def test_ingest_manifest_skips_blank_rows(pipeline, tmp_path):
    manifest = _relabeling_manifest(pipeline).decode()
    outputs = []
    for name, text in (("plain", manifest), ("blanks", "\n" + manifest.replace("\n", "\n \n,\n", 3))):
        (tmp_path / f"{name}.csv").write_text(text)
        assert run("ingest", pipeline / "corpus", "--manifest", tmp_path / f"{name}.csv",
                   "--out", tmp_path / f"{name}.out.csv") == 0
        outputs.append((tmp_path / f"{name}.out.csv").read_bytes())
    assert outputs[1] == outputs[0]
    assert read_csv(outputs[0]).labels.count("malware") == 20


def test_ingest_manifest_listing_a_sample_twice_exits_2(pipeline, tmp_path, capsys):
    (tmp_path / "m.csv").write_text("good_000,good\ngood_000,malware\n")
    capsys.readouterr()
    assert run("ingest", pipeline / "corpus", "--manifest", tmp_path / "m.csv", "--out", tmp_path / "out.csv") == 2
    assert capsys.readouterr().err == "error: MalformedLine: line 2: sample id 'good_000' appears twice: 'good_000,malware'\n"
    assert not (tmp_path / "out.csv").exists()


def test_determinism_full_pipeline(tmp_path):
    outputs = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        p = lambda name: str(base / name)
        run("synth", "--out-dir", p("corpus"), "--classes", "6",
            "--n-per-class", "4", "--seed", "7")
        run("ingest", p("corpus"), "--out", p("full.csv"))
        run("preprocess", p("full.csv"), "--out", p("prep.csv"), "--seed", "7")
        run("split", p("prep.csv"), "--train-out", p("train.csv"), "--test-out", p("test.csv"))
        run("train", p("train.csv"), "--kernel", "rbf", "--gamma", "0.1", "--out", p("model.json"))
        run("eval", p("model.json"), p("test.csv"), "--out", p("report.txt"))
        outputs.append({
            name: (base / name).read_bytes()
            for name in ("full.csv", "prep.csv", "train.csv", "test.csv",
                         "model.json", "report.txt", "report.txt.json")
        })
    assert outputs[0] == outputs[1]


# --- corrupt model and selection files ------------------------------------------

_DROP = object()


def _corrupt(doc, path, value):
    """The document with the entry at ``path`` replaced by ``value`` (or
    dropped), as JSON text; a ``None`` path makes ``value`` the whole text.
    A callable ``value`` is first called with the document."""
    if callable(value):
        value = value(doc)
    if path is None:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DROP:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(doc)


def _schema_2(doc):
    """The model in the layout of schema 2, where each machine holds its own
    support vectors, alphas and labels, as JSON text."""
    table = doc.pop("support_vectors")
    for m in doc["machines"]:
        coef = m.pop("coef")
        m["support_vectors"] = [table[r] for r in m.pop("rows")]
        m["alphas"] = [abs(c) for c in coef]
        m["labels"] = [1 if c > 0 else -1 for c in coef]
        del m["iterations"], m["kkt_gap"]
    doc["schema"] = 2
    return json.dumps(doc)


MODEL_DEFECTS = {
    "not json": (None, "{schema: 1"),
    "array": (None, "[1, 2]"),
    "string": (None, '"model"'),
    "schema only": (None, '{"schema": 1}'),
    "integer too long to convert": (None, '{"schema": ' + "2" * 5000 + "}"),
    "no kernel": (["kernel"], _DROP),
    "kernel C a string": (["kernel", "C"], "1.0"),
    "kernel exponent null": (["kernel", "exponent"], None),
    "unknown scheme": (["scheme"], "ternary"),
    "classes a string": (["classes"], "good"),
    "scaling an array": (["scaling"], [0.0, 1.0]),
    "scaling too short": (["scaling"], {"min": [0.0], "max": [1.0]}),
    "machines an object": (["machines"], {}),
    "machine an array": (["machines", 0], []),
    "alpha a string": (["machines", 0, "coef", 0], "x"),
    "ragged support vectors": (["support_vectors", 0], [0.5]),
    "alphas too short": (["machines", 0, "coef"], [1.0]),
    "rows too short": (["machines", 0, "rows"], [0]),
    "row index past the table": (["machines", 0, "rows", 0], lambda doc: len(doc["support_vectors"])),
    "row index negative": (["machines", 0, "rows", 0], -1),
    "row index a float": (["machines", 0, "rows", 0], 0.0),
    "row index a bool": (["machines", 0, "rows", 0], True),
    "rows a string": (["machines", 0, "rows"], "0"),
    "coef zero": (["machines", 0, "coef", 0], 0.0),
    "coef NaN": (["machines", 0, "coef", 0], float("nan")),
    "coef infinite": (["machines", 0, "coef", 0], float("inf")),
    "no coef": (["machines", 0, "coef"], _DROP),
    "support vectors too narrow": (["support_vectors"], lambda doc: [r[:-1] for r in doc["support_vectors"]]),
    "support vectors too wide": (["support_vectors"], lambda doc: [r + [0.0] for r in doc["support_vectors"]]),
    "no support vector table": (["support_vectors"], _DROP),
    "iterations negative": (["machines", 0, "iterations"], -1),
    "iterations a float": (["machines", 0, "iterations"], 2.0),
    "iterations a bool": (["machines", 0, "iterations"], True),
    "no iterations": (["machines", 0, "iterations"], _DROP),
    "kkt gap NaN": (["machines", 0, "kkt_gap"], float("nan")),
    "kkt gap a string": (["machines", 0, "kkt_gap"], "0.0"),
    "kkt gap past the float range": (["machines", 0, "kkt_gap"], 10 ** 400),
    "no kkt gap": (["machines", 0, "kkt_gap"], _DROP),
    "bias NaN": (["machines", 0, "bias"], float("nan")),
    "bias past the float range": (["machines", 0, "bias"], -10 ** 400),
    "kernel C past the float range": (["kernel", "C"], 10 ** 400),
    "schema 2 document": (None, _schema_2),
    "pair outside classes": (["machines", 0, "pair"], ["good", "Locky"]),
    "bias null": (["machines", 0, "bias"], None),
    "no cap flag": (["machines", 0, "hit_iteration_cap"], _DROP),
    "scheme null": (["scheme"], None),
    "schema 1": (["schema"], 1),
    "kernel sigma NaN": (["kernel", "sigma"], float("nan")),
    "no machines": (["machines"], []),
    "pair reversed": (["machines", 0, "pair"], ["malware", "good"]),
    "pair one class twice": (["machines", 0, "pair"], ["good", "good"]),
    "warnings not the cap warnings": (["warnings"], ["pair (good, malware) hit the iteration cap; best effort kept"]),
    "no warnings": (["warnings"], _DROP),
    "scaling min above max": (["scaling"], lambda doc: {"min": [1.0] * len(doc["attributes"]),
                                                        "max": [0.0] * len(doc["attributes"])}),
}


@pytest.mark.parametrize("path, value", MODEL_DEFECTS.values(), ids=MODEL_DEFECTS.keys())
def test_corrupt_model_file_exits_2(pipeline, tmp_path, capsys, path, value):
    from opdense.svm import load_model
    text = _corrupt(json.loads((pipeline / "model.json").read_text()), path, value)
    with pytest.raises(SchemaMismatch):
        load_model(text)
    bad = tmp_path / "model.json"
    bad.write_text(text)
    capsys.readouterr()
    assert run("eval", bad, pipeline / "test.csv", "--out", tmp_path / "r.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--tolerance", "0"),
    ("--max-iterations", "-1"),
    ("--sigma", "nan"),
    ("--c", "inf"),
])
def test_out_of_range_trainer_setting_exits_2(pipeline, tmp_path, capsys, flag, value):
    capsys.readouterr()
    assert run("train", pipeline / "train.csv", flag, value, "--out", tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_nonpositive_poly_exponent_exits_2(pipeline, tmp_path, capsys):
    capsys.readouterr()
    assert run("train", pipeline / "train.csv", "--kernel", "poly", "--exponent", "-1",
               "--out", tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, data, flags", [
    ("select", "train.csv", ("--evaluator", "relieff", "--relieff-k", "0")),
    ("select", "train.csv", ("--evaluator", "cfs-subset", "--search", "best-first", "--backtrack", "-1")),
    ("select", "train.csv", ("--evaluator", "pca", "--pca-variance", "2")),
    ("select", "train.csv", ("--evaluator", "pca", "--pca-variance", "0")),
    ("preprocess", "full.csv", ("--iqr-report", "{tmp}/iqr.csv", "--outlier-factor", "-1")),
    ("preprocess", "full.csv", ("--iqr-report", "{tmp}/iqr.csv", "--outlier-factor", "nan")),
    ("select", "train.csv", ("--evaluator", "info-gain", "--bins", "1")),
], ids=["relieff k 0", "backtrack -1", "pca variance 2", "pca variance 0", "outlier factor -1", "outlier factor nan",
        "info-gain bins 1"])
def test_out_of_range_selection_or_iqr_setting_exits_2(pipeline, tmp_path, capsys, command, data, flags):
    capsys.readouterr()
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert run(command, pipeline / data, *flags, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flags", [
    ("--evaluator", "correlation"),
    ("--evaluator", "cfs-subset", "--search", "greedy-stepwise", "--generate-ranking"),
], ids=["correlation ranker", "cfs greedy-stepwise ranking"])
def test_a_threshold_that_is_not_finite_exits_2(pipeline, tmp_path, capsys, flags, value):
    # the '=' form, because argparse takes a bare "-inf" for an option
    capsys.readouterr()
    assert run("select", pipeline / "train.csv", *flags, f"--threshold={value}", "--out", tmp_path / "sel.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch: threshold must be a finite number") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_one_r_bucket_size_below_one_exits_2(pipeline, tmp_path, capsys, value):
    capsys.readouterr()
    assert run("select", pipeline / "train.csv", "--evaluator", "one-r", "--min-bucket", value,
               "--out", tmp_path / "sel.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_pca_selection_on_other_attributes_exits_2(pipeline, tmp_path, capsys):
    from opdense.dataset import project
    from opdense.dataio import write_csv
    from opdense.featsel import pca_eval, save_selection
    train = read_csv((pipeline / "train.csv").read_bytes())
    (tmp_path / "pca.json").write_text(save_selection(pca_eval(train)))
    (tmp_path / "narrow.csv").write_bytes(write_csv(project(train, train.attributes[-3:])))
    capsys.readouterr()
    assert run("reduce", tmp_path / "narrow.csv", tmp_path / "pca.json", "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: UnknownAttribute: attribute not present in the dataset: {train.attributes[0]!r}")


def test_pca_selection_aligns_a_reordered_or_wider_dataset_by_name(pipeline, tmp_path):
    import numpy as np
    from opdense.dataset import Dataset, project
    from opdense.dataio import write_csv
    from opdense.featsel import pca_eval, save_selection
    train = read_csv((pipeline / "train.csv").read_bytes())
    wider = Dataset(attributes=("extra",) + train.attributes, X=np.hstack([np.ones((train.n_instances, 1)), train.X]),
                    labels=train.labels, scheme=train.scheme)
    (tmp_path / "pca.json").write_text(save_selection(pca_eval(train)))
    (tmp_path / "reversed.csv").write_bytes(write_csv(project(train, train.attributes[::-1])))
    (tmp_path / "wider.csv").write_bytes(write_csv(wider))
    reduced = {}
    for name, data in (("in order", pipeline / "train.csv"), ("reversed", tmp_path / "reversed.csv"),
                       ("wider", tmp_path / "wider.csv")):
        assert run("reduce", data, tmp_path / "pca.json", "--out", tmp_path / "r.csv") == 0
        reduced[name] = (tmp_path / "r.csv").read_bytes()
    assert reduced["reversed"] == reduced["in order"] and reduced["wider"] == reduced["in order"]


def test_ranked_selection_of_a_missing_attribute_exits_2(pipeline, tmp_path, capsys):
    from opdense.dataset import project
    from opdense.dataio import write_csv
    from opdense.featsel import AttributeScore, ranker_select, save_selection
    train = read_csv((pipeline / "train.csv").read_bytes())
    assert "xor" in train.attributes
    (tmp_path / "sel.json").write_text(save_selection(ranker_select([AttributeScore("xor", 1.0)], threshold=0.0)))
    (tmp_path / "no_xor.csv").write_bytes(write_csv(project(train, [a for a in train.attributes if a != "xor"])))
    capsys.readouterr()
    assert run("reduce", tmp_path / "no_xor.csv", tmp_path / "sel.json", "--out", tmp_path / "r.csv") == 2
    assert capsys.readouterr().err == "error: UnknownAttribute: attribute not present in the dataset: 'xor'\n"
    assert not (tmp_path / "r.csv").exists()


def test_eval_takes_the_model_attributes_from_a_wider_split_and_names_a_missing_one(pipeline, tmp_path, capsys):
    p = lambda name: tmp_path / name
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation", "--num-to-select", "5",
               "--out", p("sel.json")) == 0
    for split in ("train", "test"):
        assert run("reduce", pipeline / f"{split}.csv", p("sel.json"), "--out", p(f"r_{split}.csv")) == 0
    assert run("train", p("r_train.csv"), "--kernel", "puk", "--out", p("r_model.json")) == 0
    outputs = {}
    for name, test in (("reduced", p("r_test.csv")), ("full", pipeline / "test.csv")):
        assert run("eval", p("r_model.json"), test, "--out", p(f"{name}.txt")) == 0
        outputs[name] = (p(f"{name}.txt").read_bytes(), p(f"{name}.txt.json").read_bytes())
    assert outputs["full"] == outputs["reduced"]
    assert "Attributes: 5\n" in outputs["full"][0].decode()
    kept = set(load_selection(p("sel.json").read_text()).retained)
    missing = next(a for a in read_csv((pipeline / "train.csv").read_bytes()).attributes if a not in kept)
    capsys.readouterr()
    assert run("eval", pipeline / "model.json", p("r_test.csv"), "--out", p("narrow.txt")) == 2
    assert capsys.readouterr().err == f"error: UnknownAttribute: attribute not present in the dataset: {missing!r}\n"
    assert not p("narrow.txt").exists()


def test_ingest_skips_a_stray_label_without_dropping_a_class(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run("synth", "--out-dir", corpus, "--classes", "2", "--n-per-class", "100", "--seed", "42") == 0
    stray = corpus / "foo" / "stray.txt"
    stray.parent.mkdir()
    stray.write_bytes(next((corpus / "malware").glob("*.txt")).read_bytes())
    capsys.readouterr()
    assert run("ingest", corpus, "--out", tmp_path / "out.csv") == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"warning: {stray}: UnresolvedLabel: stray: label 'foo' fits no scheme"]
    assert "scheme: binary" in captured.out
    ds = read_csv((tmp_path / "out.csv").read_bytes())
    assert ds.n_instances == 200 and ds.labels.count("malware") == 100


def test_train_on_mixed_binary_and_family_labels_names_the_first_bad_label(tmp_path, capsys):
    csv = tmp_path / "mixed.csv"
    csv.write_text("mov,ret,class\n0.50000000,0.50000000,malware\n0.25000000,0.75000000,Locky\n")
    capsys.readouterr()
    assert run("train", csv, "--out", tmp_path / "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch: label 'malware' not valid for scheme 'family'")
    assert not (tmp_path / "m.json").exists()


def test_ingest_skips_a_report_with_a_comma_in_a_mnemonic(tmp_path, capsys):
    (tmp_path / "good").mkdir()
    (tmp_path / "good" / "a.txt").write_text("1. 5 50.00% mov\n")
    (tmp_path / "good" / "comma.txt").write_text("1. 5 50.00% a,b\n2. 5 50.00% mov\n")
    (tmp_path / "malware").mkdir()
    (tmp_path / "malware" / "b.txt").write_text("1. 5 50.00% ret\n")
    assert run("ingest", tmp_path, "--out", tmp_path / "out.csv") == 0
    assert "comma.txt: MalformedLine" in capsys.readouterr().err
    ds = read_csv((tmp_path / "out.csv").read_bytes())
    assert ds.attributes == ("mov", "ret") and ds.n_instances == 2
    assert read_arff(write_arff(ds)).attributes == ds.attributes


SELECTION_DEFECTS = {
    "not json": (None, "]"),
    "number": (None, "7"),
    "schema only": (None, '{"schema": 1}'),
    "integer too long to convert": (None, '{"schema": ' + "1" * 5000 + "}"),
    "num_to_select negative": (["num_to_select"], -1),
    "no evaluator": (["evaluator"], _DROP),
    "retained a string": (["retained"], "pc1"),
    "retained holds a number": (["retained", 0], 1),
    "threshold a string": (["threshold"], "0.5"),
    "threshold past the float range": (["threshold"], 10**400),
    "score past the float range": (["scores", 0, "score"], 10**400),
    "scores an object": (["scores"], {}),
    "params a list": (["params"], []),
    "pca an array": (["pca"], []),
    "pca means too short": (["pca", "means"], [0.0]),
    "pca loadings ragged": (["pca", "loadings", 0], []),
    "pca stds a string": (["pca", "stds"], "none"),
    "pca without component ranges": (["pca", "component_mins"], _DROP),
    "pca component ranges too short": (["pca", "component_maxs"], [1.0]),
    "unknown evaluator": (["evaluator"], "random"),
    "unknown search": (["search"], "exhaustive"),
    "retained names one attribute twice": (["retained", 1], lambda doc: doc["retained"][0]),
}


@pytest.mark.parametrize("path, value", SELECTION_DEFECTS.values(), ids=SELECTION_DEFECTS.keys())
def test_corrupt_selection_file_exits_2(pipeline, tmp_path, capsys, path, value):
    from opdense.featsel import pca_eval, save_selection
    pca = pca_eval(read_csv((pipeline / "train.csv").read_bytes()))
    text = _corrupt(json.loads(save_selection(pca)), path, value)
    with pytest.raises(SchemaMismatch):
        load_selection(text)
    bad = tmp_path / "sel.json"
    bad.write_text(text)
    capsys.readouterr()
    assert run("reduce", pipeline / "train.csv", bad, "--out", tmp_path / "r.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err


def test_rank_aggregate_of_a_selection_naming_an_attribute_twice_exits_2(tmp_path, capsys):
    from opdense.featsel import AttributeScore, ranker_select, save_selection
    selection = save_selection(ranker_select([AttributeScore("mov", 1.0)], threshold=0.0))
    bad = tmp_path / "sel.json"
    bad.write_text(_corrupt(json.loads(selection), ["retained"], ["mov", "mov", "mov"]))
    capsys.readouterr()
    assert run("rank-aggregate", *[bad] * 7, "--out", tmp_path / "ranking.txt") == 2
    assert capsys.readouterr().err == "error: SchemaMismatch: retained names 'mov' twice\n"
    assert not (tmp_path / "ranking.txt").exists()


@pytest.mark.parametrize("path", [["threshold"], ["scores", 0, "score"]], ids=["threshold", "score"])
def test_selection_number_past_the_float_range_exits_2_on_tune_threshold(pipeline, tmp_path, capsys, path):
    assert run("select", pipeline / "train.csv", "--evaluator", "correlation",
               "--out", tmp_path / "sel.json") == 0
    bad = tmp_path / "bad.json"
    bad.write_text(_corrupt(json.loads((tmp_path / "sel.json").read_text()), path, 10**400))
    capsys.readouterr()
    assert run("tune-threshold", pipeline / "train.csv", pipeline / "test.csv", bad,
               "--out", tmp_path / "sweep.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "Traceback" not in err


NON_UTF8_INPUTS = {
    "csv dataset": ("bad.csv", ["train", "{bad}", "--out", "{out}"]),
    "arff dataset": ("bad.arff", ["train", "{bad}", "--out", "{out}"]),
    "model": ("bad.json", ["eval", "{bad}", "{p}/test.csv", "--out", "{out}"]),
    "selection for reduce": ("bad.json", ["reduce", "{p}/train.csv", "{bad}", "--out", "{out}"]),
    "selection for tune-threshold": ("bad.json", ["tune-threshold", "{p}/train.csv", "{p}/test.csv", "{bad}",
                                                  "--out", "{out}"]),
    "selection for rank-aggregate": ("bad.json", ["rank-aggregate"] + ["{bad}"] * 7 + ["--out", "{out}"]),
    "manifest": ("bad.csv", ["ingest", "{p}/corpus", "--manifest", "{bad}", "--out", "{out}"]),
}


@pytest.mark.parametrize("name, argv", NON_UTF8_INPUTS.values(), ids=NON_UTF8_INPUTS.keys())
def test_non_utf8_input_exits_2(pipeline, tmp_path, capsys, name, argv):
    bad = tmp_path / name
    bad.write_bytes(b"\xff")
    capsys.readouterr()
    assert run(*(a.format(bad=bad, out=tmp_path / "out", p=pipeline) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch:") and "not UTF-8" in err


BOM = b"\xef\xbb\xbf"


def _ranked_selection(p):
    from opdense.featsel import rank_attributes, ranker_select, save_selection
    train = read_csv((p / "train.csv").read_bytes())
    return save_selection(ranker_select(rank_attributes(train, "correlation"), 0.0)).encode()


def _relabeling_manifest(p):
    """Every report under the other class, so a row read wrong shows in the dataset."""
    return "".join(f"{path.stem},{'malware' if path.parent.name == 'good' else 'good'}\n"
                   for path in sorted((p / "corpus").rglob("*.txt"))).encode()


# the BOM-less document of each kind in NON_UTF8_INPUTS
BOM_FREE_INPUTS = {
    "csv dataset": lambda p: (p / "train.csv").read_bytes(),
    "arff dataset": lambda p: write_arff(read_csv((p / "train.csv").read_bytes())),
    "model": lambda p: (p / "model.json").read_bytes(),
    "selection for reduce": _ranked_selection,
    "selection for tune-threshold": _ranked_selection,
    "selection for rank-aggregate": _ranked_selection,
    "manifest": _relabeling_manifest,
}


@pytest.mark.parametrize("kind", NON_UTF8_INPUTS)
def test_input_with_a_byte_order_mark_reads_as_its_bom_less_form(pipeline, tmp_path, kind):
    name, argv = NON_UTF8_INPUTS[kind]
    document = BOM_FREE_INPUTS[kind](pipeline)
    outputs = []
    for prefix in (b"", BOM):
        side = tmp_path / ("bom" if prefix else "plain")
        side.mkdir()
        (side / name).write_bytes(prefix + document)
        assert run(*(a.format(bad=side / name, out=side / "out", p=pipeline) for a in argv)) == 0
        outputs.append({path.name: path.read_bytes() for path in side.glob("out*")})
    assert outputs[0] and outputs[1] == outputs[0]


def test_reports_with_a_byte_order_mark_and_crlf_ingest_as_their_plain_forms(pipeline, tmp_path):
    for path in (pipeline / "corpus").rglob("*.txt"):
        copy = tmp_path / "corpus" / path.relative_to(pipeline / "corpus")
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_bytes(BOM + path.read_bytes().replace(b"\n", b"\r\n"))
    assert run("ingest", tmp_path / "corpus", "--out", tmp_path / "full.csv") == 0
    assert (tmp_path / "full.csv").read_bytes() == (pipeline / "full.csv").read_bytes()


def test_eval_reports_the_iteration_cap_warnings_of_its_model(pipeline, tmp_path, capsys):
    assert run("train", pipeline / "train.csv", "--max-iterations", "3", "--out", tmp_path / "m.json") == 0
    warnings = json.loads((tmp_path / "m.json").read_text())["warnings"]
    assert warnings and all("hit the iteration cap" in w for w in warnings)
    assert run("eval", tmp_path / "m.json", pipeline / "test.csv", "--out", tmp_path / "r.txt") == 0
    assert json.loads((tmp_path / "r.txt.json").read_text())["warnings"] == warnings
    text = (tmp_path / "r.txt").read_text()
    assert text.endswith("".join(f"warning: {w}\n" for w in warnings))
    # a model that converged writes no warning line
    assert "warning" not in (pipeline / "report.txt").read_text()


@pytest.mark.parametrize("command, positionals", [
    ("train", ["train.csv"]),
    ("cv", ["train.csv"]),
    ("tune-threshold", ["train.csv", "test.csv", "sel.json"]),
])
def test_every_kernel_and_trainer_field_is_an_option_with_its_default(command, positionals):
    from dataclasses import fields
    from opdense.cli import build_parser
    from opdense.kernels import KernelSpec
    from opdense.smo import TrainerConfig
    args = vars(build_parser().parse_args([command, *positionals, "--out", "out"]))
    for f in fields(KernelSpec) + fields(TrainerConfig):
        assert f.name in args and args[f.name] == f.default, f.name
    args = vars(build_parser().parse_args(["tune-kernel", "train.csv", "test.csv", "--out", "out"]))
    for f in fields(TrainerConfig):
        assert f.name in args and args[f.name] == f.default, f.name


def test_kernel_fields_that_all_differ_from_their_defaults_round_trip(pipeline, tmp_path):
    from dataclasses import asdict, fields
    from opdense.kernels import KernelSpec
    from opdense.svm import load_model, save_model, train_multiclass
    spec = KernelSpec(family="normalized_poly", exponent=2.0, use_lower_order=True, gamma=0.5,
                      sigma=2.0, omega=3.0, C=4.0)
    assert all(getattr(spec, f.name) != f.default for f in fields(KernelSpec))
    model = train_multiclass(read_csv((pipeline / "train.csv").read_bytes()), spec)
    assert load_model(save_model(model)).kernel == spec
    assert run("train", pipeline / "train.csv", "--kernel", "normalized-poly", "--exponent", "2", "--lower-order",
               "--gamma", "0.5", "--sigma", "2", "--omega", "3", "--c", "4", "--out", tmp_path / "m.json") == 0
    text = (tmp_path / "m.json").read_text()
    assert json.loads(text)["kernel"] == asdict(spec)
    assert text == save_model(model)


@pytest.mark.parametrize("flags, code, error", [
    (["--omega=1e-22"], 2, "SchemaMismatch: sigma and omega give a PUK factor past the float range"),
    (["--sigma=1e-320"], 2, "SchemaMismatch: sigma and omega give a PUK factor past the float range"),
    (["--kernel=poly", "--exponent=1e308"], 3, "NonFiniteSolution: pair (good, malware)"),
], ids=["puk omega 1e-22", "puk sigma 1e-320", "poly exponent 1e308"])
@pytest.mark.filterwarnings("error")  # refused before any numpy call overflows
def test_kernel_settings_past_the_float_range_exit_without_a_model(pipeline, tmp_path, capsys, flags, code, error):
    capsys.readouterr()
    assert run("train", pipeline / "train.csv", *flags, "--out", tmp_path / "m.json") == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_synth_refuses_a_corpus_it_cannot_generate(tmp_path, capsys):
    from opdense.errors import UsageError
    from opdense.synth import generate_corpus
    with pytest.raises(UsageError, match="2 or 6 classes"):
        generate_corpus(tmp_path / "three", classes=3)
    capsys.readouterr()
    assert run("synth", "--out-dir", tmp_path / "corpus", "--n-per-class", "0") == 1
    assert capsys.readouterr().err == "error: UsageError: need at least one sample per class\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2**32)])
def test_synth_seed_outside_numpy_range_exits_1(tmp_path, capsys, seed):
    capsys.readouterr()
    assert run("synth", "--out-dir", tmp_path / "corpus", f"--seed={seed}") == 1
    assert capsys.readouterr().err == "error: UsageError: seed must be in 0..2**32-1\n"
    assert not (tmp_path / "corpus").exists()
