import json

import pytest

from opdense.cli import main
from opdense.dataio import read_csv
from opdense.errors import SchemaMismatch
from opdense.featsel import load_selection
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


def test_eval_empty_test_set(tmp_path, pipeline):
    empty = tmp_path / "empty.csv"
    header = (pipeline / "test.csv").read_bytes().decode().splitlines()[0]
    empty.write_text(header + "\n")
    assert run("eval", pipeline / "model.json", empty, "--out", tmp_path / "r.txt") == 2


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
    dropped), as JSON text; a ``None`` path makes ``value`` the whole text."""
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


MODEL_DEFECTS = {
    "not json": (None, "{schema: 1"),
    "array": (None, "[1, 2]"),
    "string": (None, '"model"'),
    "schema only": (None, '{"schema": 1}'),
    "no kernel": (["kernel"], _DROP),
    "kernel C a string": (["kernel", "C"], "1.0"),
    "kernel exponent null": (["kernel", "exponent"], None),
    "unknown scheme": (["scheme"], "ternary"),
    "classes a string": (["classes"], "good"),
    "scaling an array": (["scaling"], [0.0, 1.0]),
    "scaling too short": (["scaling"], {"min": [0.0], "max": [1.0]}),
    "machines an object": (["machines"], {}),
    "machine an array": (["machines", 0], []),
    "alpha a string": (["machines", 0, "alphas", 0], "x"),
    "ragged support vectors": (["machines", 0, "support_vectors", 0], [0.5]),
    "alphas too short": (["machines", 0, "alphas"], [1.0]),
    "pair outside classes": (["machines", 0, "pair"], ["good", "Locky"]),
    "bias null": (["machines", 0, "bias"], None),
    "no cap flag": (["machines", 0, "hit_iteration_cap"], _DROP),
    "scheme null": (["scheme"], None),
    "schema 1": (["schema"], 1),
    "kernel sigma NaN": (["kernel", "sigma"], float("nan")),
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


SELECTION_DEFECTS = {
    "not json": (None, "]"),
    "number": (None, "7"),
    "schema only": (None, '{"schema": 1}'),
    "no evaluator": (["evaluator"], _DROP),
    "retained a string": (["retained"], "pc1"),
    "retained holds a number": (["retained", 0], 1),
    "threshold a string": (["threshold"], "0.5"),
    "scores an object": (["scores"], {}),
    "params a list": (["params"], []),
    "pca an array": (["pca"], []),
    "pca means too short": (["pca", "means"], [0.0]),
    "pca loadings ragged": (["pca", "loadings", 0], []),
    "pca stds a string": (["pca", "stds"], "none"),
}


@pytest.mark.parametrize("path, value", SELECTION_DEFECTS.values(), ids=SELECTION_DEFECTS.keys())
def test_corrupt_selection_file_exits_2(pipeline, tmp_path, capsys, path, value):
    from opdense.featsel import pca_eval, save_selection
    _, pca = pca_eval(read_csv((pipeline / "train.csv").read_bytes()))
    text = _corrupt(json.loads(save_selection(pca)), path, value)
    with pytest.raises(SchemaMismatch):
        load_selection(text)
    bad = tmp_path / "sel.json"
    bad.write_text(text)
    capsys.readouterr()
    assert run("reduce", pipeline / "train.csv", bad, "--out", tmp_path / "r.csv") == 2
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
