"""Property test of the command line: each command that writes a file runs
with drawn option values, edge values included (0, negatives, nan, inf,
huge), and must exit 0, 1, 2 or 3 with no traceback. When it exits 0,
every file it wrote must load through its reader.

The settings that bound a run's work are drawn small. ``--max-iterations``
caps each SMO solve and is always given: a tiny tolerance runs each solve
to the cap, and the default cap of 1,000,000 steps takes about 30 s on 14
rows. For the same reason ``tune-kernel``, which has no cap option, draws
no positive tolerance below 1e-4; ``test_a_tiny_tolerance_converges``
keeps that range in view as an expected failure. ``--backtrack`` bounds
best-first search (a huge limit explores every subset), and ``--bins``
and ``--n-per-class`` size what is allocated and written. Every other
value, huge ones included, is drawn as it comes.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdense.cli import main
from opdense.dataio import format_for_path, read_dataset
from opdense.featsel import EVALUATORS, SEARCHES, load_selection
from opdense.kernels import KERNEL_FAMILIES, KernelSpec
from opdense.reports import scan_directory
from opdense.smo import TrainerConfig
from opdense.svm import load_model, train_multiclass

EXAMPLES = settings(max_examples=12, deadline=None)

FLOAT = st.one_of(
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0.5", "1", "30", "100"]),
    st.floats().map(repr),
)
INT = st.one_of(st.sampled_from(["0", "-1", "1", "2", str(2**63), str(10**30)]), st.integers(-3, 40).map(str))
FLAG = st.booleans()


def small(*values):
    return st.sampled_from([str(v) for v in values])


def dashed(names):
    return st.sampled_from([n.replace("_", "-") for n in names] + ["none"])


KERNEL_OPTIONS = {
    "--kernel": dashed(KERNEL_FAMILIES),
    "--c": FLOAT, "--exponent": FLOAT, "--lower-order": FLAG, "--gamma": FLOAT,
    "--sigma": FLOAT, "--omega": FLOAT, "--tolerance": FLOAT,
}
CAP = {"--max-iterations": small(-1, 0, 1, 3, 50)}


def options(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


def argv_of(drawn: dict) -> list[str]:
    """Each option in its '=' form, so that a negative value is never read as an option."""
    out = []
    for flag, value in drawn.items():
        if value is True:
            out.append(flag)
        elif value is not False:
            out.append(f"{flag}={value}")
    return out


def read_dataset_file(path: Path):
    return read_dataset(path.read_bytes(), format_for_path(str(path)))


def read_model(path: Path):
    return load_model(path.read_text(encoding="utf-8"))


def read_selection(path: Path):
    return load_selection(path.read_text(encoding="utf-8"))


def read_report(path: Path):
    path.read_text(encoding="utf-8")
    return json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))


def read_reports(root: Path):
    scanned = scan_directory(root)
    assert scanned.histograms and not scanned.failures


def read_iqr(path: Path):
    assert path.read_text(encoding="utf-8").startswith("instance,outlier,extreme\n")


def run(argv, outputs) -> int:
    """``opdense argv``: a documented exit code and no traceback, and on
    exit 0 every ``path -> reader`` of ``outputs`` reads its file."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        for path, reader in outputs.items():
            if path.exists():  # an optional output that was not asked for
                reader(path)
    return code


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 2-class corpus of 10 reports per class through split, a model and
    a ranked selection."""
    root = tmp_path_factory.mktemp("properties")
    steps = [
        ("synth", "--out-dir", root / "corpus", "--classes", "2", "--n-per-class", "10", "--seed", "42"),
        ("ingest", root / "corpus", "--out", root / "full.csv"),
        ("preprocess", root / "full.csv", "--out", root / "prep.csv"),
        ("split", root / "prep.csv", "--train-out", root / "train.csv", "--test-out", root / "test.csv"),
        ("train", root / "train.csv", "--out", root / "model.json"),
        ("select", root / "train.csv", "--evaluator", "correlation", "--out", root / "sel.json"),
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0
    return root


@EXAMPLES
@given(drawn=options(**{"--classes": small(2, 6, 3, 0), "--n-per-class": small(-1, 0, 1, 3),
                        "--informative-opcodes": INT, "--seed": INT}))
def test_synth(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus"
        run(["synth", "--out-dir", out, *argv_of(drawn)], {out: read_reports})


@EXAMPLES
@given(drawn=options(**{"--dedupe": FLAG}))
def test_ingest(corpus, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "full.arff"
        run(["ingest", corpus / "corpus", "--out", out, *argv_of(drawn)], {out: read_dataset_file})


@EXAMPLES
@given(drawn=options(**{"--seed": INT, "--outlier-factor": FLOAT, "--extreme-factor": FLOAT}), iqr=FLAG)
def test_preprocess(corpus, drawn, iqr):
    with tempfile.TemporaryDirectory() as tmp:
        out, report = Path(tmp) / "prep.csv", Path(tmp) / "iqr.csv"
        extra = ["--iqr-report", report] if iqr else []
        run(["preprocess", corpus / "full.csv", "--out", out, *extra, *argv_of(drawn)],
            {out: read_dataset_file, report: read_iqr})


@EXAMPLES
@given(drawn=options(**{"--percent": FLOAT}))
def test_split(corpus, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        train, test = Path(tmp) / "train.csv", Path(tmp) / "test.arff"
        run(["split", corpus / "prep.csv", "--train-out", train, "--test-out", test, *argv_of(drawn)],
            {train: read_dataset_file, test: read_dataset_file})


@EXAMPLES
@given(drawn=options(CAP, **KERNEL_OPTIONS))
def test_train_then_eval(corpus, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        model, report = Path(tmp) / "model.json", Path(tmp) / "report.txt"
        if run(["train", corpus / "train.csv", "--out", model, *argv_of(drawn)], {model: read_model}) == 0:
            run(["eval", model, corpus / "test.csv", "--out", report], {report: read_report})


@EXAMPLES
@given(drawn=options(CAP, **{"--k": INT, "--seed": INT}, **KERNEL_OPTIONS))
def test_cv(corpus, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "cv.txt"
        run(["cv", corpus / "train.csv", "--out", report, *argv_of(drawn)], {report: read_report})


@EXAMPLES
@given(evaluator=dashed(EVALUATORS), drawn=options(**{
    "--search": dashed(SEARCHES), "--threshold": FLOAT, "--num-to-select": INT,
    "--bins": small(-1, 0, 1, 2, 3, 10, 1000), "--min-bucket": INT, "--relieff-k": INT,
    "--backtrack": small(-1, 0, 1, 2), "--generate-ranking": FLAG,
    "--pca-matrix": st.sampled_from(["correlation", "covariance", "none"]), "--pca-variance": FLOAT,
}))
def test_select_then_reduce(corpus, evaluator, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        selection, reduced = Path(tmp) / "sel.json", Path(tmp) / "reduced.csv"
        argv = ["select", corpus / "train.csv", "--evaluator", evaluator, "--out", selection, *argv_of(drawn)]
        if run(argv, {selection: read_selection}) == 0:
            run(["reduce", corpus / "test.csv", selection, "--out", reduced], {reduced: read_dataset_file})


@EXAMPLES
@given(kernels=st.lists(dashed(KERNEL_FAMILIES), max_size=3).map(",".join),
       drawn=options(**{"--tolerance": FLOAT.filter(lambda v: not 0 < float(v) < 1e-4)}))
def test_tune_kernel(corpus, kernels, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "grid.txt"
        run(["tune-kernel", corpus / "train.csv", corpus / "test.csv", f"--kernels={kernels}", "--out", report,
             *argv_of(drawn)], {report: read_report})


@pytest.mark.xfail(strict=True, reason="open defect (FOUND in CHANGES.md): a tiny positive tolerance runs each "
                                       "SMO solve to the step cap, and tune-kernel has no cap option")
def test_a_tiny_tolerance_converges(corpus):
    """The range of ``--tolerance`` that ``test_tune_kernel`` leaves out, on
    the library with a cap of 10,000 steps (the default tolerance needs a
    handful); the default cap of 1,000,000 would take about 30 s."""
    ds = read_dataset_file(corpus / "train.csv")
    model = train_multiclass(ds, KernelSpec(), TrainerConfig(tolerance=1e-320, max_iterations=10_000))
    assert not model.warnings


@EXAMPLES
@given(drawn=options(CAP, **{"--metric": st.sampled_from(["precision", "recall", "tpr", "f_measure", "fpr"])},
                     **KERNEL_OPTIONS))
def test_tune_threshold(corpus, drawn):
    with tempfile.TemporaryDirectory() as tmp:
        report, best = Path(tmp) / "sweep.txt", Path(tmp) / "best.json"
        run(["tune-threshold", corpus / "train.csv", corpus / "test.csv", corpus / "sel.json",
             "--out", report, "--selection-out", best, *argv_of(drawn)],
            {report: read_report, best: read_selection})
