"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with ``pytest -s`` to see them inline).

The criteria pin exact tolerances; nothing here is calibrated after the
fact. Reference fixtures (the six-class confusion matrix and the seven
evaluator rankings) are transcriptions of a published hold-out study on
a corpus that is not redistributable, so the model-quality criteria run
against the bundled synthetic corpus instead.
"""

import time
from pathlib import Path

import numpy as np

from opdense.cli import main as cli_main
from opdense.dataio import read_csv, write_arff, write_csv, read_arff
from opdense.dataset import Dataset
from opdense.evaluation import class_metrics, confusion_matrix, holdout_evaluate
from opdense.featsel import aggregate_rank, merit_from_correlations, rank_attributes, relieff_scores, tune_threshold
from opdense.featsel.evaluators import correlation_eval, gain_ratio, info_gain, symm_uncert
from opdense.kernels import KernelSpec, gram_matrix
from opdense.labels import LabelScheme
from opdense.reports import format_report, parse_report
from opdense.smo import TrainerConfig, smo_solve
from opdense.svm import decision_values, load_model, save_model, train_multiclass
from kernel_oracle import kernel_eval
from qp_oracle import dual_value, kkt_violation, qp_oracle


class Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.criterion}: {elapsed:.1f}s over budget"
            print(f"\nACCEPTANCE {self.criterion}: PASS ({elapsed:.2f}s)")
        return False


# --- criterion 1: metric reproduction ------------------------------------------

SIX_CLASSES = ("good", "Torrentlocker", "TeslaCrypt", "Locky", "CryptoWall", "Cerber")
SIX_CLASS_CELLS = [
    [51, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 22, 0, 0, 0],
    [0, 0, 0, 13, 0, 2],
    [0, 0, 0, 0, 8, 0],
    [0, 0, 0, 0, 0, 6],
]
# per-class reference values, percent at one decimal:
# (tpr, fpr, precision, recall, f-measure)
SIX_CLASS_REFERENCE = {
    "good": (100.0, 0.0, 100.0, 100.0, 100.0),
    "Torrentlocker": (0.0, 0.0, 0.0, 0.0, 0.0),
    "TeslaCrypt": (100.0, 0.0, 100.0, 100.0, 100.0),
    "Locky": (86.7, 1.1, 92.9, 86.7, 89.7),
    "CryptoWall": (100.0, 0.0, 100.0, 100.0, 100.0),
    "Cerber": (100.0, 2.1, 75.0, 100.0, 85.7),
}
# note: the published weighted row prints 96.6% for F-measure, but the
# same model's summary table prints 96.7%, and recomputing from the
# matrix cells gives 96.690...% -> 96.7%. The cell-exact identity wins.
WEIGHTED_REFERENCE = (97.1, 0.3, 96.5, 97.1, 96.7)


def test_criterion_1_metric_reproduction():
    with Budget("1 metric reproduction", 1.0):
        actual = [c for c, row in zip(SIX_CLASSES, SIX_CLASS_CELLS) for _ in range(sum(row))]
        predicted = [p for row in SIX_CLASS_CELLS for p, n in zip(SIX_CLASSES, row) for _ in range(n)]
        cm = confusion_matrix(actual, predicted, SIX_CLASSES)
        report = class_metrics(cm)
        pct = lambda v: round(v * 100, 1)
        for label, expected in SIX_CLASS_REFERENCE.items():
            m = report.per_class[label]
            got = (pct(m.tpr), pct(m.fpr), pct(m.precision), pct(m.recall), pct(m.f_measure))
            assert got == expected, (label, got, expected)
        w = report.weighted
        got = (pct(w.tpr), pct(w.fpr), pct(w.precision), pct(w.recall), pct(w.f_measure))
        assert got == WEIGHTED_REFERENCE
        assert pct(w.precision) == 96.5
        assert pct(report.per_class["Cerber"].precision) == 75.0
        assert pct(report.per_class["Cerber"].fpr) == 2.1
        assert pct(report.per_class["Locky"].f_measure) == 89.7


# --- criterion 2: rank aggregation ----------------------------------------------

SEVEN_RANKINGS = [
    # cfs subset
    ["sets", "setnbe", "setnle", "jb", "fsub", "xchg", "pop", "or", "fucompp",
     "jle", "cmovs", "ror", "fidiv", "setbe", "ja", "lea", "fninit", "call",
     "and", "setle", "fdivp"],
    # correlation
    ["jle", "call", "fild", "pop", "jg", "and", "fidiv", "fmul", "jl", "dec",
     "sub", "or", "setnbe", "fdiv", "fdivrp", "fistp", "fmulp", "cmc", "neg",
     "imul", "ldmxcsr"],
    # gain ratio
    ["setle", "fdivp", "setbe", "setnbe", "fsubrp", "setnb", "fild", "ror",
     "call", "fistp", "fidiv", "fninit", "fstp", "bswap", "fstsw", "mul",
     "fld", "lods", "fdiv", "cmovs", "fsub"],
    # info gain
    ["fdivp", "xchg", "and", "ja", "inc", "setnle", "setle", "mul", "fmul",
     "stos", "fsub", "jb", "jle", "rcr", "setz", "not", "fstsw", "faddp",
     "js", "jnz", "setnl"],
    # one r
    ["fdivp", "and", "xchg", "setle", "setnle", "jb", "fmul", "fstsw",
     "faddp", "fsub", "fistp", "mul", "shld", "fxch", "scas", "fdiv",
     "fabs", "fild", "fsubrp", "setz", "fldz"],
    # relieff
    ["pop", "inc", "jnz", "cmp", "push", "call", "add", "dec", "jl", "jle",
     "jnb", "and", "retn", "xor", "sub", "test", "jz", "jb", "std", "jns", "or"],
    # symmetrical uncertainty
    ["fdivp", "setle", "fild", "fsubrp", "mul", "setnbe", "setbe", "and",
     "xchg", "fsub", "fistp", "jb", "fstsw", "setnle", "ja", "stos", "fmul",
     "setnb", "jle", "fstp", "setz"],
]


def test_criterion_2_rank_aggregation(tmp_path):
    with Budget("2 rank aggregation", 1.0):
        ranking = aggregate_rank(SEVEN_RANKINGS)
        totals = dict(ranking)
        assert totals["fdivp"] == 84
        assert totals["and"] == 82
        assert ranking[0] == ("fdivp", 84)
        assert ranking[1] == ("and", 82)

        # the same fixture through the command line
        from opdense.featsel import ranker_select, save_selection
        from opdense.featsel.selection import AttributeScore
        paths = []
        for i, ranked in enumerate(SEVEN_RANKINGS):
            scores = [AttributeScore(a, float(len(ranked) - r)) for r, a in enumerate(ranked)]
            sel = ranker_select(scores, threshold=-1.0, evaluator="correlation")
            path = tmp_path / f"list{i}.json"
            path.write_text(save_selection(sel))
            paths.append(str(path))
        out = tmp_path / "ranking.txt"
        assert cli_main(["rank-aggregate", *paths, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].split() == ["1", "fdivp", "84"]
        assert rows[2].split() == ["2", "and", "82"]


# --- criterion 3: SMO oracle equivalence -----------------------------------------

def test_criterion_3_smo_oracle_equivalence():
    with Budget("3 SMO oracle equivalence", 60.0):
        rng = np.random.RandomState(12345)
        runs = 0
        for rep in range(50):
            n = int(rng.randint(2, 7))
            d = int(rng.randint(1, 4))
            X = rng.rand(n, d)
            y = np.where(rng.rand(n) < 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            for k, family in enumerate(("poly", "normalized_poly", "rbf", "puk")):
                C = 1.0 if (rep + k) % 2 == 0 else 100.0
                kw = dict(family=family, C=C)
                if family in ("poly", "normalized_poly"):
                    kw["exponent"] = float(rng.choice([1.0, 2.0]))
                    kw["use_lower_order"] = bool(rng.rand() < 0.5)
                elif family == "rbf":
                    kw["gamma"] = float(rng.choice([0.5, 1.0]))
                else:
                    kw["sigma"] = float(rng.choice([0.5, 1.0]))
                    kw["omega"] = float(rng.choice([0.5, 1.0, 2.0]))
                gram = gram_matrix(KernelSpec(**kw), X)
                sol = smo_solve(gram, y, C, TrainerConfig(tolerance=1e-6, max_iterations=200_000))
                oracle = qp_oracle(gram, y, C)
                assert abs(dual_value(gram, y, sol.alphas) - oracle) <= 1e-6 * max(1.0, abs(oracle)), (rep, family, C)
                assert kkt_violation(gram, y, sol.alphas, sol.bias, C) <= 1e-6 + 1e-9, (rep, family, C)
                runs += 1
        assert runs == 200


# --- criterion 4: analytic SMO case ----------------------------------------------

def test_criterion_4_analytic_case():
    with Budget("4 analytic SMO case", 1.0):
        X = np.array([[0.0], [1.0]])
        y = np.array([-1.0, 1.0])
        sol = smo_solve(gram_matrix(KernelSpec(family="poly", C=100.0), X), y, 100.0,
                        TrainerConfig(tolerance=1e-8))
        assert abs(sol.alphas[0] - 2.0) <= 1e-6
        assert abs(sol.alphas[1] - 2.0) <= 1e-6
        assert abs(sol.bias - (-1.0)) <= 1e-6


# --- criterion 5: kernel properties ----------------------------------------------

def test_criterion_5_kernel_properties():
    with Budget("5 kernel properties", 30.0):
        rng = np.random.RandomState(777)
        for _ in range(300):
            x = rng.rand(6)
            z = rng.rand(6)
            for spec in (KernelSpec(family="poly", exponent=2.0),
                         KernelSpec(family="normalized_poly", exponent=3.0),
                         KernelSpec(family="rbf", gamma=0.7),
                         KernelSpec(family="puk", sigma=0.8, omega=1.5)):
                assert abs(kernel_eval(spec, x, z) - kernel_eval(spec, z, x)) <= 1e-12
            assert kernel_eval(KernelSpec(family="rbf"), x, x) == 1.0
            assert kernel_eval(KernelSpec(family="puk"), x, x) == 1.0
            assert abs(kernel_eval(KernelSpec(family="normalized_poly", exponent=2.0), x, x) - 1.0) <= 1e-12
        for i in range(1000):
            X = rng.rand(8, 3)
            spec = (KernelSpec(family="rbf", gamma=float(rng.choice([0.1, 1.0, 10.0])))
                    if i % 2 == 0 else
                    KernelSpec(family="poly", exponent=float(rng.choice([1.0, 2.0, 3.0]))))
            g = gram_matrix(spec, X)
            assert np.linalg.eigvalsh((g + g.T) / 2).min() >= -1e-8


# --- criterion 6: feature-selection oracles ---------------------------------------

def test_criterion_6_feature_selection_oracles():
    with Budget("6 feature-selection oracles", 5.0):
        import math
        labels = ["malware", "malware", "good", "good"]
        attr = np.array([0, 0, 0, 1])
        ig = 1.0 - 0.75 * (math.log2(3.0) - 2.0 / 3.0)
        h_split = 2.0 - 0.75 * math.log2(3.0)
        assert abs(info_gain(attr, labels) - ig) <= 1e-9
        assert abs(gain_ratio(attr, labels) - ig / h_split) <= 1e-9
        assert abs(symm_uncert(attr, labels) - 2.0 * ig / (h_split + 1.0)) <= 1e-9

        r = correlation_eval(np.array([1.0, 2.0, 3.0, 4.0]), ["0", "0", "1", "1"])
        assert abs(r - 2.0 / math.sqrt(5.0)) <= 1e-9

        assert abs(merit_from_correlations(1, 0.8, 0.0) - 0.8) <= 1e-9
        assert abs(merit_from_correlations(2, 0.8, 1.0) - 0.8) <= 1e-9
        assert abs(merit_from_correlations(2, 0.8, 0.0) - 1.6 / math.sqrt(2.0)) <= 1e-9

        X = np.array([[0.0, 0.5], [0.3, 0.5], [0.7, 0.5], [1.0, 0.5]])
        scores = {s.attribute: s.score
                  for s in relieff_scores(X, labels, ["varying", "constant"], k=2)}
        assert scores["constant"] == 0.0


# --- criterion 7: synthetic-corpus pipeline ----------------------------------------

def test_criterion_7_synthetic_pipeline(tmp_path):
    with Budget("7 synthetic pipeline", 60.0):
        p = lambda name: str(tmp_path / name)
        assert cli_main(["synth", "--out-dir", p("corpus"), "--classes", "2",
                         "--n-per-class", "100", "--informative-opcodes", "5",
                         "--seed", "42"]) == 0
        assert cli_main(["ingest", p("corpus"), "--out", p("full.csv")]) == 0
        assert cli_main(["preprocess", p("full.csv"), "--out", p("prep.csv"),
                         "--seed", "42"]) == 0
        assert cli_main(["split", p("prep.csv"), "--percent", "30",
                         "--train-out", p("train.csv"), "--test-out", p("test.csv")]) == 0
        train = read_csv(Path(p("train.csv")).read_bytes())
        test = read_csv(Path(p("test.csv")).read_bytes())

        spec = KernelSpec(family="puk")  # defaults: sigma = omega = C = 1
        model = train_multiclass(train, spec)
        report = holdout_evaluate(model, test)
        assert report.weighted.precision >= 0.95, report.weighted.precision

        scores = rank_attributes(train, "correlation")

        def classifier_fn(tr, te):
            return holdout_evaluate(train_multiclass(tr, spec), te)

        _, best, sweep = tune_threshold(train, test, scores, classifier_fn,
                                        metric="precision")
        baseline = sweep[0]["metric"]
        chosen = [e for e in sweep if e["retained"] == len(best.retained)][0]
        assert len(best.retained) <= train.n_attributes // 2, "expected >= 50% reduction"
        assert chosen["metric"] >= baseline - 1e-12, "precision must not drop"


# --- criterion 8: format fidelity ---------------------------------------------------

TEN_LINE_BLOCK = (
    "0001.\t522777\t49.30%\tmov\n0002.\t100587\t9.49%\tcall\n"
    "0003.\t092192\t8.69%\tlea\n0004.\t068179\t6.43%\tsub\n"
    "0005.\t035504\t3.35%\tjz\n0006.\t034083\t3.21%\ttest\n"
    "0007.\t033897\t3.20%\tjmp\n0008.\t031512\t2.97%\tcmp\n"
    "0009.\t025956\t2.45%\tpush\n0010.\t018663\t1.76%\tadd\n"
)
TEN_LINE_COUNTS = {
    "mov": 522777, "call": 100587, "lea": 92192, "sub": 68179, "jz": 35504,
    "test": 34083, "jmp": 33897, "cmp": 31512, "push": 25956, "add": 18663,
}


def test_criterion_8_format_fidelity():
    with Budget("8 format fidelity", 10.0):
        h = parse_report(TEN_LINE_BLOCK, "fixture")
        assert h.counts == TEN_LINE_COUNTS
        assert h.total == 963350

        # report grammar round-trip is stable byte for byte
        once = format_report(h)
        assert format_report(parse_report(once, "fixture")) == once

        rng = np.random.RandomState(3)
        ds = Dataset(
            attributes=("mov", "push", "ret"),
            X=np.round(rng.rand(5, 3), 8),
            labels=("good", "malware", "good", "malware", "good"),
            scheme=LabelScheme.binary,
        )
        csv_once = write_csv(ds)
        assert write_csv(read_csv(csv_once)) == csv_once
        arff_once = write_arff(ds)
        assert write_arff(read_arff(arff_once)) == arff_once
        assert read_csv(csv_once).X[0, 0] == ds.X[0, 0]

        model = train_multiclass(read_csv(csv_once), KernelSpec(family="puk", C=10.0))
        text1 = save_model(model)
        m1 = load_model(text1)
        text2 = save_model(m1)
        m2 = load_model(text2)
        assert text1 == text2
        probe = Dataset(attributes=ds.attributes, X=rng.rand(20, 3), labels=("good",) * 20,
                        scheme=LabelScheme.binary)
        assert np.array_equal(decision_values(m1, probe), decision_values(m2, probe))


# --- criterion 9: determinism -------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    with Budget("9 determinism", 60.0):
        snapshots = []
        for tag in ("first", "second"):
            base = tmp_path / tag
            base.mkdir()
            p = lambda name: str(base / name)
            assert cli_main(["synth", "--out-dir", p("corpus"), "--classes", "2",
                             "--n-per-class", "25", "--seed", "42"]) == 0
            assert cli_main(["ingest", p("corpus"), "--out", p("full.csv")]) == 0
            assert cli_main(["preprocess", p("full.csv"), "--out", p("prep.csv"),
                             "--seed", "42"]) == 0
            assert cli_main(["split", p("prep.csv"), "--train-out", p("train.csv"),
                             "--test-out", p("test.csv")]) == 0
            assert cli_main(["train", p("train.csv"), "--kernel", "puk",
                             "--out", p("model.json")]) == 0
            assert cli_main(["eval", p("model.json"), p("test.csv"),
                             "--out", p("report.txt")]) == 0
            assert cli_main(["select", p("train.csv"), "--evaluator", "correlation",
                             "--out", p("sel.json")]) == 0
            assert cli_main(["reduce", p("train.csv"), p("sel.json"),
                             "--out", p("reduced.csv")]) == 0
            corpus_files = sorted((base / "corpus").rglob("*.txt"))
            snapshot = {f"corpus/{f.parent.name}/{f.name}": f.read_bytes() for f in corpus_files}
            for name in ("full.csv", "prep.csv", "train.csv", "test.csv",
                         "model.json", "report.txt", "report.txt.json",
                         "sel.json", "reduced.csv"):
                snapshot[name] = (base / name).read_bytes()
            snapshots.append(snapshot)
        assert snapshots[0].keys() == snapshots[1].keys()
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], f"{name} differs between runs"
