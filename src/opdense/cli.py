"""Command line driver.

Subcommands wire the pipeline end to end:

    synth -> ingest (or disasm) -> preprocess -> split -> train -> eval
          -> cv / select / reduce / tune-kernel / tune-threshold
          -> rank-aggregate

Every command is deterministic for fixed inputs and flags (no output
carries a timestamp) and exits 0 on success, 1 on usage errors, 2 on
data errors, 3 on numeric failures. The kernel and trainer options are
the ``KernelSpec`` and ``TrainerConfig`` fields, under their names and
with their defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import featsel
from .dataio import format_for_path, read_dataset, write_dataset
from .dataset import Dataset, iqr_flag, minmax_scale, shuffle, sort_attributes_by_mean_density, split_percentage
from .dataset import assemble, build_master_list
from .errors import DataError, OpdenseError, UsageError, decode_utf8
from .evaluation import (
    cross_validate,
    default_grid,
    grid_search,
    holdout_evaluate,
    make_trainer,
    render_report,
    report_to_json,
)
from .featsel.aggregate import LIST_COUNT, MAX_RANKED
from .kernels import KERNEL_FAMILIES, KernelSpec
from .pe import parse_pe
from .reports import read_manifest, scan_directory, format_report
from .smo import TrainerConfig
from .svm import load_model, save_model, train_multiclass
from .synth import generate_corpus
from .x86 import count_opcodes


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_ds(path: str) -> Dataset:
    return read_dataset(Path(path).read_bytes(), format_for_path(path))


def _read_text(path: str) -> str:
    return decode_utf8(Path(path).read_bytes(), path)


def _write_ds(ds: Dataset, path: str) -> None:
    Path(path).write_bytes(write_dataset(ds, format_for_path(path)))


def _add_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", dest="family", choices=[k.replace("_", "-") for k in KERNEL_FAMILIES],
                   default=KernelSpec.family)
    p.add_argument("--c", dest="C", type=float, default=KernelSpec.C, help="complexity constant")
    p.add_argument("--exponent", type=float, default=KernelSpec.exponent)
    p.add_argument("--lower-order", dest="use_lower_order", action="store_true",
                   help="add the +1 term inside the polynomial")
    p.add_argument("--gamma", type=float, default=KernelSpec.gamma)
    p.add_argument("--sigma", type=float, default=KernelSpec.sigma)
    p.add_argument("--omega", type=float, default=KernelSpec.omega)
    _add_trainer_args(p)


def _add_trainer_args(p: argparse.ArgumentParser) -> None:
    for f in fields(TrainerConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _kernel_spec(args) -> KernelSpec:
    settings = {f.name: getattr(args, f.name) for f in fields(KernelSpec)}
    return KernelSpec(**settings | {"family": args.family.replace("-", "_")})


def _trainer_config(args) -> TrainerConfig:
    return TrainerConfig(**{f.name: getattr(args, f.name) for f in fields(TrainerConfig)})


def _write_report(text: str, json_text: str, out: str) -> None:
    Path(out).write_bytes(text.encode("utf-8"))
    Path(out + ".json").write_bytes(json_text.encode("utf-8"))


# --- commands ---------------------------------------------------------------

def cmd_synth(args) -> int:
    corpus = generate_corpus(
        args.out_dir,
        classes=args.classes,
        n_per_class=args.n_per_class,
        informative=args.informative_opcodes,
        seed=args.seed,
    )
    print(f"wrote {len(corpus.files)} report files under {corpus.root}")
    print(f"classes: {', '.join(corpus.classes)}")
    print(f"informative opcodes: {', '.join(corpus.informative)}")
    return 0


def cmd_disasm(args) -> int:
    paths = sorted(Path(p) for p in args.pe_files)
    stems = [path.stem for path in paths]
    if len(set(stems)) < len(stems):  # reports are named by stem: one would overwrite another
        raise DataError("inputs share a report name: " + " ".join(str(p) for p in paths if stems.count(p.stem) > 1))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for path in paths:
        try:
            counted = count_opcodes(parse_pe(path.read_bytes()))
            histogram = counted.histogram(path.stem)
        except (OpdenseError, OSError) as exc:  # recorded per file, batch continues
            failures += 1
            print(f"error: {type(exc).__name__}: {path}: {exc}", file=sys.stderr)
            continue
        (out_dir / f"{path.stem}.txt").write_bytes(format_report(histogram).encode("utf-8"))
        print(f"{path.name}: {histogram.total} instructions, {len(histogram.counts)} distinct opcodes, "
              f"{counted.unknown_bytes} unknown bytes")
    if failures:
        print(f"{failures} file(s) failed", file=sys.stderr)
    return 2 if failures else 0


def cmd_ingest(args) -> int:
    manifest = read_manifest(args.manifest) if args.manifest else None
    result = scan_directory(args.root, manifest)
    for failure in result.failures:
        print(f"warning: {failure.path}: {type(failure.error).__name__}: {failure.error}", file=sys.stderr)
    if not result.histograms:
        raise UsageError("no report parsed successfully")
    master = build_master_list(result.histograms)
    ds = assemble(result.histograms, master, dedupe=args.dedupe)
    ds = sort_attributes_by_mean_density(ds)
    _write_ds(ds, args.out)

    print(f"samples: {ds.n_instances}  attributes: {ds.n_attributes}  scheme: {ds.scheme.value}")
    per_class: dict[str, list] = {}
    for lh in result.histograms:
        per_class.setdefault(lh.label.value, []).append(lh.histogram)
    print(f"{'class':<14}{'samples':>8}{'total opcodes':>15}{'avg/sample':>12}{'max distinct':>14}")
    for label in sorted(per_class):
        hists = per_class[label]
        total = sum(h.total for h in hists)
        distinct = max(len(h.counts) for h in hists)
        print(f"{label:<14}{len(hists):>8}{total:>15}{total // len(hists):>12}{distinct:>14}")
    return 0


def cmd_preprocess(args) -> int:
    ds = _read_ds(args.input)
    scaled, _ = minmax_scale(ds)
    if args.iqr_report:
        flags = iqr_flag(scaled, args.outlier_factor, args.extreme_factor)
        lines = ["instance,outlier,extreme"]
        for i in range(scaled.n_instances):
            lines.append(f"{i},{'yes' if flags.outlier[i] else 'no'},{'yes' if flags.extreme[i] else 'no'}")
        Path(args.iqr_report).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        print(f"iqr flags: {int(flags.outlier.sum())} outlier, {int(flags.extreme.sum())} extreme "
              f"(informational only, nothing removed)")
    shuffled = shuffle(scaled, args.seed)
    _write_ds(shuffled, args.out)
    print(f"preprocessed {shuffled.n_instances} instances, seed {args.seed}")
    return 0


def cmd_split(args) -> int:
    ds = _read_ds(args.input)
    train = split_percentage(ds, args.percent, invert=False)
    test = split_percentage(ds, args.percent, invert=True)
    _write_ds(train, args.train_out)
    _write_ds(test, args.test_out)
    print(f"train: {train.n_instances}  test: {test.n_instances}")
    return 0


def cmd_train(args) -> int:
    ds = _read_ds(args.train)
    model = train_multiclass(ds, _kernel_spec(args), _trainer_config(args))
    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    Path(args.out).write_bytes(save_model(model).encode("utf-8"))
    print(f"trained {len(model.machines)} machine(s) on {ds.n_instances} instances "
          f"[{model.kernel.describe()}], {model.n_support_vectors} support vectors")
    return 0


def cmd_eval(args) -> int:
    model = load_model(_read_text(args.model))
    test = _read_ds(args.test)
    report = holdout_evaluate(model, test)
    _write_report(render_report(report), report_to_json(report), args.out)
    print(f"weighted precision: {report.weighted.precision * 100:.1f}%  "
          f"accuracy: {report.matrix.accuracy() * 100:.1f}%")
    return 0


def cmd_cv(args) -> int:
    ds = _read_ds(args.train)
    report = cross_validate(ds, k=args.k, seed=args.seed,
                            trainer_fn=make_trainer(_kernel_spec(args), _trainer_config(args)))
    _write_report(render_report(report), report_to_json(report), args.out)
    print(f"cv weighted precision: {report.weighted.precision * 100:.1f}%")
    return 0


def cmd_select(args) -> int:
    ds = _read_ds(args.train)
    evaluator = args.evaluator.replace("-", "_")
    search = args.search.replace("-", "_")
    ranks = (search == "ranker" and evaluator != "pca") or (search == "greedy_stepwise" and args.generate_ranking)
    cuts = [f for f, v in (("--threshold", args.threshold), ("--num-to-select", args.num_to_select)) if v is not None]
    if cuts and not ranks:
        raise UsageError(f"{' and '.join(cuts)} cut a ranking, and {args.evaluator} with {args.search} makes none")
    threshold = 0.0 if args.threshold is None else args.threshold
    if evaluator == "cfs_subset":
        scorer = featsel.CfsMeritScorer(ds, bins=args.bins)
        if search == "best_first":
            result = featsel.search_best_first(ds.attributes, scorer, backtrack_limit=args.backtrack)
        elif search == "greedy_stepwise":
            result = featsel.search_greedy_stepwise(
                ds.attributes, scorer,
                num_to_select=args.num_to_select,
                threshold=threshold,
                generate_ranking=args.generate_ranking)
        else:
            raise UsageError("cfs-subset works with best-first or greedy-stepwise searches")
    elif evaluator == "pca":
        if search != "ranker":
            raise UsageError("pca works with the ranker search")
        result = featsel.pca_eval(ds, matrix=args.pca_matrix, variance_cover=args.pca_variance)
    else:
        if search != "ranker":
            raise UsageError(f"{args.evaluator} works with the ranker search")
        scores = featsel.rank_attributes(
            ds, evaluator,
            bins=args.bins, min_bucket=args.min_bucket,
            relieff_k=args.relieff_k)
        result = featsel.ranker_select(scores, threshold, args.num_to_select, evaluator=evaluator)
    Path(args.out).write_bytes(featsel.save_selection(result).encode("utf-8"))
    print(f"{args.evaluator}/{args.search}: retained {len(result.retained)} of {ds.n_attributes} attributes")
    return 0


def cmd_reduce(args) -> int:
    ds = _read_ds(args.input)
    selection = featsel.load_selection(_read_text(args.selection))
    reduced = featsel.reduce_dataset(ds, selection)
    _write_ds(reduced, args.out)
    print(f"reduced {ds.n_attributes} -> {reduced.n_attributes} attributes")
    return 0


def cmd_tune_kernel(args) -> int:
    train = _read_ds(args.train)
    test = _read_ds(args.test)
    families = [f.replace("-", "_") for f in args.kernels.split(",") if f]
    cells = grid_search(train, test, default_grid(families), _trainer_config(args))
    lines = [f"{'kernel':<40}{'precision':>10}{'TPR':>8}{'FPR':>8}{'SVs':>6}"]
    rows = []
    for cell in cells:
        if cell.report is None:
            lines.append(f"{cell.spec.describe():<40}{'error':>10}: {cell.error}")
            rows.append({"kernel": cell.spec.describe(), "error": str(cell.error)})
            continue
        w = cell.report.weighted
        lines.append(f"{cell.spec.describe():<40}{w.precision * 100:>9.1f}%{w.tpr * 100:>7.1f}%"
                     f"{w.fpr * 100:>7.1f}%{cell.n_support_vectors:>6}")
        rows.append({
            "kernel": cell.spec.describe(),
            "precision": w.precision,
            "tpr": w.tpr,
            "fpr": w.fpr,
            "support_vectors": cell.n_support_vectors,
        })
    _write_report("\n".join(lines) + "\n", json.dumps(rows, indent=2, allow_nan=False) + "\n", args.out)
    best = cells[0]
    if best.report is None:  # failed cells sort last: no cell trained
        raise best.error
    print(f"best cell: {best.spec.describe()} "
          f"(weighted precision {best.report.weighted.precision * 100:.1f}%)")
    return 0


def cmd_tune_threshold(args) -> int:
    train = _read_ds(args.train)
    test = _read_ds(args.test)
    selection = featsel.load_selection(_read_text(args.selection))
    if selection.pca is not None:
        raise UsageError("principal components carry no attribute ranking to sweep; use a ranked selection")
    if not selection.scores:
        raise UsageError("the selection file carries no attribute scores to sweep")
    spec = _kernel_spec(args)
    config = _trainer_config(args)

    def classifier_fn(ds_train, ds_test):
        return holdout_evaluate(train_multiclass(ds_train, spec, config), ds_test)

    threshold, best, sweep = featsel.tune_threshold(
        train, test, selection.scores, classifier_fn,
        metric=args.metric, evaluator=selection.evaluator)
    lines = [f"{'threshold':>14}{'retained':>10}{args.metric:>12}"]
    for entry in sweep:
        lines.append(f"{entry['threshold']:>14.8f}{entry['retained']:>10}{entry['metric'] * 100:>11.1f}%")
    lines.append("")
    lines.append(f"chosen threshold: {threshold:.8f} retaining {len(best.retained)} attributes")
    _write_report("\n".join(lines) + "\n",
                  json.dumps({"threshold": threshold, "retained": len(best.retained), "sweep": sweep},
                             indent=2, allow_nan=False) + "\n",
                  args.out)
    if args.selection_out:
        Path(args.selection_out).write_bytes(featsel.save_selection(best).encode("utf-8"))
    print(f"kept {len(best.retained)} of {len(selection.scores)} attributes at threshold {threshold:.8f}")
    return 0


def cmd_rank_aggregate(args) -> int:
    if len(args.selections) != LIST_COUNT:
        raise UsageError(f"rank aggregation needs exactly {LIST_COUNT} selection files, got {len(args.selections)}")
    lists = []
    for path in args.selections:
        selection = featsel.load_selection(_read_text(path))
        if selection.pca is not None:
            raise UsageError("principal components carry no attribute ranking; exclude that file")
        lists.append(selection.retained[:MAX_RANKED])
    ranking = featsel.aggregate_rank(lists)
    table = featsel.render_ranking(ranking)
    Path(args.out).write_bytes(table.encode("utf-8"))
    top = ", ".join(a for a, _ in ranking[:5])
    print(f"aggregated {len(ranking)} attributes; top: {top}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opdense",
                     description="Opcode-density datasets, SMO SVMs and attribute selection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled report corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=2, choices=(2, 6))
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--informative-opcodes", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("disasm", help="decode 32-bit PE files into report files")
    p.add_argument("pe_files", nargs="+")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("ingest", help="scan report files into a density dataset")
    p.add_argument("root")
    p.add_argument("--manifest", help="CSV sample_id,label overriding directory labels")
    p.add_argument("--dedupe", action="store_true", help="drop exact duplicate rows")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("preprocess", help="scale, flag outliers, shuffle")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--iqr-report", help="write per-instance outlier/extreme flags here")
    p.add_argument("--outlier-factor", type=float, default=3.0)
    p.add_argument("--extreme-factor", type=float, default=6.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("split", help="percentage split into train and test files")
    p.add_argument("input")
    p.add_argument("--percent", type=float, default=30.0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="train a pairwise SMO model")
    p.add_argument("train")
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file against a test dataset")
    p.add_argument("model")
    p.add_argument("test")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("train")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    _add_kernel_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("select", help="attribute selection")
    p.add_argument("train")
    p.add_argument("--evaluator", required=True,
                   choices=[e.replace("_", "-") for e in featsel.EVALUATORS])
    p.add_argument("--search", default="ranker",
                   choices=[s.replace("_", "-") for s in featsel.SEARCHES])
    p.add_argument("--threshold", type=float,
                   help="ranker or --generate-ranking: discard scores at or below it (default 0); "
                        "write a negative value in exponent form with '=', as --threshold=-1e-3")
    p.add_argument("--num-to-select", type=int, help="ranker or --generate-ranking: keep at most this many")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--min-bucket", type=int, default=6)
    p.add_argument("--relieff-k", type=int, default=10)
    p.add_argument("--backtrack", type=int, default=5)
    p.add_argument("--generate-ranking", action="store_true",
                   help="greedy-stepwise: record selection order as a ranking")
    p.add_argument("--pca-matrix", choices=("correlation", "covariance"), default="correlation")
    p.add_argument("--pca-variance", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("reduce", help="project a dataset onto a selection")
    p.add_argument("input")
    p.add_argument("selection")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("tune-kernel", help="kernel hyperparameter grid search")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("--kernels", default="poly,normalized-poly,rbf,puk",
                   help="comma-separated kernel families")
    _add_trainer_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tune_kernel)

    p = sub.add_parser("tune-threshold", help="decremental score-threshold sweep")
    p.add_argument("train")
    p.add_argument("test")
    p.add_argument("selection", help="selection file with attribute scores")
    _add_kernel_args(p)
    p.add_argument("--metric", default="precision",
                   choices=("precision", "recall", "tpr", "f_measure"))
    p.add_argument("--selection-out", help="write the chosen reduced selection here")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tune_threshold)

    p = sub.add_parser("rank-aggregate", help="merge 7 ranked selections into one table")
    p.add_argument("selections", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_rank_aggregate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except OpdenseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
