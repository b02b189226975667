"""Command-line pipeline driver.

Subcommands: obfuscate, extract, train, embed, evaluate, compare, rank,
xobf. Machine-readable outputs use the formats defined by their owning
modules; human-readable summaries go to stdout, diagnostics to stderr.
Exit code 0 iff no fatal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .aggregate import (
    SelectionSpec,
    build_dataset_suite,
    parse_aggregation_name,
    read_dataset_csv,
    standard_agg_suite,
    write_dataset_csv,
    write_embedding_csv,
)
from .config import RunManifest, manifest_path_for, manifest_value, read_manifest, settle
from .evaluate import (
    ClassifierConfig,
    CvPlan,
    NotARecord,
    cross_validate,
    name_prediction_f1,
    paired_ttest,
    rank_aggregations,
    read_report,
    write_report,
)
from .java import SourceUnit, java_files, read_sources
from .model import (
    ModelConfig,
    TrainedModel,
    load_checkpoint,
    predict_name,
    save_checkpoint,
    train,
)
from .obfuscate import ObfuscationScheme, build_rename_map, obfuscate_tree
from .pathctx import (
    PAD_TOKEN,
    UNK_TOKEN,
    ExtractionConfig,
    IndexedSample,
    MethodSample,
    extract_unit_samples,
    read_indexed_dump,
    write_context_dump,
)
from .util import atomic_open, sha256_file

logger = logging.getLogger(__name__)


def _read_pair_manifest(path: str) -> list[tuple[str, str, str]]:
    """(label, pathA, pathB) per non-empty line of a label<TAB>pathA<TAB>pathB file."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            pairs.append((parts[0], parts[1], parts[2]))
    return pairs


def _pair_items(
    corpus: Path, pairs: list[tuple[str, str, str]], skipped: Counter
) -> Iterator[tuple[str, tuple[SourceUnit | None, SourceUnit | None]]]:
    """(label, (unit a, unit b)) per pair. Each distinct path is read once,
    at the first pair that names it, and let go after the last one."""
    last_use = {rel: k for k, (_, a, b) in enumerate(pairs) for rel in (a, b)}
    units: dict[str, SourceUnit | None] = {}
    for k, (label, a, b) in enumerate(pairs):
        unread = [rel for rel in dict.fromkeys((a, b)) if rel not in units]
        units.update(read_sources(corpus, unread, skipped))
        yield label, (units[a], units[b])
        for rel in (a, b):
            if last_use[rel] == k:
                units.pop(rel, None)


# --- subcommands ---------------------------------------------------------------


def cmd_obfuscate(args) -> int:
    scheme = ObfuscationScheme(mode=args.mode, random_length=args.random_length, seed=args.seed)
    report = obfuscate_tree(args.input_dir, args.output_dir, scheme)
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_extract(args) -> int:
    extraction = ExtractionConfig.from_settings(args.settings)
    corpus = Path(args.corpus)
    files = java_files(corpus)
    skipped: Counter = Counter()
    methods: Counter = Counter()
    tokens: set[str] = set()
    paths: set[str] = set()
    targets: set[str] = set()

    def samples() -> Iterator[MethodSample]:
        """Each file's samples as the dump writer takes them, tallied on the
        way, so no list of every sample is built."""
        for _, unit in read_sources(corpus, files, skipped):
            if unit is None:
                continue
            methods["total"] += sum(len(cls.methods) for cls in unit.classes)
            for sample in extract_unit_samples(unit, extraction):
                methods["dumped"] += 1
                targets.add(sample.target_name)
                starts, mids, ends = zip(*sample.contexts)
                tokens.update(starts, ends)
                paths.update(mids)
                yield sample
        if not methods["dumped"]:  # raised inside the write: the old dump stays
            raise ValueError(f"{args.corpus}: no extractable methods")

    write_context_dump(samples(), args.out)

    reserved = {UNK_TOKEN, PAD_TOKEN}  # the vocabulary has them already
    stats = {
        "files": len(files),
        "skipped_files": skipped.total(),
        "skip_reasons": dict(skipped),
        "methods": methods["total"],
        "methods_dumped": methods["dumped"],
        "distinct_tokens": len(tokens - reserved),
        "distinct_paths": len(paths - reserved),
        "distinct_targets": len(targets - reserved),
    }
    RunManifest(
        stage="extract", config={"corpus": str(args.corpus), **args.settings}, counts=stats
    ).write(manifest_path_for(args.out))
    print(json.dumps(stats, sort_keys=True))
    return 0


def _dump_extraction(dump: str) -> ExtractionConfig:
    """The extraction limits that made `dump`, from its extract manifest,
    so that a checkpoint extracts what its model was trained on."""
    path = manifest_path_for(dump)
    if not path.exists():
        raise FileNotFoundError(
            f"{path}: no extract manifest; train takes its extraction limits from it"
        )
    settings = read_manifest(path, stage="extract")["config"]
    try:
        return ExtractionConfig.from_settings(settings)
    except KeyError as exc:
        raise ValueError(f"{path}: extract manifest has no {exc.args[0]!r} setting") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_train(args) -> int:
    extraction = _dump_extraction(args.contexts)
    model_config = ModelConfig(
        d_emb=args.d_emb,
        max_contexts=extraction.max_contexts,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        val_fraction=args.val_fraction,
        patience=args.patience,
        dropout_rate=args.dropout_rate,
    )

    indexed, vocab = read_indexed_dump(args.contexts, min_count=args.min_count)
    result = train(model_config, indexed, vocab)
    for stats in result.history:
        print(
            f"epoch {stats.epoch}: train_loss={stats.train_loss:.6f} "
            f"val_loss={stats.val_loss:.6f} val_top1={stats.val_top1:.4f} "
            f"val_f1={stats.val_f1:.4f}"
        )
    trained = TrainedModel(
        config=model_config, extraction=extraction, params=result.params, vocab=vocab
    )
    save_checkpoint(args.out, trained)
    summary = {
        "best_epoch": result.best_epoch,
        "samples": len(indexed),
        "tokens": vocab.n_tokens,
        "paths": vocab.n_paths,
        "targets": vocab.n_targets,
    }
    RunManifest(
        stage="train",
        config={"contexts": str(args.contexts), **args.settings},
        counts={**summary, "history": [asdict(stats) for stats in result.history]},
        checkpoint_hash=sha256_file(args.out),
    ).write(manifest_path_for(args.out))
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_embed(args) -> int:
    model = load_checkpoint(args.model)
    selection = SelectionSpec(mode=args.selection.lower(), k=args.k, seed=args.seed)
    use_suite = args.suite or args.aggregation == "suite"
    aggregations = (
        standard_agg_suite() if use_suite else [parse_aggregation_name(args.aggregation)]
    )
    corpus = Path(args.corpus)

    labels: list[str] = []  # label directories; each must yield a row
    skipped: Counter = Counter()
    if args.pairs:
        items = _pair_items(corpus, _read_pair_manifest(args.pairs), skipped)
    else:
        if not corpus.is_dir():
            raise FileNotFoundError(f"corpus directory not found: {corpus}")
        labels = sorted(d.name for d in corpus.iterdir() if d.is_dir())
        if not labels:
            raise ValueError(f"{corpus}: no label subdirectories")
        rels = [rel for label in labels for rel in java_files(corpus, label)]
        items = (
            (rel.split("/", 1)[0], (unit,)) for rel, unit in read_sources(corpus, rels, skipped)
        )
    methods = {} if args.methods_csv else None
    dataset, stats = build_dataset_suite(
        items, model, selection, aggregations,
        per_class_cap=args.per_class_cap, seed=args.seed, methods=methods,
    )
    for label in labels:
        if label not in stats.rows_per_label:
            raise ValueError(f"label {label!r} yielded zero embeddable files")
    if args.pairs and not dataset.y:
        raise ValueError("pair manifest yielded zero usable pairs")
    outs = [
        _suite_csv_path(args.out, agg.name) if use_suite else Path(args.out)
        for agg in aggregations
    ]
    write_dataset_csv(dataset, *outs, specs=aggregations)
    counts = {**asdict(stats), "skip_reasons": dict(skipped)}
    inputs = {
        "corpus": str(args.corpus),
        "model": str(args.model),
        "dataset_name": corpus.name,
        "pairs": args.pairs or "",
    }
    checkpoint_hash = sha256_file(args.model)
    for agg, out in zip(aggregations, outs):
        RunManifest(
            stage="embed",
            config={**inputs, **args.settings, "aggregation": agg.name},
            counts=counts,
            checkpoint_hash=checkpoint_hash,
        ).write(manifest_path_for(out))
    outputs = [str(out) for out in outs]

    if methods is not None:
        rows = [(path, name, v) for path, listed in methods.items() for name, v in listed]
        write_embedding_csv(args.methods_csv, rows)
        outputs.append(str(args.methods_csv))

    print(json.dumps({"outputs": outputs, "counts": counts}, sort_keys=True))
    return 0


def _suite_csv_path(base: str, agg_name: str) -> Path:
    path = Path(base)
    stem = path.name[: -len(".csv")] if path.name.endswith(".csv") else path.name
    return path.with_name(f"{stem}.{agg_name}.csv")


def cmd_evaluate(args) -> int:
    dataset = read_dataset_csv(args.data)
    dataset_name, agg_name = args.dataset_name, args.agg_name
    path = manifest_path_for(args.data)
    if path.exists() and (dataset_name is None or agg_name is None):
        manifest = read_manifest(path, stage="embed")
        dataset_name = dataset_name or manifest_value(path, manifest, "config", "dataset_name", str)
        agg_name = agg_name or manifest_value(path, manifest, "config", "aggregation", str)
    clf_config = ClassifierConfig(
        c=args.classifier_c, tol=args.classifier_tol, max_iterations=args.max_iterations
    )
    plan = CvPlan(runs=args.runs, folds=args.folds, seed=args.seed)
    report = cross_validate(dataset, clf_config, plan)
    report.dataset = dataset_name or Path(args.data).stem
    report.aggregation = agg_name or ""
    write_report(report, args.out)

    for run in range(report.runs):
        print(f"run {run}: kappa={report.per_fold_kappa[run].mean():.6f}")
    print(f"mean_kappa={report.mean_kappa:.6f}")
    print(f"mean_accuracy={report.mean_accuracy:.6f}")
    if report.unconverged_fits:
        logger.warning(
            "%d classifier fits hit the iteration limit (most iterations of a fit: %d)",
            report.unconverged_fits, report.max_fit_iterations,
        )
    RunManifest(
        stage="evaluate",
        config={
            "data": str(args.data),
            "dataset": report.dataset,
            "aggregation": report.aggregation,
            **args.settings,
        },
        counts={
            "rows": len(dataset.y),
            "labels": len(dataset.labels),
            "max_fit_iterations": report.max_fit_iterations,
            "unconverged_fits": report.unconverged_fits,
        },
        partition_fingerprint=report.partition_fingerprint,
    ).write(manifest_path_for(args.out))
    return 0


def cmd_compare(args) -> int:
    report_a = read_report(args.record_a)
    report_b = read_report(args.record_b)
    for side, record_path in (("a", args.record_a), ("b", args.record_b)):
        path = manifest_path_for(record_path)
        if not path.exists():
            continue
        manifest = read_manifest(path, stage="evaluate")
        unconverged = manifest_value(path, manifest, "counts", "unconverged_fits", int, 0)
        if unconverged > 0:
            logger.warning(
                "record %s (%s): %d classifier fits hit the iteration limit",
                side, record_path, unconverged,
            )
    result = paired_ttest(
        report_a.per_fold_kappa.ravel(),
        report_b.per_fold_kappa.ravel(),
        report_a.partition_fingerprint,
        report_b.partition_fingerprint,
    )
    record = {
        "a": report_a.dataset + "/" + report_a.aggregation,
        "b": report_b.dataset + "/" + report_b.aggregation,
        "mean_diff": result.mean_diff,
        "t": None if math.isinf(result.t_stat) else result.t_stat,  # mean_diff gives the sign
        "df": result.df,
        "p_value": result.p_value,
        "significant": result.significant,
    }
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    print(line)
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    return 0


def cmd_rank(args) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"results directory not found: {results_dir}")
    collected: dict[str, dict[str, list[float]]] = {}
    for path in sorted(results_dir.iterdir()):
        if not path.is_file():
            continue
        try:
            report = read_report(path)
        except NotARecord:
            continue
        if not report.aggregation:
            continue
        collected.setdefault(report.dataset, {}).setdefault(
            report.aggregation, []
        ).append(report.mean_kappa)
    if not collected:
        raise ValueError(f"no evaluation records found in {results_dir}")
    per_dataset = {
        dataset: {agg: sum(v) / len(v) for agg, v in aggs.items()}
        for dataset, aggs in collected.items()
    }
    for name, score in rank_aggregations(per_dataset).items():
        print(f"{score}\t{name}")
    return 0


def cmd_xobf(args) -> int:
    model = load_checkpoint(args.model)
    corpus = Path(args.corpus)
    scheme = ObfuscationScheme(mode="random", random_length=args.random_length, seed=args.seed)

    def indexed(unit: SourceUnit) -> list[IndexedSample]:
        return [model.vocab.index_sample(s) for s in extract_unit_samples(unit, model.extraction)]

    def predicted(samples: list[IndexedSample]) -> list[tuple[str, str]]:
        top = predict_name(model.params, samples, 1, model.vocab)
        return [(s.target_name, t[0][0]) for s, t in zip(samples, top)]

    # One file at a time: its tree goes before the next is read.
    parsed = changed = 0
    plain: list[tuple[str, str]] = []
    obfuscated: list[tuple[str, str]] = []
    skipped: Counter = Counter()
    for _, unit in read_sources(corpus, java_files(corpus), skipped):
        if unit is None:
            continue
        parsed += 1
        before = indexed(unit)
        # obfuscate_unit's text would parse to this tree with these leaves renamed.
        for binding, name in build_rename_map(unit, scheme).items():
            for leaf in binding.occurrences:
                leaf.token = name
        after = indexed(unit)
        # The rename reached the model where a start or end token's id changed.
        changed += sum(
            not (np.array_equal(a.starts, b.starts) and np.array_equal(a.ends, b.ends))
            for a, b in zip(before, after, strict=True)
        )
        plain.extend(predicted(before))
        obfuscated.extend(predicted(after))
    if not parsed:
        raise ValueError(f"{args.corpus}: no parseable files")
    if not plain or not obfuscated:
        raise ValueError(f"{args.corpus}: no extractable methods")

    f1_plain = name_prediction_f1(plain).f1
    f1_obf = name_prediction_f1(obfuscated).f1
    print(
        json.dumps(
            {
                "f1_plain": f1_plain,
                "f1_obfuscated": f1_obf,
                "drop": f1_plain - f1_obf,
                "methods": len(plain),
                "methods_changed": changed,
                "skip_reasons": dict(skipped),
            },
            sort_keys=True,
        )
    )
    return 0


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathvec",
        description="AST path-context embeddings: obfuscate, extract, train, embed, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"pathvec {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="key=value config file; flags override it")

    p = sub.add_parser("obfuscate", help="rewrite variable names in a directory tree")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out", dest="output_dir", required=True)
    p.add_argument("--mode", required=True, choices=["type", "random"])
    p.add_argument("--seed", type=int)
    p.add_argument("--len", dest="random_length", type=int, help="random name length")
    add_config(p)
    p.set_defaults(func=cmd_obfuscate)

    p = sub.add_parser("extract", help="parse a corpus and dump path-contexts")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-len", type=int, help="max path edges, 0 = unlimited")
    p.add_argument("--max-width", type=int, help="max path width, 0 = unlimited")
    p.add_argument("--max-contexts", type=int)
    p.add_argument("--seed", type=int)
    # Unread --jobs: goes once the benchmark stops passing it to extract (ROADMAP item 1).
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    add_config(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the prediction model on a context dump")
    p.add_argument("--contexts", required=True,
                   help="path-context dump; its extract manifest gives the extraction limits")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--d-emb", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--val-fraction", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--dropout-rate", type=float)
    p.add_argument("--seed", type=int)
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="build labeled datasets of file embeddings")
    p.add_argument("--corpus", required=True, help="corpus root: corpus/<label>/**/*.java")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--selection", choices=["all", "topk", "randomk"])
    p.add_argument("--k", type=int)
    p.add_argument("--agg", dest="aggregation", help="aggregation name, e.g. mean or meanMax")
    p.add_argument("--suite", action="store_true", help="emit all 23 aggregations")
    p.add_argument("--pairs", help="pair manifest: label<TAB>pathA<TAB>pathB")
    p.add_argument("--per-class-cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--methods-csv", help="also dump per-method embeddings here")
    add_config(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("evaluate", help="cross-validate a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="evaluation record path")
    p.add_argument("--runs", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--c", dest="classifier_c", type=float, help="regularization parameter C")
    p.add_argument("--tol", dest="classifier_tol", type=float, help="stop at tol*1e-6 of |grad0|")
    p.add_argument("--max-iter", dest="max_iterations", type=int, help="Newton steps per fit")
    p.add_argument("--dataset-name")
    p.add_argument("--agg-name")
    add_config(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired t-test between two evaluation records")
    p.add_argument("record_a")
    p.add_argument("record_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("rank", help="rank-score aggregations over a directory of records")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("xobf", help="name-prediction F1 on a corpus, plain vs obfuscated")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--len", dest="random_length", type=int)
    add_config(p)
    p.set_defaults(func=cmd_xobf)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.settings = settle(args)
        return args.func(args)
    except (OSError, ValueError) as exc:  # every refusal of input is one of these
        print(f"pathvec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
