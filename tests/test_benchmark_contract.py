"""What the benchmark reads of the program, checked on a tiny pipeline.

perfbench/workloads.py runs the pipeline through `cli.main` and checks
its outputs with the calls below: the summaries the commands print,
`load_checkpoint(...).vocab.n_tokens`, `.n_paths`, `.n_targets` and
`.config.d_code`, `pathctx.read_context_dump`, `evaluate.read_report`,
`aggregate.standard_agg_suite` and the extract manifest's
`counts.methods_dumped`. A change to any of them would make the benchmark
report its outputs as incorrect; this test fails first. It does not
import perfbench.
"""

import csv
import importlib
import json

import pytest

import synth
from pathvec.aggregate import standard_agg_suite
from pathvec.cli import main
from pathvec.config import manifest_path_for, read_manifest
from pathvec.evaluate import read_report
from pathvec.model import load_checkpoint
from pathvec.pathctx import read_context_dump


def _summary(capsys, argv):
    """The JSON object a command prints as its last stdout line, as the
    benchmark reads it, and the whole stdout."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_reads_what_the_pipeline_writes(tmp_path, capsys):
    outputs = tmp_path
    corpus, dump, ckpt = outputs / "corpus", outputs / "contexts.txt", outputs / "model.ckpt"
    synth.generate_corpus(corpus, files_per_class=5, seed=1)
    # the workloads still pass --jobs to extract
    extract, _ = _summary(capsys, ["extract", "--corpus", str(corpus), "--out", str(dump),
                                   "--seed", "1", "--jobs", "1"])
    assert 0 < extract["methods_dumped"] <= extract["methods"]
    dumped = read_manifest(manifest_path_for(dump))["counts"]["methods_dumped"]
    assert dumped == len(read_context_dump(dump)) == extract["methods_dumped"]

    train, stdout = _summary(capsys, ["train", "--contexts", str(dump), "--out", str(ckpt),
                                      "--d-emb", "4", "--epochs", "2", "--patience", "2",
                                      "--seed", "1"])
    epochs = [line for line in stdout.splitlines() if line.startswith("epoch ")]
    assert len(epochs) == 2
    for line in epochs:
        fields = dict(part.split("=", 1) for part in line.split(": ", 1)[1].split())
        assert 0.0 <= float(fields["val_f1"]) <= 1.0
    model = load_checkpoint(ckpt)
    vocab = model.vocab
    assert train["samples"] > 0
    assert {"tokens": vocab.n_tokens, "paths": vocab.n_paths, "targets": vocab.n_targets} == {
        k: train[k] for k in ("tokens", "paths", "targets")
    }

    mean_csv, suite_csv = outputs / "mean.csv", outputs / "suite.csv"
    embed, _ = _summary(capsys, ["embed", "--corpus", str(corpus), "--model", str(ckpt),
                                 "--out", str(mean_csv), "--agg", "mean", "--seed", "1"])
    suite, _ = _summary(capsys, ["embed", "--corpus", str(corpus), "--model", str(ckpt),
                                 "--out", str(suite_csv), "--suite", "--seed", "1"])
    d_code = model.config.d_code
    csvs = [(mean_csv, 1, embed)] + [
        (outputs / f"suite.{spec.name}.csv", len(spec.functions), suite)
        for spec in standard_agg_suite()
    ]
    assert len(csvs) == 24
    for path, n_functions, summary in csvs:
        with open(path, encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh))
        assert len(records) - 1 == sum(summary["counts"]["rows_per_label"].values()), path
        assert all(len(r) == n_functions * d_code + 1 for r in records), path

    record = outputs / "mean.txt"
    assert main(["evaluate", "--data", str(mean_csv), "--out", str(record),
                 "--runs", "2", "--folds", "2", "--seed", "1"]) == 0
    report = read_report(record)
    assert (report.runs, report.folds) == (2, 2)
    assert report.per_fold_kappa.shape == (report.runs, report.folds)
    assert -1.0 <= report.mean_kappa <= 1.0


# The names perfbench/tracer.py rebinds to time a layer: it looks each one
# up by module and attribute, and a hook whose name is gone reads 0 and
# adds to trace.missing_wrappers. These are the ones that resolve today.
TRACED_NAMES = [
    ("pathvec.java.parser", "tokenize"),
    ("pathvec.java.bindings", "resolve_bindings"),
    ("pathvec.cli", "obfuscate_tree"),
    ("pathvec.obfuscate", "obfuscate_unit"),
    ("pathvec.cli", "extract_unit_samples"),
    ("pathvec.aggregate", "extract_unit_samples"),
    ("pathvec.pathctx", "cap_contexts"),
    ("pathvec.cli", "write_context_dump"),
    ("pathvec.cli", "train"),
    ("pathvec.model", "loss_and_grads"),
    ("pathvec.model", "_validate"),
    ("pathvec.model", "forward"),
    ("pathvec.cli", "save_checkpoint"),
    ("pathvec.cli", "load_checkpoint"),
    ("pathvec.cli", "build_dataset_suite"),
    ("pathvec.aggregate", "aggregate_vectors"),
    ("pathvec.cli", "write_dataset_csv"),
    ("pathvec.cli", "read_dataset_csv"),
    ("pathvec.cli", "cross_validate"),
    ("pathvec.evaluate", "train_linear"),
]


@pytest.mark.parametrize("module, attr", TRACED_NAMES, ids=lambda x: x)
def test_every_name_the_tracer_rebinds_still_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
