import contextlib
import csv
import importlib
import io
import json
import pkgutil
import re
import shutil
import tempfile
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures_java as fx
import synth
from conftest import call_at_depth, rewrite_checkpoint_header
from oracles import build_vocabulary, count_distinct, csv_module_dataset_bytes
import pathvec
from pathvec import aggregate, cli
from pathvec.aggregate import read_dataset_csv
from pathvec.cli import main
from pathvec.config import PipelineConfig, manifest_path_for, read_manifest
from pathvec.evaluate import read_report
from pathvec.java import java_files, parser, read_sources
from pathvec.java.parser import MAX_NESTING
from pathvec.model import TrainedModel, load_checkpoint, save_checkpoint, train
from pathvec.obfuscate import ObfuscationScheme, obfuscate_tree
from pathvec.pathctx import (
    DOWN,
    UP,
    ExtractionConfig,
    MethodSample,
    PathContext,
    extract_unit_samples,
    read_context_dump,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny end-to-end run: corpus -> dump -> checkpoint -> dataset CSV."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    synth.generate_corpus(corpus, files_per_class=6, seed=1)
    dump = root / "contexts.txt"
    ckpt = root / "model.ckpt"
    csv = root / "data.csv"
    assert main(["extract", "--corpus", str(corpus), "--out", str(dump), "--seed", "3"]) == 0
    assert main([
        "train", "--contexts", str(dump), "--out", str(ckpt),
        "--d-emb", "6", "--epochs", "3", "--batch-size", "8", "--seed", "4",
    ]) == 0
    assert main([
        "embed", "--corpus", str(corpus), "--model", str(ckpt),
        "--out", str(csv), "--agg", "mean", "--seed", "5",
    ]) == 0
    return {"root": root, "corpus": corpus, "dump": dump, "ckpt": ckpt, "csv": csv}


# --- obfuscate -------------------------------------------------------------------


def test_cli_obfuscate_type_golden(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Holder.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "obfuscate", "--in", str(src), "--out", str(out), "--mode", "type"
    )
    assert code == 0
    report = json.loads(stdout.strip())
    assert report["processed"] == 1 and report["skipped"] == 0
    assert "param_string_1" in (out / "Holder.java").read_text()


@pytest.mark.parametrize("decl", [
    pytest.param("java.util.List<String> names = null;", id="qualified-statement"),
    pytest.param("for (List<String> names = null; n > 0; n--) { }", id="for-init"),
])
def test_cli_obfuscate_skips_a_generic_declaration_it_cannot_rename(tmp_path, capsys, decl):
    src = tmp_path / "src"
    src.mkdir()
    text = f"class A {{\n  int m(int n) {{\n    {decl}\n    return n;\n  }}\n}}\n"
    (src / "A.java").write_text(text, encoding="utf-8")
    (src / "Holder.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, _ = run(
        capsys, "obfuscate", "--in", str(src), "--out", str(out), "--mode", "random"
    )
    assert code == 0
    report = json.loads(stdout.strip())
    assert report == {"processed": 1, "skipped": 1, "skip_reasons": {"parse_error": 1}}
    # a skipped file is mirrored byte for byte, not rewritten with `n` renamed and `names` kept
    assert (out / "A.java").read_text(encoding="utf-8") == text


def test_cli_obfuscate_missing_dir(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "obfuscate", "--in", str(tmp_path / "nope"),
        "--out", str(tmp_path / "o"), "--mode", "type",
    )
    assert code != 0
    assert "error" in stderr


def test_cli_obfuscate_random_rerun_byte_identical(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    (src / "B.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code, _, _ = run(
            capsys, "obfuscate", "--in", str(src), "--out", str(out),
            "--mode", "random", "--seed", "7",
        )
        assert code == 0
    for rel in ("A.java", "B.java"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_cli_obfuscate_reads_config_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    conf = tmp_path / "pathvec.conf"
    conf.write_text("seed = 7\nrandom_length = 6\n", encoding="utf-8")
    out_conf, out_flag = tmp_path / "c", tmp_path / "f"
    run(capsys, "obfuscate", "--in", str(src), "--out", str(out_conf),
        "--mode", "random", "--config", str(conf))
    run(capsys, "obfuscate", "--in", str(src), "--out", str(out_flag),
        "--mode", "random", "--seed", "7", "--len", "6")
    assert (out_conf / "A.java").read_bytes() == (out_flag / "A.java").read_bytes()


def test_cli_obfuscate_refuses_an_output_directory_inside_its_input(tmp_path, capsys):
    src = tmp_path / "c"
    (src / "a").mkdir(parents=True)
    (src / "a" / "A.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    for out in (src / "obf", src / "a" / "deeper" / "obf"):
        code, stdout, stderr = run(capsys, "obfuscate", "--in", str(src), "--out", str(out),
                                   "--mode", "type")
        assert code == 1 and stdout == ""
        assert stderr == (
            f"pathvec: error: output directory {out} lies inside input directory {src}\n"
        )
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
    sibling = tmp_path / "c-obf"  # shares the input's name as a prefix, not as a parent
    for out in (sibling, src):  # in place is allowed too
        code, stdout, _ = run(capsys, "obfuscate", "--in", str(src), "--out", str(out),
                              "--mode", "type")
        assert code == 0 and json.loads(stdout)["processed"] == 1
    assert sorted(p.relative_to(src).as_posix() for p in src.rglob("*.java")) == ["a/A.java"]


@pytest.mark.parametrize("key", ["corpus", "work_dir", "checkpoint", "obfuscation", "jobs"])
def test_cli_config_rejects_unread_keys(tmp_path, capsys, key):
    src = tmp_path / "src"
    src.mkdir()
    conf = tmp_path / "pathvec.conf"
    conf.write_text(f"{key} = x\n", encoding="utf-8")
    code, _, stderr = run(capsys, "obfuscate", "--in", str(src), "--out", str(tmp_path / "o"),
                          "--mode", "type", "--config", str(conf))
    assert code == 1
    assert f"unknown config key {key!r}" in stderr


# --- extract ---------------------------------------------------------------------


def test_cli_extract_dump_lines(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "Two.java").write_text(
        "class Two { void m() { x = 7; } int f(int n) { return n + 1; } }",
        encoding="utf-8",
    )
    dump = tmp_path / "dump.txt"
    code, stdout, _ = run(capsys, "extract", "--corpus", str(corpus), "--out", str(dump))
    assert code == 0
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert f"x,NameExpr{UP}AssignExpr{DOWN}IntegerLiteralExpr,7" in lines[0]
    stats = json.loads(stdout.strip().splitlines()[-1])
    assert stats["methods_dumped"] == 2
    assert manifest_path_for(dump).exists()
    vocab = build_vocabulary(read_context_dump(dump), min_count=1)
    assert (stats["distinct_tokens"], stats["distinct_paths"], stats["distinct_targets"]) == (
        vocab.n_tokens - 2, vocab.n_paths - 2, vocab.n_targets - 2
    )
    assert read_manifest(manifest_path_for(dump))["counts"] == stats


def test_cli_extract_rerun_byte_identical(pipeline, tmp_path):
    dump2 = tmp_path / "again.txt"
    assert main([
        "extract", "--corpus", str(pipeline["corpus"]), "--out", str(dump2),
        "--seed", "3",
    ]) == 0
    assert dump2.read_bytes() == pipeline["dump"].read_bytes()


def test_cli_extract_parallel_matches_serial(pipeline, tmp_path):
    # --jobs is accepted but unread: the dump is the same as without it
    for jobs in ("1", "4"):
        dump2 = tmp_path / f"jobs{jobs}.txt"
        assert main([
            "extract", "--corpus", str(pipeline["corpus"]), "--out", str(dump2),
            "--seed", "3", "--jobs", jobs,
        ]) == 0
        assert dump2.read_bytes() == pipeline["dump"].read_bytes()


def _extract_stats_of_all_samples(corpus, cfg):
    """extract's counts, tallied over a list of every sample of the corpus."""
    files = java_files(corpus)
    skipped = Counter()
    samples, methods = [], 0
    for _, unit in read_sources(corpus, files, skipped):
        if unit is not None:
            methods += sum(len(cls.methods) for cls in unit.classes)
            samples.extend(extract_unit_samples(unit, cfg))
    tokens, paths, targets = count_distinct(samples)
    return {
        "files": len(files), "skipped_files": skipped.total(), "skip_reasons": dict(skipped),
        "methods": methods, "methods_dumped": len(samples), "distinct_tokens": tokens,
        "distinct_paths": paths, "distinct_targets": targets,
    }


def test_cli_extract_counts_equal_those_of_a_list_of_every_sample(pipeline, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    synth.generate_corpus(mixed, files_per_class=3, seed=8)
    (mixed / "Nest.java").write_text(fx.DEEP_PARENS, encoding="utf-8")
    (mixed / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")
    (mixed / "Empty.java").write_text("class E { void m() { } }", encoding="utf-8")
    (mixed / "Bad.java").write_text("class {", encoding="utf-8")
    (mixed / "Latin.java").write_bytes(b"class L { int f() { return 1; } } // \xff")
    for corpus, seed in ((pipeline["corpus"], 3), (mixed, 5)):
        dump = tmp_path / f"{corpus.name}.txt"
        code, stdout, _ = run(capsys, "extract", "--corpus", str(corpus), "--out", str(dump),
                              "--seed", str(seed))
        assert code == 0
        want = _extract_stats_of_all_samples(corpus, ExtractionConfig(seed=seed))
        assert stdout == json.dumps(want, sort_keys=True) + "\n"
        assert read_manifest(manifest_path_for(dump))["counts"] == want
    assert want["skipped_files"] == 3 and want["methods"] > want["methods_dumped"]


# --- train -----------------------------------------------------------------------


def test_cli_train_epochs_zero_checkpoint_loadable(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "init.ckpt"
    code, stdout, _ = run(
        capsys, "train", "--contexts", str(pipeline["dump"]), "--out", str(ckpt),
        "--d-emb", "4", "--epochs", "0",
    )
    assert code == 0
    model = load_checkpoint(ckpt)
    assert model.config.epochs == 0
    assert model.params.token_emb.shape[1] == 4


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_cli_train_refuses_a_non_finite_learning_rate(pipeline, tmp_path, capsys, rate):
    ckpt = tmp_path / "model.ckpt"
    code, _, stderr = run(
        capsys, "train", "--contexts", str(pipeline["dump"]), "--out", str(ckpt),
        "--d-emb", "4", "--epochs", "1", "--learning-rate", rate,
    )
    assert code == 1
    assert "learning_rate" in stderr
    assert not ckpt.exists()


def test_cli_train_same_seed_identical_checkpoints(pipeline, tmp_path):
    args = [
        "train", "--contexts", str(pipeline["dump"]),
        "--d-emb", "6", "--epochs", "3", "--batch-size", "8", "--seed", "4",
    ]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == pipeline["ckpt"].read_bytes()


def test_cli_train_builds_no_method_sample_or_path_context(pipeline, tmp_path, monkeypatch):
    built = Counter()
    real_init, real_new = MethodSample.__init__, PathContext.__new__

    def counting_init(self, *args, **kwargs):
        built["MethodSample"] += 1
        real_init(self, *args, **kwargs)

    def counting_new(cls, *args, **kwargs):
        built["PathContext"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(MethodSample, "__init__", counting_init)
    monkeypatch.setattr(PathContext, "__new__", counting_new)
    parsed = read_context_dump(pipeline["dump"])  # the counters see a parsed dump
    assert built == {"MethodSample": len(parsed), "PathContext": sum(len(s.contexts) for s in parsed)}
    built.clear()
    ckpt = tmp_path / "model.ckpt"
    assert main([
        "train", "--contexts", str(pipeline["dump"]), "--out", str(ckpt),
        "--d-emb", "6", "--epochs", "3", "--batch-size", "8", "--seed", "4",
    ]) == 0
    assert built == Counter()

    # the same checkpoint as training on the parsed samples, indexed one by one
    model = load_checkpoint(ckpt)
    vocab = build_vocabulary(parsed, min_count=1)
    result = train(model.config, [vocab.index_sample(s) for s in parsed], vocab)
    save_checkpoint(tmp_path / "oracle.ckpt", TrainedModel(model.config, model.extraction, result.params, vocab))
    assert ckpt.read_bytes() == (tmp_path / "oracle.ckpt").read_bytes()
    assert ckpt.read_bytes() == pipeline["ckpt"].read_bytes()
    written = read_manifest(manifest_path_for(ckpt))
    assert written["counts"] == read_manifest(manifest_path_for(pipeline["ckpt"]))["counts"]
    assert written["counts"]["samples"] == len(parsed)
    assert written["counts"]["best_epoch"] == result.best_epoch
    assert (written["counts"]["tokens"], written["counts"]["paths"], written["counts"]["targets"]) == (
        vocab.n_tokens, vocab.n_paths, vocab.n_targets
    )


def test_cli_train_inherits_extraction_from_dump_manifest(pipeline):
    model = load_checkpoint(pipeline["ckpt"])
    assert model.extraction.seed == 3  # from the extract manifest
    assert model.extraction.max_contexts == 200


def test_cli_train_epoch_lines_printed(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "log.ckpt"
    code, stdout, _ = run(
        capsys, "train", "--contexts", str(pipeline["dump"]), "--out", str(ckpt),
        "--d-emb", "4", "--epochs", "2", "--seed", "1",
    )
    assert code == 0
    assert "epoch 1:" in stdout and "val_f1=" in stdout
    history = read_manifest(manifest_path_for(ckpt))["counts"]["history"]
    lines = [line for line in stdout.splitlines() if line.startswith("epoch ")]
    assert [
        f"epoch {h['epoch']}: train_loss={h['train_loss']:.6f} val_loss={h['val_loss']:.6f} "
        f"val_top1={h['val_top1']:.4f} val_f1={h['val_f1']:.4f}"
        for h in history
    ] == lines
    assert len(history) == 2
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert "history" not in summary  # the printed summary keeps its keys


# --- embed -----------------------------------------------------------------------


def test_cli_embed_csv_shape(pipeline):
    model = load_checkpoint(pipeline["ckpt"])
    header = pipeline["csv"].read_text(encoding="utf-8").splitlines()[0]
    assert len(header.split(",")) == model.config.d_code + 1
    manifest = read_manifest(manifest_path_for(pipeline["csv"]))
    assert manifest["config"]["aggregation"] == "mean"
    assert manifest["checkpoint_hash"]


def test_cli_embed_rerun_byte_identical(pipeline, tmp_path):
    csv2 = tmp_path / "again.csv"
    assert main([
        "embed", "--corpus", str(pipeline["corpus"]), "--model", str(pipeline["ckpt"]),
        "--out", str(csv2), "--agg", "mean", "--seed", "5",
    ]) == 0
    assert csv2.read_bytes() == pipeline["csv"].read_bytes()


def test_cli_embed_pair_identical_zero_row(pipeline, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    first = sorted((pipeline["corpus"] / "loops").glob("*.java"))[0]
    rel = first.relative_to(pipeline["corpus"]).as_posix()
    other = sorted((pipeline["corpus"] / "chains").glob("*.java"))[0]
    rel_other = other.relative_to(pipeline["corpus"]).as_posix()
    pairs.write_text(f"dup\t{rel}\t{rel}\nnot\t{rel}\t{rel_other}\n", encoding="utf-8")
    out = tmp_path / "pairs.csv"
    code, _, _ = run(
        capsys, "embed", "--corpus", str(pipeline["corpus"]),
        "--model", str(pipeline["ckpt"]), "--out", str(out),
        "--agg", "mean", "--pairs", str(pairs),
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    dup_row = next(r for r in rows if r.endswith(",dup"))
    values = [float(x) for x in dup_row.split(",")[:-1]]
    assert values == [0.0] * len(values)


def test_cli_embed_suite_emits_23_csvs(pipeline, tmp_path, capsys):
    out = tmp_path / "suite" / "data.csv"
    out.parent.mkdir()
    code, stdout, _ = run(
        capsys, "embed", "--corpus", str(pipeline["corpus"]),
        "--model", str(pipeline["ckpt"]), "--out", str(out), "--suite",
    )
    assert code == 0
    produced = sorted(out.parent.glob("data.*.csv"))
    assert len(produced) == 23
    names = {p.name for p in produced}
    assert "data.mean.csv" in names
    assert "data.minMean.csv" in names
    assert "data.minMaxSumMeanMedStd.csv" in names


def _embed(pipeline, corpus, out, *extra):
    argv = ["embed", "--corpus", str(corpus), "--model", str(pipeline["ckpt"]),
            "--out", str(out), "--seed", "5", *extra]
    assert main(argv) == 0


@pytest.fixture(scope="module")
def pair_manifest(pipeline):
    files = sorted(pipeline["corpus"].rglob("*.java"))
    rels = [f.relative_to(pipeline["corpus"]).as_posix() for f in files]
    manifest = pipeline["root"] / "suite_pairs.tsv"
    manifest.write_text(
        "".join(
            f"{'same' if i % 2 else 'other'}\t{rels[i]}\t{rels[(i * 5 + 1) % len(rels)]}\n"
            for i in range(len(rels))
        ),
        encoding="utf-8",
    )
    return manifest


@pytest.fixture(scope="module")
def suite_runs(pipeline, pair_manifest, tmp_path_factory):
    """embed --suite, plain and over pairs, on the pipeline corpus."""
    root = tmp_path_factory.mktemp("suite_runs")
    _embed(pipeline, pipeline["corpus"], root / "data.csv", "--suite")
    _embed(pipeline, pipeline["corpus"], root / "pairs.csv", "--suite",
           "--pairs", str(pair_manifest))
    return root


@pytest.mark.parametrize("spec", ["mean", "minMean", "minMaxSumMeanMedStd"])
def test_cli_embed_suite_csv_matches_single_spec(pipeline, suite_runs, tmp_path, spec):
    single = tmp_path / "single.csv"
    _embed(pipeline, pipeline["corpus"], single, "--agg", spec)
    assert (suite_runs / f"data.{spec}.csv").read_bytes() == single.read_bytes()


@pytest.mark.parametrize("spec", ["mean", "minMean", "minMaxSumMeanMedStd"])
def test_cli_embed_suite_pairs_csv_matches_single_spec(
    pipeline, pair_manifest, suite_runs, tmp_path, spec
):
    single = tmp_path / "single.csv"
    _embed(pipeline, pipeline["corpus"], single, "--agg", spec, "--pairs", str(pair_manifest))
    suite_csv = suite_runs / f"pairs.{spec}.csv"
    assert suite_csv.read_bytes() == single.read_bytes()
    manifest = read_manifest(manifest_path_for(suite_csv))
    assert manifest["config"]["pairs"] == str(pair_manifest)
    assert manifest["config"]["aggregation"] == spec


def test_cli_embed_suite_quotes_label_directory_names(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    odd = 'odd,"label"'
    for label, name in (("loops", odd), ("chains", "plain")):
        (corpus / name).mkdir(parents=True)
        for src in sorted((pipeline["corpus"] / label).glob("*.java")):
            (corpus / name / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "suite" / "data.csv"
    out.parent.mkdir()
    _embed(pipeline, corpus, out, "--suite")
    single = tmp_path / "single.csv"
    _embed(pipeline, corpus, single, "--agg", "minMean")
    suite_csv = out.with_name("data.minMean.csv")
    assert suite_csv.read_bytes() == single.read_bytes()
    loaded = read_dataset_csv(suite_csv)
    assert loaded.labels == [odd, "plain"]
    assert suite_csv.read_bytes() == csv_module_dataset_bytes(loaded)
    assert ',"odd,""label"""\n' in suite_csv.read_text(encoding="utf-8")


def _corpus_with_non_utf8_file(pipeline, root):
    corpus = root / "corpus"
    (corpus / "loops").mkdir(parents=True)
    valid = sorted((pipeline["corpus"] / "loops").glob("*.java"))[0]
    (corpus / "loops" / "valid.java").write_bytes(valid.read_bytes())
    (corpus / "loops" / "latin1.java").write_bytes(
        b"class Latin { int f(int x) { return x; } } // caf\xe9 \xff\n"
    )
    return corpus


def test_cli_extract_skips_non_utf8_file(pipeline, tmp_path, capsys):
    corpus = _corpus_with_non_utf8_file(pipeline, tmp_path)
    code, stdout, _ = run(
        capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "d.txt")
    )
    assert code == 0
    stats = json.loads(stdout.strip())
    assert stats["files"] == 2 and stats["skipped_files"] == 1


def _nested_source(n):
    return f"class N {{ int f(int a) {{ return {'(' * n}a{')' * n}; }} }}".encode()


_NESTED_SOURCES = st.integers(0, 1000).map(_nested_source)
_FILE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text(max_size=120).map(str.encode),
    _NESTED_SOURCES,
    st.sampled_from([fx.FIG1_FACTORIAL.encode(), fx.LONG_SUM.encode(), b"class A { } // \xff"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FILE_BYTES, max_size=12))
def test_read_units_yields_one_result_per_file_in_order(contents):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rels = []
        for i, data in enumerate(contents):
            rel = f"d{i % 3}/f{i}.java"
            (root / rel).parent.mkdir(exist_ok=True)
            (root / rel).write_bytes(data)
            rels.append(rel)
        rels.insert(len(rels) // 2, "missing.java")  # unreadable
        skipped = Counter()
        results = [(rel, unit and (unit.path, unit.text))
                   for rel, unit in parser.read_sources(root, rels, skipped)]
    assert [rel for rel, _ in results] == rels
    assert skipped.total() == sum(unit is None for _, unit in results)
    units = dict(results)
    assert units.pop("missing.java") is None
    for (rel, unit), data in zip(units.items(), contents):
        assert unit is None or unit[0] == rel
        if data == fx.FIG1_FACTORIAL.encode():
            assert unit is not None
        if not _is_utf8(data):
            assert unit is None


def _is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def test_cli_extract_skips_too_deeply_nested_files(tmp_path, capsys, caplog):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "Nest.java").write_text(fx.DEEP_PARENS, encoding="utf-8")
    (corpus / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")
    (corpus / "Valid.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    for depth in (0, 20, 60):
        caplog.clear()
        code, stdout, stderr = call_at_depth(
            depth, run, capsys, "extract", "--corpus", str(corpus), "--out", str(tmp_path / "d.txt")
        )
        assert code == 0, stderr
        assert [r.getMessage() for r in caplog.records] == [
            "skipping Nest.java: line 1: nesting too deep"
        ]
        stats = json.loads(stdout.strip())
        assert stats["files"] == 3 and stats["skipped_files"] == 1
        assert stats["methods_dumped"] == 2  # the long sum's method among them


_DEPTH_CORPUS_FILES = st.one_of(
    _NESTED_SOURCES,
    st.integers(MAX_NESTING - 2, MAX_NESTING + 2).map(_nested_source),
    st.sampled_from([fx.FIG1_FACTORIAL.encode(), fx.FIG4_ORIGINAL.encode(), fx.LONG_SUM.encode(),
                     fx.DEEP_PARENS.encode(), b"class A { } // \xff"]),
)


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=10, deadline=None)
@given(st.lists(_DEPTH_CORPUS_FILES, min_size=1, max_size=4))
def test_results_do_not_depend_on_the_callers_stack_depth(pipeline, contents):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "in"
        root.mkdir()
        rels = [f"f{i}.java" for i in range(len(contents))]
        for rel, data in zip(rels, contents):
            (root / rel).write_bytes(data)

        def read():
            return [(rel, unit and (unit.text, [len(b.occurrences) for b in unit.bindings]))
                    for rel, unit in parser.read_sources(root, rels, Counter())]

        def obfuscate(out):
            report = obfuscate_tree(root, out, ObfuscationScheme("random", seed=3))
            return report, {p.name: p.read_bytes() for p in out.iterdir()}

        xobf = ["xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(root), "--seed", "5"]
        results = [
            (call_at_depth(depth, read),
             call_at_depth(depth, obfuscate, Path(tmp) / f"out{depth}"),
             call_at_depth(depth, _run_quietly, xobf))
            for depth in (0, 20, 60)
        ]
    assert results[1] == results[0] and results[2] == results[0]


XOBF_KEYS = {"f1_plain", "f1_obfuscated", "drop", "methods", "methods_changed", "skip_reasons"}


def test_xobf_processes_a_long_sum_deep_in_the_callers_stack(pipeline, tmp_path, capsys):
    (tmp_path / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")
    for depth in (0, 20, 60):
        code, stdout, stderr = call_at_depth(
            depth, run, capsys, "xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(tmp_path)
        )
        assert code == 0, stderr
        assert set(json.loads(stdout)) == XOBF_KEYS


def test_cli_embed_skips_non_utf8_file(pipeline, tmp_path, capsys):
    corpus = _corpus_with_non_utf8_file(pipeline, tmp_path)
    code, stdout, _ = run(
        capsys, "embed", "--corpus", str(corpus), "--model", str(pipeline["ckpt"]),
        "--out", str(tmp_path / "d.csv"), "--agg", "mean",
    )
    assert code == 0
    counts = json.loads(stdout.strip())["counts"]
    assert counts["files"] == 2 and counts["skipped_parse"] == 1
    assert counts["rows_per_label"] == {"loops": 1}


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cli_embed_refuses_a_per_class_cap_below_one(pipeline, tmp_path, capsys, cap):
    out = tmp_path / "d.csv"
    code, _, stderr = run(
        capsys, "embed", "--corpus", str(pipeline["corpus"]), "--model", str(pipeline["ckpt"]),
        "--out", str(out), "--agg", "mean", "--per-class-cap", cap,
    )
    assert code == 1
    assert "per_class_cap" in stderr
    assert "pair manifest" not in stderr and "negative dimensions" not in stderr
    assert not out.exists()


def test_cli_embed_refuses_a_checkpoint_whose_vocabulary_outgrows_its_tensors(
    pipeline, tmp_path, capsys
):
    ckpt = tmp_path / "damaged.ckpt"
    ckpt.write_bytes(pipeline["ckpt"].read_bytes())
    rewrite_checkpoint_header(ckpt, lambda header: header["vocab"]["tokens"].append("extra"))
    code, _, stderr = run(
        capsys, "embed", "--corpus", str(pipeline["corpus"]), "--model", str(ckpt),
        "--out", str(tmp_path / "d.csv"), "--agg", "mean",
    )
    assert code == 1
    assert stderr.startswith(f"pathvec: error: {ckpt}")


def test_cli_embed_methods_csv(pipeline, tmp_path, capsys):
    out = tmp_path / "d.csv"
    methods_csv = tmp_path / "methods.csv"
    code, _, _ = run(
        capsys, "embed", "--corpus", str(pipeline["corpus"]),
        "--model", str(pipeline["ckpt"]), "--out", str(out),
        "--agg", "mean", "--methods-csv", str(methods_csv),
    )
    assert code == 0
    lines = methods_csv.read_text(encoding="utf-8").splitlines()
    model = load_checkpoint(pipeline["ckpt"])
    assert lines[0].split(",")[:2] == ["sourcePath", "methodName"]
    assert len(lines[0].split(",")) == 2 + model.config.d_code
    assert len(lines) == 1 + 2 * 12  # two methods per file, 12 files


def _methods_csv_rows(pipeline, out_dir, corpus, *flags):
    out_dir.mkdir(exist_ok=True)
    methods_csv = out_dir / "methods.csv"
    _embed(pipeline, corpus, out_dir / "d.csv", "--agg", "mean",
           "--methods-csv", str(methods_csv), *flags)
    return methods_csv.read_text(encoding="utf-8").splitlines()[1:]


def test_cli_embed_methods_csv_lists_each_pair_file_once(pipeline, tmp_path):
    files = sorted(pipeline["corpus"].rglob("*.java"))
    a, b, c = (f.relative_to(pipeline["corpus"]).as_posix() for f in files[3:6])
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"x\t{b}\t{a}\ny\t{a}\t{c}\nz\t{c}\t{b}\n", encoding="utf-8")
    rows = _methods_csv_rows(pipeline, tmp_path, pipeline["corpus"], "--pairs", str(pairs))
    listed = [row.split(",", 1)[0] for row in rows]
    assert listed == [b, b, a, a, c, c]  # two methods a file, in the order first embedded
    every_file = _methods_csv_rows(pipeline, tmp_path / "all", pipeline["corpus"])
    assert sorted(rows) == sorted(row for row in every_file if row.split(",", 1)[0] in (a, b, c))


def test_cli_embed_pairs_reads_and_embeds_each_file_once(pipeline, tmp_path, monkeypatch):
    files = sorted(pipeline["corpus"].rglob("*.java"))[:6]
    rels = [f.relative_to(pipeline["corpus"]).as_posix() for f in files]
    # each file named in two pairs; a label per pair, so the CSV keeps manifest order
    pairs = [(f"p{k}", rels[k], rels[(k + 1) % 6]) for k in range(6)]
    flags = ["--agg", "minMax", "--selection", "randomk", "--k", "1"]

    expected_rows = []
    for k, pair in enumerate(pairs):  # one pair per run: nothing to reuse
        manifest, one = tmp_path / f"one{k}.tsv", tmp_path / f"one{k}.csv"
        manifest.write_text("\t".join(pair) + "\n", encoding="utf-8")
        _embed(pipeline, pipeline["corpus"], one, "--pairs", str(manifest), *flags)
        header, row = one.read_bytes().splitlines(keepends=True)
        expected_rows.append(row)

    calls = {"parse_file": 0, "method_vectors": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(parser, "parse_file", counting("parse_file", parser.parse_file))
    monkeypatch.setattr(
        aggregate, "method_vectors", counting("method_vectors", aggregate.method_vectors)
    )
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text("".join("\t".join(pair) + "\n" for pair in pairs), encoding="utf-8")
    out = tmp_path / "pairs.csv"
    methods_csv = tmp_path / "methods.csv"
    _embed(pipeline, pipeline["corpus"], out, "--pairs", str(manifest), *flags,
           "--methods-csv", str(methods_csv))
    assert calls == {"parse_file": 6, "method_vectors": 6}
    assert out.read_bytes() == header + b"".join(expected_rows)
    assert read_manifest(manifest_path_for(out))["counts"]["files"] == 6  # pairs, not files
    lines = methods_csv.read_text(encoding="utf-8").splitlines()[1:]
    listed = [line.split(",", 1)[0] for line in lines]
    assert list(dict.fromkeys(listed)) == rels and len(listed) == 2 * 6  # two methods a file


def test_cli_embed_methods_csv_lists_only_embedded_files(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    for label in ("loops", "chains"):
        (corpus / label).mkdir(parents=True)
        for src in sorted((pipeline["corpus"] / label).glob("*.java"))[:2]:
            (corpus / label / src.name).write_bytes(src.read_bytes())
    (corpus / "Root.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    rows = _methods_csv_rows(pipeline, tmp_path, corpus)
    listed = [row.split(",", 1)[0] for row in rows]
    # Root.java is outside every label directory, so embed does not read it
    labelled = [p.relative_to(corpus).as_posix() for p in sorted(corpus.glob("*/*.java"))]
    assert listed == [rel for rel in labelled for _ in range(2)]


def test_cli_embed_pair_whose_first_file_has_no_method_does_not_embed_its_second(
    pipeline, tmp_path, caplog
):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    (corpus / "Empty.java").write_text("class E { void m() { } }", encoding="utf-8")
    files = sorted(pipeline["corpus"].rglob("*.java"))
    a, b, c = (f.relative_to(pipeline["corpus"]).as_posix() for f in files[3:6])
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"x\tEmpty.java\t{a}\ny\t{b}\t{c}\n", encoding="utf-8")
    rows = _methods_csv_rows(pipeline, tmp_path, corpus, "--pairs", str(pairs))
    assert [row.split(",", 1)[0] for row in rows] == [b, b, c, c]  # a is never embedded
    assert "skipping Empty.java: no embeddable methods" in caplog.messages


# --- evaluate / compare / rank ------------------------------------------------------


def _write_separable_csv(path, n=30, width=3, gap=4.0):
    rng = np.random.default_rng(0)
    lines = [",".join([f"f{i}" for i in range(width)] + ["label"])]
    for i in range(n):
        vec = rng.normal(-gap, 0.1, size=width)
        lines.append(",".join(repr(float(x)) for x in vec) + ",neg")
    for i in range(n):
        vec = rng.normal(gap, 0.1, size=width)
        lines.append(",".join(repr(float(x)) for x in vec) + ",pos")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_cli_evaluate_separable(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    _write_separable_csv(data)
    record = tmp_path / "sep.txt"
    code, stdout, _ = run(
        capsys, "evaluate", "--data", str(data), "--out", str(record),
        "--runs", "2", "--folds", "5", "--seed", "1",
    )
    assert code == 0
    assert "mean_kappa=1.000000" in stdout
    assert record.exists()


def test_cli_evaluate_manifest_counts_unconverged_fits(tmp_path, capsys, caplog):
    data = tmp_path / "sep.csv"
    _write_separable_csv(data)
    counts = {}
    for max_iter in ("1", "1000"):
        record = tmp_path / f"sep{max_iter}.txt"
        caplog.clear()
        code, _, _ = run(
            capsys, "evaluate", "--data", str(data), "--out", str(record),
            "--runs", "2", "--folds", "5", "--seed", "1", "--max-iter", max_iter,
        )
        assert code == 0
        counts[max_iter] = read_manifest(manifest_path_for(record))["counts"]
        warned = [r for r in caplog.records if "iteration limit" in r.getMessage()]
        assert bool(warned) == (counts[max_iter]["unconverged_fits"] > 0)
        # the evaluation record format does not carry the convergence counts
        keys = [line.split("=")[0] for line in record.read_text().splitlines() if "=" in line]
        assert keys == ["format", "dataset", "aggregation", "runs", "folds", "seed",
                        "labels", "partition_fingerprint", "mean_kappa", "mean_accuracy"]
    # each binary fold is one fit, which takes three Newton steps here
    assert counts["1"]["unconverged_fits"] == 2 * 5
    assert counts["1"]["max_fit_iterations"] == 1
    assert counts["1000"]["unconverged_fits"] == 0
    assert counts["1000"]["max_fit_iterations"] == 3


def test_cli_evaluate_refuses_a_non_finite_field(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    _write_separable_csv(data)
    lines = data.read_text(encoding="utf-8").splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    record = tmp_path / "sep.txt"
    code, stdout, stderr = run(capsys, "evaluate", "--data", str(data), "--out", str(record))
    assert code == 1
    assert f"{data}: row 3" in stderr
    assert "mean_kappa" not in stdout and not record.exists()


def test_cli_compare_and_mismatch(tmp_path, capsys):
    data = tmp_path / "sep.csv"
    _write_separable_csv(data)
    rec_a, rec_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for rec in (rec_a, rec_b):
        assert main([
            "evaluate", "--data", str(data), "--out", str(rec),
            "--runs", "2", "--folds", "5", "--seed", "1",
        ]) == 0
    capsys.readouterr()  # drain evaluate output
    code, stdout, _ = run(capsys, "compare", str(rec_a), str(rec_b))
    assert code == 0
    result = json.loads(stdout.strip())
    assert result["p_value"] == 1.0
    assert result["significant"] is False

    rec_c = tmp_path / "c.txt"
    assert main([
        "evaluate", "--data", str(data), "--out", str(rec_c),
        "--runs", "2", "--folds", "5", "--seed", "2",
    ]) == 0
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "compare", str(rec_a), str(rec_c))
    assert code == 1 and stdout == ""
    assert stderr == "pathvec: error: fold partitions differ between the two reports\n"


def _record(path, kappas):
    from pathvec.evaluate import EvalReport, write_report

    kappas = np.asarray(kappas, dtype=float).reshape(1, -1)
    write_report(EvalReport(
        per_fold_kappa=kappas, per_fold_accuracy=kappas, mean_kappa=float(kappas.mean()),
        mean_accuracy=float(kappas.mean()), confusion_total=np.eye(2, dtype=np.int64),
        labels=["a", "b"], partition_fingerprint="fp", runs=1, folds=kappas.size, seed=0,
        dataset="algos", aggregation=path.stem,
    ), path)


def test_cli_compare_warns_about_the_side_with_unconverged_fits(tmp_path, capsys, caplog):
    rec_a, rec_b = tmp_path / "mean.txt", tmp_path / "max.txt"
    _record(rec_a, [0.5, 0.6, 0.7, 0.6])
    _record(rec_b, [0.4, 0.6, 0.5, 0.5])

    def compare_with(unconverged: dict):
        for rec in (rec_a, rec_b):
            manifest_path_for(rec).unlink(missing_ok=True)
        for rec, count in unconverged.items():
            manifest_path_for(rec).write_text(json.dumps(
                {"stage": "evaluate", "counts": {"unconverged_fits": count, "rows": 40}}
            ), encoding="utf-8")
        caplog.clear()
        code, stdout, _ = run(capsys, "compare", str(rec_a), str(rec_b))
        assert code == 0
        return stdout, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]

    plain, warnings = compare_with({})  # no manifests: no warning and no error
    assert warnings == []
    assert json.loads(plain)["a"] == "algos/mean"
    out, warnings = compare_with({rec_a: 0, rec_b: 0})
    assert (out, warnings) == (plain, [])
    out, warnings = compare_with({rec_a: 7, rec_b: 0})
    assert out == plain
    assert len(warnings) == 1 and "record a" in warnings[0] and str(rec_a) in warnings[0]
    assert "7 classifier fits" in warnings[0]
    out, warnings = compare_with({rec_b: 2})  # a has no manifest
    assert out == plain
    assert len(warnings) == 1 and "record b" in warnings[0] and str(rec_b) in warnings[0]
    out, warnings = compare_with({rec_a: 1, rec_b: 3})
    assert out == plain
    assert [w.split(" (")[0] for w in warnings] == ["record a", "record b"]


def test_cli_rank_from_records(tmp_path, capsys):
    # synthesize records directly to control mean kappas
    from pathvec.evaluate import EvalReport, write_report

    scores = {"maxMed": 0.736, "minMaxMean": 0.734, "medStd": 0.730,
              "minMax": 0.729, "meanStd": 0.728, "mean": 0.5}
    results = tmp_path / "results"
    results.mkdir()
    for agg, value in scores.items():
        report = EvalReport(
            per_fold_kappa=np.full((1, 2), value),
            per_fold_accuracy=np.full((1, 2), value),
            mean_kappa=value,
            mean_accuracy=value,
            confusion_total=np.eye(2, dtype=np.int64),
            labels=["a", "b"],
            partition_fingerprint="fp",
            runs=1,
            folds=2,
            seed=0,
            dataset="algos",
            aggregation=agg,
        )
        write_report(report, results / f"{agg}.txt")
    code, stdout, _ = run(capsys, "rank", "--results", str(results))
    assert code == 0
    lines = dict(
        (line.split("\t")[1], int(line.split("\t")[0]))
        for line in stdout.strip().splitlines()
    )
    assert lines == {"maxMed": 5, "minMaxMean": 4, "medStd": 3,
                     "minMax": 2, "meanStd": 1, "mean": 0}


def test_cli_rank_skips_manifests_and_refuses_a_damaged_record(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    for agg, kappas in {"mean": [0.5, 0.6], "max": [0.7, 0.8]}.items():
        _record(results / f"{agg}.txt", kappas)
        manifest_path_for(results / f"{agg}.txt").write_text(
            json.dumps({"stage": "evaluate", "counts": {"unconverged_fits": 0}}), encoding="utf-8"
        )
    code, stdout, stderr = run(capsys, "rank", "--results", str(results))
    assert code == 0 and stderr == ""
    assert stdout == "5\tmax\n4\tmean\n"
    damaged = results / "min.txt"
    _record(damaged, [0.5, 0.6])
    damaged.write_text(damaged.read_text("utf-8").replace("kappa\t0\t0.5", "kappa\t0\t7"), "utf-8")
    code, stdout, stderr = run(capsys, "rank", "--results", str(results))
    assert code == 1 and stdout == ""
    [line] = stderr.splitlines()
    assert line.startswith("pathvec: error:") and str(damaged) in line


def test_cli_compare_writes_strict_json_for_a_constant_difference(tmp_path, capsys):
    rec_a, rec_b, out = tmp_path / "mean.txt", tmp_path / "max.txt", tmp_path / "cmp.json"
    _record(rec_a, [1.0] * 4)
    _record(rec_b, [0.5] * 4)
    code, stdout, _ = run(capsys, "compare", str(rec_a), str(rec_b), "--out", str(out))
    assert code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for text in (stdout, out.read_text(encoding="utf-8")):
        result = json.loads(text, parse_constant=refuse)
        assert (result["t"], result["mean_diff"], result["p_value"]) == (None, 0.5, 0.0)


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("evaluate", "--max-iter", "0", "max_iterations must be >= 1"),
        ("evaluate", "--max-iter", "-1", "max_iterations must be >= 1"),
        ("train", "--patience", "0", "patience must be >= 1"),
        ("train", "--patience", "-5", "patience must be >= 1"),
        ("extract", "--max-len", "-3", "max_len must be >= 0"),
        ("extract", "--max-width", "-1", "max_width must be >= 0"),
        ("train", "--min-count", "0", "min_count must be >= 1"),
        ("train", "--min-count", "-5", "min_count must be >= 1"),
        ("train", "--d-emb", "0", "d_emb must be >= 1"),
        ("train", "--batch-size", "0", "batch_size must be >= 1"),
        ("train", "--epochs", "-1", "epochs must be >= 0"),
    ],
)
def test_a_setting_below_its_least_value_is_refused(
    command, flag, value, message, pipeline, tmp_path, capsys
):
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", "--data", str(pipeline["csv"]), "--runs", "1", "--folds", "2"],
        "train": ["train", "--contexts", str(pipeline["dump"]), "--d-emb", "4", "--epochs", "3"],
        "extract": ["extract", "--corpus", str(pipeline["corpus"])],
    }[command]
    code, _, stderr = run(capsys, *argv, flag, value, "--out", str(out))
    assert code == 1
    assert stderr == f"pathvec: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _refused_input(case, pipeline, tmp_path):
    """(argv, error message) of a command whose input is refused."""
    data, out = tmp_path / "data.csv", tmp_path / "out"
    if case == "evaluate-one-label":
        data.write_text("f0,label\n" + "".join(f"{i}.0,only\n" for i in range(6)), "utf-8")
        return ["evaluate", "--data", str(data), "--out", str(out)], (
            "need at least two distinct labels"
        )
    if case == "evaluate-fewer-rows-than-folds":
        _write_separable_csv(data, n=3)
        return ["evaluate", "--data", str(data), "--out", str(out), "--folds", "5"], (
            "label with 3 rows cannot be split into 5 folds"
        )
    if case == "embed-no-label-directories":
        corpus = tmp_path / "flat"
        corpus.mkdir()
        (corpus / "Fig1.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
        return ["embed", "--corpus", str(corpus), "--model", str(pipeline["ckpt"]),
                "--out", str(out)], f"{corpus}: no label subdirectories"
    flag, value, message = {
        "train-val-fraction-1": ("--val-fraction", "1", "val_fraction must be in [0, 1)"),
        "train-dropout-rate-1": ("--dropout-rate", "1", "dropout_rate must be in [0, 1)"),
    }[case]
    return ["train", "--contexts", str(pipeline["dump"]), "--out", str(out), flag, value], message


@pytest.mark.parametrize("case", [
    "evaluate-one-label",
    "evaluate-fewer-rows-than-folds",
    "embed-no-label-directories",
    "train-val-fraction-1",
    "train-dropout-rate-1",
])
def test_a_refused_input_is_one_error_line(case, pipeline, tmp_path, capsys):
    argv, message = _refused_input(case, pipeline, tmp_path)
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr == f"pathvec: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("char", ["\r", "\t", "\n"])
def test_cli_a_label_the_evaluation_record_cannot_hold_is_refused_at_the_record(
    char, pipeline, tmp_path, capsys
):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    label = f"lo{char}ops"
    (corpus / "loops").rename(corpus / label)
    data, methods = tmp_path / "data.csv", tmp_path / "methods.csv"
    code, _, _ = run(capsys, "embed", "--corpus", str(corpus), "--model", str(pipeline["ckpt"]),
                     "--out", str(data), "--agg", "mean", "--methods-csv", str(methods))
    assert code == 0
    assert sorted(read_dataset_csv(data).labels) == ["chains", label]
    with open(methods, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {2 + load_checkpoint(pipeline["ckpt"]).config.d_code}
    assert sum(row[0].startswith(f"{label}/") for row in rows) == 12  # two methods, six files

    record = tmp_path / "record.txt"
    code, stdout, stderr = run(capsys, "evaluate", "--data", str(data), "--out", str(record),
                               "--folds", "3", "--runs", "1")
    assert code == 1 and stdout == ""
    assert stderr == (
        f"pathvec: error: label {label!r} holds a tab or a line break,"
        " which an evaluation record cannot hold\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus", "data.csv", "data.csv.manifest.json", "methods.csv"
    ]


def test_every_exception_class_of_pathvec_is_a_value_error():
    """cli.main turns an OSError or a ValueError into one error line and
    catches nothing else, so every exception pathvec defines is a ValueError."""
    defined = {}
    for info in pkgutil.walk_packages(pathvec.__path__, "pathvec."):
        if info.name == "pathvec.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        defined.update(
            (obj.__name__, obj) for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == info.name
        )
    assert sorted(defined) == ["NotARecord", "ObfuscationError", "ParseError"]
    assert all(issubclass(cls, ValueError) for cls in defined.values())


@pytest.mark.parametrize("command", ["extract", "embed", "evaluate"])
def test_an_out_path_that_is_a_directory_is_one_error_line(command, pipeline, tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n", encoding="utf-8")
    argv = {
        "extract": ["extract", "--corpus", str(pipeline["corpus"]), "--seed", "3"],
        "embed": ["embed", "--corpus", str(pipeline["corpus"]), "--model", str(pipeline["ckpt"]),
                  "--agg", "mean"],
        "evaluate": ["evaluate", "--data", str(pipeline["csv"]), "--runs", "1", "--folds", "2"],
    }[command]
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stderr.count("pathvec: error:") == 1 and "Traceback" not in stderr
    assert str(out) in stderr
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text(encoding="utf-8") == "kept\n"


def _set(section, key, value):
    """A damage: the JSON text with obj[section][key] set to value."""
    def damage(text):
        obj = json.loads(text)
        obj[section][key] = value
        return json.dumps(obj)
    return damage


def _drop(section, key):
    """A damage: the JSON text without obj[section][key]."""
    def damage(text):
        obj = json.loads(text)
        del obj[section][key]
        return json.dumps(obj)
    return damage


def _replace(old, new):
    """A damage: the text with its first `old` replaced by `new`."""
    def damage(text):
        assert old in text
        return text.replace(old, new, 1)
    return damage


def _damaged_artifact(artifact, damage, pipeline, src):
    """(argv, damaged file) for the command that reads `artifact`, copied
    into `src` and damaged there; argv writes to `--out` in src's parent.
    A damage maps the artifact's text (a checkpoint's JSON header) to new
    text, or to bytes."""
    out = src.parent / "out"
    if artifact == "checkpoint":
        ckpt = src / "model.ckpt"
        ckpt.write_bytes(pipeline["ckpt"].read_bytes())
        rewrite_checkpoint_header(ckpt, lambda header: json.loads(damage(json.dumps(header))))
        argv = ["embed", "--corpus", str(pipeline["corpus"]), "--model", str(ckpt), "--agg", "mean"]
        return [*argv, "--out", str(out)], ckpt
    if artifact in ("dump", "dump-manifest"):
        dump = src / "contexts.txt"
        dump.write_bytes(pipeline["dump"].read_bytes())
        manifest_path_for(dump).write_bytes(manifest_path_for(pipeline["dump"]).read_bytes())
        damaged = dump if artifact == "dump" else manifest_path_for(dump)
        text = damage(damaged.read_text("utf-8"))
        damaged.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        argv = ["train", "--contexts", str(dump), "--d-emb", "4", "--epochs", "1"]
        return [*argv, "--out", str(out)], damaged
    if artifact in ("data", "data-manifest"):
        data = src / "data.csv"
        data.write_bytes(pipeline["csv"].read_bytes())
        manifest_path_for(data).write_bytes(manifest_path_for(pipeline["csv"]).read_bytes())
        damaged = data if artifact == "data" else manifest_path_for(data)
        damaged.write_text(damage(damaged.read_text("utf-8")), "utf-8")
        argv = ["evaluate", "--data", str(data), "--runs", "1", "--folds", "2"]
        return [*argv, "--out", str(out)], damaged
    record_a, record_b = src / "mean.txt", src / "max.txt"
    _record(record_a, [0.5, 0.6, 0.7, 0.6])
    _record(record_b, [0.4, 0.6, 0.5, 0.5])
    damaged = record_b if artifact == "record" else manifest_path_for(record_b)
    text = json.dumps({"stage": "evaluate", "counts": {"unconverged_fits": 0}})
    damaged.write_text(damage(record_b.read_text("utf-8") if artifact == "record" else text), "utf-8")
    return ["compare", str(record_a), str(record_b), "--out", str(out)], damaged


_NOT_INTEGERS = {"null": None, "string": "5", "list": [1], "bool": True, "float": 1.5}
_EXTRACTION = ("max_len", "max_width", "max_contexts", "seed")


@pytest.mark.parametrize("artifact, damage", [
    # a dump, read by train
    pytest.param("dump", lambda _: "", id="dump-empty"),
    pytest.param("dump", lambda text: b"\xff\xfe" + text.encode("utf-8"), id="dump-not-utf-8"),
    # the extract manifest next to a dump, read by train
    *(pytest.param("dump-manifest", _set("config", key, value), id=f"dump-manifest-{key}-{kind}")
      for key in _EXTRACTION for kind, value in _NOT_INTEGERS.items()),
    pytest.param("dump-manifest", _drop("config", "max_width"), id="dump-manifest-without-max-width"),
    pytest.param("dump-manifest", _set("config", "max_len", -1), id="dump-manifest-max_len-negative"),
    pytest.param("dump-manifest", _replace('"extract"', '"embed"'), id="dump-manifest-of-embed"),
    # the extraction settings in a checkpoint header, read by embed
    *(pytest.param("checkpoint", _set("extraction", key, value), id=f"checkpoint-{key}-{kind}")
      for key in _EXTRACTION for kind, value in {"string": "x", "float": 1.5, "bool": True}.items()),
    *(pytest.param("checkpoint", _set("extraction", key, -1), id=f"checkpoint-{key}-negative")
      for key in _EXTRACTION[:3]),
    pytest.param("checkpoint", lambda text: f"[{text}]", id="checkpoint-header-not-an-object"),
    pytest.param("checkpoint", lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "tensors"}
    ), id="checkpoint-without-tensors"),
    pytest.param("checkpoint", lambda text: json.dumps({**json.loads(text), "tensors": [
        {"name": t["name"]} for t in json.loads(text)["tensors"]
    ]}), id="checkpoint-tensor-without-shape"),
    # an evaluation record, read by compare; its kappa row 0 reads "0.4 0.6 0.5 0.5"
    pytest.param("record", _replace("kappa\t0\t0.4", "kappa\t0\t1e999"), id="record-kappa-1e999"),
    pytest.param("record", _replace("kappa\t0\t0.4", "kappa\t0\t7"), id="record-kappa-7"),
    pytest.param("record", _replace("kappa\t0\t0.4", "kappa\t0\tnan"), id="record-kappa-nan"),
    pytest.param("record", _replace("accuracy\t0\t0.4", "accuracy\t0\t1.5"), id="record-accuracy-1.5"),
    pytest.param("record", _replace("kappa\t0\t", "kappa\tabc\t"), id="record-row-index-abc"),
    pytest.param("record", _replace("kappa\t0\t0.4 0.6 0.5 0.5", "kappa\t0"),
                 id="record-kappa-row-without-values"),
    pytest.param("record", _replace("kappa\t0\t0.4 0.6 0.5 0.5", "kappa\t0\t0.4 0.6 0.5"),
                 id="record-short-kappa-row"),
    pytest.param("record", _replace("runs=1", "runs=abc"), id="record-runs-abc"),
    pytest.param("record", _replace("mean_kappa=0.5", "mean_kappa=abc"), id="record-mean-kappa-abc"),
    pytest.param("record", _replace("runs=1\n", ""), id="record-without-runs"),
    # the manifest next to an evaluation record, read by compare
    pytest.param("record-manifest", lambda _: "[]", id="record-manifest-a-list"),
    pytest.param("record-manifest", lambda _: "{", id="record-manifest-not-json"),
    pytest.param("record-manifest", lambda _: '{"stage": "evaluate", "counts": []}',
                 id="record-manifest-counts-a-list"),
    pytest.param("record-manifest", _set("counts", "unconverged_fits", "2"),
                 id="record-manifest-unconverged-fits-not-an-int"),
    # a dataset CSV and its manifest, read by evaluate
    pytest.param("data", lambda text: re.sub(r"\n[^,]*", "\nabc", text, count=1), id="data-field-abc"),
    pytest.param("data", lambda text: "\n" + text.split("\n", 1)[1], id="data-empty-header"),
    pytest.param("data-manifest", lambda _: "[]", id="data-manifest-a-list"),
    pytest.param("data-manifest", lambda _: '{"stage": "embed", "config": []}',
                 id="data-manifest-config-a-list"),
    pytest.param("data-manifest", _set("config", "dataset_name", ["x"]),
                 id="data-manifest-dataset-name-a-list"),
    pytest.param("data-manifest", _set("config", "aggregation", 3),
                 id="data-manifest-aggregation-an-int"),
])
def test_a_damaged_artifact_is_one_error_line(artifact, damage, pipeline, tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    argv, damaged = _damaged_artifact(artifact, damage, pipeline, src)
    inputs = sorted(src.iterdir())
    code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    [line] = stderr.splitlines()
    assert line.startswith("pathvec: error:") and str(damaged) in line
    assert stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["in"]
    assert sorted(src.iterdir()) == inputs


@pytest.mark.parametrize("artifact, damage", [
    pytest.param("data", lambda text: text.replace(text.splitlines()[1] + "\n", "", 1),
                 id="data-row-dropped"),
    pytest.param("data-manifest", _drop("config", "dataset_name"),
                 id="data-manifest-without-dataset-name"),
    pytest.param("record-manifest", None, id="record-manifest-absent"),
])
def test_a_damage_that_leaves_a_valid_artifact_is_processed(
    artifact, damage, pipeline, tmp_path, capsys
):
    src = tmp_path / "in"
    src.mkdir()
    argv, damaged = _damaged_artifact(artifact, damage or (lambda text: text), pipeline, src)
    if damage is None:
        damaged.unlink()
    code, _, stderr = run(capsys, *argv)
    assert code == 0 and "error" not in stderr
    if argv[0] == "evaluate":  # a sidecar without dataset_name falls back to the CSV stem
        dataset = "data" if artifact == "data-manifest" else "corpus"
        assert read_report(tmp_path / "out").dataset == dataset


# --- xobf -----------------------------------------------------------------------------


def test_cli_xobf_runs(pipeline, capsys):
    code, stdout, _ = run(
        capsys, "xobf", "--model", str(pipeline["ckpt"]),
        "--corpus", str(pipeline["corpus"]), "--seed", "11",
    )
    assert code == 0
    record = json.loads(stdout.strip())
    assert set(record) == XOBF_KEYS
    assert 0.0 <= record["f1_obfuscated"] <= 1.0


def _xobf_all_units_first(checkpoint, corpus, seed):
    """xobf's record with every file parsed, then every file obfuscated and
    re-parsed, then both sets scored: the pairs xobf collects one file at a
    time, in the same order."""
    from pathvec.evaluate import name_prediction_f1
    from pathvec.model import predict_name
    from pathvec.obfuscate import obfuscate_unit
    from pathvec.pathctx import extract_unit_samples

    model = load_checkpoint(checkpoint)
    rels = sorted(p.relative_to(corpus).as_posix() for p in corpus.rglob("*.java"))
    skipped = Counter()
    units = [u for _, u in parser.read_sources(corpus, rels, skipped) if u is not None]
    scheme = ObfuscationScheme(mode="random", random_length=8, seed=seed)
    obfuscated = [cli.parse_file(obfuscate_unit(u, scheme)[0], path=u.path) for u in units]

    def indexed(variants):
        return [model.vocab.index_sample(s)
                for unit in variants for s in extract_unit_samples(unit, model.extraction)]

    def f1(samples):
        tops = predict_name(model.params, samples, 1, model.vocab)
        return name_prediction_f1([(s.target_name, top[0][0]) for s, top in zip(samples, tops)]).f1

    before, after = indexed(units), indexed(obfuscated)
    changed = sum((a.starts.tolist(), a.ends.tolist()) != (b.starts.tolist(), b.ends.tolist())
                  for a, b in zip(before, after))
    f1_plain, f1_obf = f1(before), f1(after)
    return {"f1_plain": f1_plain, "f1_obfuscated": f1_obf, "drop": f1_plain - f1_obf,
            "methods": len(before), "methods_changed": changed, "skip_reasons": dict(skipped)}


def test_cli_xobf_holds_one_file_at_a_time_and_scores_as_before(pipeline, monkeypatch, capsys):
    parsed = []  # a weak reference to every unit parsed so far
    live_at_parse = []
    real_parse = parser.parse_file

    def counting_parse(*args, **kwargs):
        live_at_parse.append(sum(ref() is not None for ref in parsed))
        unit = real_parse(*args, **kwargs)
        parsed.append(weakref.ref(unit))
        return unit

    monkeypatch.setattr(parser, "parse_file", counting_parse)  # the files read
    monkeypatch.setattr(cli, "parse_file", counting_parse)  # their obfuscated text
    code, stdout, _ = run(
        capsys, "xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(pipeline["corpus"]),
        "--seed", "11",
    )
    assert code == 0
    assert len(live_at_parse) == 2 * 12  # each file parsed plain, then obfuscated
    assert max(live_at_parse) <= 2  # parsed trees do not pile up across the corpus
    monkeypatch.undo()
    expected = _xobf_all_units_first(pipeline["ckpt"], pipeline["corpus"], seed=11)
    assert stdout == json.dumps(expected, sort_keys=True) + "\n"


def test_cli_xobf_counts_the_methods_its_rename_changed(pipeline, tmp_path, capsys):
    """A model trained on the corpus as it is sees the rename. A model
    trained on a random-obfuscated copy sees none of it: the real names and
    the fresh ones are both out of its vocabulary, so both index to <unk>."""
    corpus = pipeline["corpus"]
    obf, dump, ckpt = tmp_path / "obf", tmp_path / "obf.txt", tmp_path / "obf.ckpt"
    for argv in (
        ["obfuscate", "--in", str(corpus), "--out", str(obf), "--mode", "random", "--seed", "2"],
        ["extract", "--corpus", str(obf), "--out", str(dump), "--seed", "3"],
        ["train", "--contexts", str(dump), "--out", str(ckpt), "--d-emb", "4", "--epochs", "1"],
    ):
        assert main(argv) == 0
    records = {}
    for name, model in (("plain", pipeline["ckpt"]), ("random", ckpt)):
        capsys.readouterr()
        code, stdout, _ = run(capsys, "xobf", "--model", str(model), "--corpus", str(corpus),
                              "--seed", "5")
        assert code == 0
        records[name] = json.loads(stdout)
    assert records["plain"]["methods"] == records["random"]["methods"] == 24
    assert 0 < records["plain"]["methods_changed"] <= 24
    assert records["random"]["methods_changed"] == 0
    assert records["random"]["drop"] == 0.0


def test_cli_xobf_errors_keep_their_conditions(pipeline, tmp_path, capsys):
    unparseable = tmp_path / "unparseable"
    unparseable.mkdir()
    (unparseable / "Bad.java").write_text("class {", encoding="utf-8")
    code, _, stderr = run(capsys, "xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(unparseable))
    assert code == 1 and "no parseable files" in stderr
    empty_methods = tmp_path / "empty_methods"
    empty_methods.mkdir()
    (empty_methods / "E.java").write_text("class E { void m() { } }", encoding="utf-8")
    code, _, stderr = run(capsys, "xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(empty_methods))
    assert code == 1 and "no extractable methods" in stderr


def test_cli_xobf_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = run(
        capsys, "xobf", "--model", "nope.ckpt", "--corpus", str(empty)
    )
    assert code != 0


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- settings: flag > config file > default ----------------------------------------

CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def _conf(path, **values):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def _settings_of(artifact):
    """The settings in an artifact's manifest, as they go in a config file."""
    config = read_manifest(manifest_path_for(artifact))["config"]
    return {k: v for k, v in config.items() if k in CONFIG_KEYS}


def test_extract_max_len_flag_over_file_over_default(pipeline, tmp_path):
    conf = _conf(tmp_path / "c.conf", max_len=3)
    runs = {"default": [], "file": ["--config", conf], "flag": ["--config", conf, "--max-len", "5"]}
    for name, extra in runs.items():
        argv = ["extract", "--corpus", str(pipeline["corpus"]), "--out", str(tmp_path / name), *extra]
        assert main(argv) == 0
    assert [_settings_of(tmp_path / name)["max_len"] for name in runs] == [8, 3, 5]


def test_train_d_emb_flag_over_file_over_default(pipeline, tmp_path):
    conf = _conf(tmp_path / "c.conf", d_emb=5)
    runs = {"default": [], "file": ["--config", conf], "flag": ["--config", conf, "--d-emb", "6"]}
    for name, extra in runs.items():
        argv = ["train", "--contexts", str(pipeline["dump"]), "--out", str(tmp_path / name),
                "--epochs", "0", *extra]
        assert main(argv) == 0
    assert [load_checkpoint(tmp_path / name).config.d_emb for name in runs] == [128, 5, 6]
    assert [_settings_of(tmp_path / name)["d_emb"] for name in runs] == [128, 5, 6]


def test_embed_aggregation_suite_from_file_and_overridden_by_flag(pipeline, tmp_path):
    conf = _conf(tmp_path / "c.conf", aggregation="suite")
    for name, extra in {"default": [], "file": ["--config", conf],
                        "flag": ["--config", conf, "--agg", "minMean"]}.items():
        (tmp_path / name).mkdir()
        _embed(pipeline, pipeline["corpus"], tmp_path / name / "data.csv", *extra)
    assert [p.name for p in (tmp_path / "default").glob("*.csv")] == ["data.csv"]
    assert _settings_of(tmp_path / "default" / "data.csv")["aggregation"] == "mean"
    assert len(list((tmp_path / "file").glob("data.*.csv"))) == 23
    assert [p.name for p in (tmp_path / "flag").glob("*.csv")] == ["data.csv"]
    assert _settings_of(tmp_path / "flag" / "data.csv")["aggregation"] == "minMean"


def test_evaluate_classifier_c_flag_over_file_over_default(tmp_path):
    data = tmp_path / "sep.csv"
    _write_separable_csv(data)
    conf = _conf(tmp_path / "c.conf", classifier_c=0.25)
    runs = {"default": [], "file": ["--config", conf], "flag": ["--config", conf, "--c", "4"]}
    for name, extra in runs.items():
        argv = ["evaluate", "--data", str(data), "--out", str(tmp_path / name),
                "--runs", "1", "--folds", "2", *extra]
        assert _run_quietly(argv)[0] == 0
    assert [_settings_of(tmp_path / name)["classifier_c"] for name in runs] == [1.0, 0.25, 4.0]


def test_xobf_random_length_flag_over_file_over_default(pipeline, tmp_path, capsys):
    xobf = ["xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(pipeline["corpus"]), "--seed", "2"]
    code, default, _ = run(capsys, *xobf)
    assert code == 0
    assert run(capsys, *xobf, "--len", "8")[1] == default  # the default length is 8
    too_short = _conf(tmp_path / "short.conf", random_length=3)
    code, _, stderr = run(capsys, *xobf, "--config", too_short)
    assert code == 1 and "random_length must be >= 4" in stderr
    code, flagged, _ = run(capsys, *xobf, "--config", too_short, "--len", "6")
    assert code == 0
    assert run(capsys, *xobf, "--config", _conf(tmp_path / "six.conf", random_length=6))[1] == flagged


def test_config_file_rejects_a_badly_typed_value_for_any_command(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    conf = _conf(tmp_path / "c.conf", seed=1, d_emb="wide")  # obfuscate does not read d_emb
    code, _, stderr = run(capsys, "obfuscate", "--in", str(src), "--out", str(tmp_path / "o"),
                          "--mode", "type", "--config", conf)
    assert code == 1
    assert "c.conf:2: d_emb takes a int, got 'wide'" in stderr
    assert not (tmp_path / "o").exists()


def test_train_ignores_extraction_limits_in_its_config_file(pipeline, tmp_path):
    conf = _conf(tmp_path / "c.conf", max_len=3, max_width=1, max_contexts=7)
    args = ["train", "--contexts", str(pipeline["dump"]),
            "--d-emb", "6", "--epochs", "3", "--batch-size", "8", "--seed", "4"]
    ckpt = tmp_path / "m.ckpt"
    assert main(args + ["--out", str(ckpt), "--config", conf]) == 0
    assert ckpt.read_bytes() == pipeline["ckpt"].read_bytes()


def test_train_has_no_extraction_flags(pipeline, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--contexts", str(pipeline["dump"]), "--out", str(tmp_path / "m"),
              "--max-len", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-len 3" in capsys.readouterr().err


def test_train_refuses_a_dump_without_its_extract_manifest(pipeline, tmp_path, capsys):
    dump = tmp_path / "bare.txt"
    dump.write_bytes(pipeline["dump"].read_bytes())
    code, _, stderr = run(capsys, "train", "--contexts", str(dump), "--out", str(tmp_path / "m"))
    assert code == 1
    assert f"{manifest_path_for(dump)}: no extract manifest" in stderr
    assert not (tmp_path / "m").exists()


# --- round trip: a manifest's settings, written back as a config file, rerun the command


def _rerun_from_manifest(artifact, tmp_path, argv):
    """Run argv with only the settings of artifact's manifest, as a config file."""
    conf = _conf(tmp_path / "settings.conf", **_settings_of(artifact))
    assert _run_quietly([*argv, "--config", conf])[0] == 0


def test_extract_settings_round_trip(pipeline, tmp_path):
    first, again = tmp_path / "first.txt", tmp_path / "again.txt"
    assert main(["extract", "--corpus", str(pipeline["corpus"]), "--out", str(first),
                 "--max-len", "5", "--max-width", "0", "--max-contexts", "9", "--seed", "7"]) == 0
    _rerun_from_manifest(first, tmp_path, ["extract", "--corpus", str(pipeline["corpus"]),
                                          "--out", str(again)])
    assert again.read_bytes() == first.read_bytes()
    assert read_manifest(manifest_path_for(again)) == read_manifest(manifest_path_for(first))


def test_embed_suite_csv_settings_round_trip(pipeline, tmp_path):
    (tmp_path / "suite").mkdir()
    _embed(pipeline, pipeline["corpus"], tmp_path / "suite" / "data.csv", "--suite",
           "--selection", "topk", "--k", "1", "--per-class-cap", "4", "--seed", "2")
    suite_csv = tmp_path / "suite" / "data.maxMean.csv"
    single = tmp_path / "single.csv"
    _rerun_from_manifest(suite_csv, tmp_path, ["embed", "--corpus", str(pipeline["corpus"]),
                                              "--model", str(pipeline["ckpt"]), "--out", str(single)])
    assert single.read_bytes() == suite_csv.read_bytes()
    assert read_manifest(manifest_path_for(single)) == read_manifest(manifest_path_for(suite_csv))


def test_evaluate_settings_round_trip(pipeline, tmp_path):
    first, again = tmp_path / "first.txt", tmp_path / "again.txt"
    assert _run_quietly(["evaluate", "--data", str(pipeline["csv"]), "--out", str(first),
                         "--runs", "2", "--folds", "3", "--seed", "4", "--c", "0.5",
                         "--tol", "0.0001", "--max-iter", "50"])[0] == 0
    _rerun_from_manifest(first, tmp_path, ["evaluate", "--data", str(pipeline["csv"]),
                                          "--out", str(again)])
    assert again.read_bytes() == first.read_bytes()
    assert read_manifest(manifest_path_for(again))["config"] == {
        "data": str(pipeline["csv"]), "dataset": "corpus", "aggregation": "mean",
        "classifier_c": 0.5, "classifier_tol": 0.0001, "max_iterations": 50,
        "runs": 2, "folds": 3, "seed": 4,
    }
