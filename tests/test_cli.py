import contextlib
import io
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures_java as fx
import synth
from conftest import call_at_depth
from oracles import csv_module_dataset_bytes
from pathvec.aggregate import read_dataset_csv
from pathvec.cli import _read_units, main
from pathvec.config import PipelineConfig, manifest_path_for, read_manifest
from pathvec.java.parser import MAX_NESTING
from pathvec.model import load_checkpoint
from pathvec.obfuscate import ObfuscationScheme, obfuscate_tree
from pathvec.pathctx import DOWN, UP, build_vocabulary, read_context_dump


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
        results = [(rel, unit and (unit.path, unit.text)) for rel, unit in _read_units(root, rels)]
    assert [rel for rel, _ in results] == rels
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
            return [(rel, unit and (unit.text, len(unit.bindings), len(unit.unbound)))
                    for rel, unit in _read_units(root, rels)]

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


def test_xobf_processes_a_long_sum_deep_in_the_callers_stack(pipeline, tmp_path, capsys):
    (tmp_path / "Sum.java").write_text(fx.LONG_SUM, encoding="utf-8")
    for depth in (0, 20, 60):
        code, stdout, stderr = call_at_depth(
            depth, run, capsys, "xobf", "--model", str(pipeline["ckpt"]), "--corpus", str(tmp_path)
        )
        assert code == 0, stderr
        assert set(json.loads(stdout)) == {"f1_plain", "f1_obfuscated", "drop"}


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
        warned = [r for r in caplog.records if "L-BFGS" in r.getMessage()]
        assert bool(warned) == (counts[max_iter]["unconverged_fits"] > 0)
        # the evaluation record format does not carry the convergence counts
        keys = [line.split("=")[0] for line in record.read_text().splitlines() if "=" in line]
        assert keys == ["format", "dataset", "aggregation", "runs", "folds", "seed",
                        "labels", "partition_fingerprint", "mean_kappa", "mean_accuracy"]
    assert counts["1"]["unconverged_fits"] == 2 * 5  # one fit per binary fold
    assert counts["1"]["lbfgs_max_iterations"] == 1
    assert counts["1000"]["unconverged_fits"] == 0
    assert 1 < counts["1000"]["lbfgs_max_iterations"] <= 1000


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
    code, _, stderr = run(capsys, "compare", str(rec_a), str(rec_c))
    assert code != 0
    assert "partition" in stderr


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


# --- xobf -----------------------------------------------------------------------------


def test_cli_xobf_runs(pipeline, capsys):
    code, stdout, _ = run(
        capsys, "xobf", "--model", str(pipeline["ckpt"]),
        "--corpus", str(pipeline["corpus"]), "--seed", "11",
    )
    assert code == 0
    record = json.loads(stdout.strip())
    assert set(record) == {"f1_plain", "f1_obfuscated", "drop"}
    assert 0.0 <= record["f1_obfuscated"] <= 1.0


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
