"""Every artifact writer replaces its output whole or not at all.

Each writer runs while every file opened for writing fails halfway
through its first write, as on a full disk. The previous artifact must
survive byte for byte, and no temporary file may be left next to it.
"""

import builtins
import errno
import io

import numpy as np
import pytest

import fixtures_java as fx
import synth
from pathvec import cli
from pathvec.aggregate import (
    AggregationSpec,
    LabeledDataset,
    write_dataset_csv,
    write_embedding_csv,
)
from pathvec.cli import main
from pathvec.config import RunManifest
from pathvec.evaluate import EvalReport, write_report
from pathvec.model import TrainedModel, save_checkpoint
from pathvec.obfuscate import ObfuscationScheme, obfuscate_tree
from pathvec.pathctx import ExtractionConfig, write_context_dump
from pathvec.util import atomic_open


class _DiskFull:
    """A file whose write stores half of its data, then fails, after
    `good_writes` writes that succeed."""

    def __init__(self, fh, good_writes=0):
        self.fh = fh
        self.good_writes = good_writes

    def write(self, data):
        if self.good_writes > 0:
            self.good_writes -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.fixture
def disk_full(monkeypatch):
    real_open = builtins.open

    def fail_from_now_on(good_writes=0):
        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _DiskFull(fh, good_writes) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", failing_open)
        monkeypatch.setattr(io, "open", failing_open)  # what Path.write_text calls

    return fail_from_now_on


def _report():
    return EvalReport(
        per_fold_kappa=np.full((1, 2), 0.5),
        per_fold_accuracy=np.full((1, 2), 0.75),
        mean_kappa=0.5,
        mean_accuracy=0.75,
        confusion_total=np.ones((2, 2), dtype=np.int64),
        labels=["a", "b"],
        partition_fingerprint="f" * 64,
        runs=1,
        folds=2,
        seed=0,
        dataset="d",
        aggregation="mean",
    )


def _dataset():
    X = np.stack([np.arange(4.0) + i for i in range(6)])
    return LabeledDataset(X, ["ab"[i % 2] for i in range(6)], functions=("mean", "max"))


def _write_checkpoint(tmp_path, tiny_model):
    config, params, vocab, _ = tiny_model
    save_checkpoint(tmp_path / "out", TrainedModel(config, ExtractionConfig(), params, vocab))


def _write_manifest(tmp_path, tiny_model):
    RunManifest(stage="extract", config={"corpus": "c"}, counts={"files": 3}).write(tmp_path / "out")


def _write_report(tmp_path, tiny_model):
    write_report(_report(), tmp_path / "out")


def _write_dump(tmp_path, tiny_model):
    write_context_dump(tiny_model[3], tmp_path / "out")


def _write_embeddings(tmp_path, tiny_model):
    write_embedding_csv(tmp_path / "out", [("A.java", "run", np.ones(3)), ("B.java", "go", np.zeros(3))])


def _write_suite_csvs(tmp_path, tiny_model):
    specs = [AggregationSpec(("mean",)), AggregationSpec(("mean", "max"))]
    write_dataset_csv(_dataset(), tmp_path / "out", tmp_path / "out2", specs=specs)


def _write_compare(tmp_path, tiny_model):
    # the command itself: main reports an OSError as one error line
    cli.cmd_compare(cli.build_parser().parse_args(
        ["compare", str(tmp_path / "a.rec"), str(tmp_path / "b.rec"), "--out", str(tmp_path / "out")]
    ))


WRITERS = [
    _write_checkpoint, _write_manifest, _write_report, _write_dump,
    _write_embeddings, _write_suite_csvs, _write_compare,
]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__[len("_write_"):])
def test_a_writer_that_fails_midway_leaves_the_previous_file(writer, tmp_path, tiny_model, disk_full):
    write_report(_report(), tmp_path / "a.rec")
    write_report(_report(), tmp_path / "b.rec")
    old = {"out": b"previous artifact\n", "out2": b"previous second artifact\n"}
    for name, data in old.items():
        (tmp_path / name).write_bytes(data)
    before = sorted(p.name for p in tmp_path.iterdir())
    disk_full()
    with pytest.raises(OSError, match="No space left"):
        writer(tmp_path, tiny_model)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    for name, data in old.items():
        assert (tmp_path / name).read_bytes() == data


def test_obfuscate_tree_that_fails_midway_leaves_the_previous_file(tmp_path, disk_full):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    out.mkdir()
    (src / "Holder.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    (out / "Holder.java").write_bytes(b"previous artifact\r\n")
    disk_full()
    with pytest.raises(OSError, match="No space left"):
        obfuscate_tree(src, out, ObfuscationScheme(mode="type"))
    assert [p.name for p in out.iterdir()] == ["Holder.java"]
    assert (out / "Holder.java").read_bytes() == b"previous artifact\r\n"


@pytest.mark.parametrize(
    "name, source",
    [("notes.txt", "not Java\n"), ("Broken.java", fx.MALFORMED_REJECT)],
    ids=["non_java", "unparseable"],
)
def test_obfuscate_tree_copy_that_fails_midway_leaves_the_previous_file(
    name, source, tmp_path, disk_full
):
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    out.mkdir()
    (src / name).write_text(source * 50, encoding="utf-8")
    (out / name).write_bytes(b"previous artifact\r\n")
    disk_full()
    with pytest.raises(OSError, match="No space left"):
        obfuscate_tree(src, out, ObfuscationScheme(mode="type"))
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_bytes() == b"previous artifact\r\n"


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_text(encoding="utf-8") == "old\n"
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("new\r\n")
    assert path.read_bytes() == b"new\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]



# --- extract streams its samples into the dump ---------------------------------


@pytest.fixture
def extracted(tmp_path):
    """A corpus and the dump and manifest extract made of it: the previous
    artifacts that a failed extract must leave as they are."""
    corpus = tmp_path / "corpus"
    synth.generate_corpus(corpus, files_per_class=4, seed=2)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["extract", "--corpus", str(corpus), "--out", str(out / "dump.txt"), "--seed", "3"]
    assert main(argv) == 0
    previous = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(previous) == ["dump.txt", "dump.txt.manifest.json"]
    assert previous["dump.txt"].count(b"\n") == 16  # one line per method

    def unchanged():
        return {p.name: p.read_bytes() for p in out.iterdir()} == previous

    return corpus, argv, unchanged


def test_extract_on_a_disk_that_fills_midway_through_the_dump_leaves_the_previous_one(
    extracted, disk_full, capsys
):
    _, argv, unchanged = extracted
    disk_full(good_writes=8)  # four whole lines, then half of the fifth
    assert main(argv) == 1
    assert capsys.readouterr().err == "pathvec: error: [Errno 28] No space left on device\n"
    assert unchanged()


def test_extract_that_fails_on_the_nth_file_leaves_the_previous_dump(extracted, monkeypatch):
    _, argv, unchanged = extracted
    real_extract = cli.extract_unit_samples
    calls = []

    def failing_extract(unit, cfg):
        calls.append(unit.path)
        if len(calls) == 3:
            raise RuntimeError(f"extraction failed on {unit.path}")
        return real_extract(unit, cfg)

    monkeypatch.setattr(cli, "extract_unit_samples", failing_extract)
    with pytest.raises(RuntimeError, match="extraction failed"):
        main(argv)
    assert len(calls) == 3
    assert unchanged()


@pytest.mark.parametrize(
    "files",
    [
        {"Bad.java": b"class {", "Latin.java": b"class L { int f() { return 1; } } // \xff"},
        {"Empty.java": b"class E { void m() { } }"},
    ],
    ids=["all_skipped", "no_extractable_method"],
)
def test_extract_of_a_corpus_with_nothing_to_dump_fails_and_keeps_the_previous_dump(
    files, extracted, tmp_path, capsys
):
    _, argv, unchanged = extracted
    corpus = tmp_path / "nothing"
    corpus.mkdir()
    for name, data in files.items():
        (corpus / name).write_bytes(data)
    argv[argv.index("--corpus") + 1] = str(corpus)
    assert main(argv) == 1
    assert "no extractable methods" in capsys.readouterr().err
    assert unchanged()
