"""Every command reads corpus files through one reader, java.read_sources:
the same text, the same parse and the same counted skip reasons."""

import builtins
import io
import json
import sys
from pathlib import Path

import pytest

import fixtures_java as fx
import synth
from pathvec import aggregate, cli, obfuscate
from pathvec.cli import main
from pathvec.config import manifest_path_for, read_manifest
from pathvec.java import parser

# One method per file, so the byte stream differs only in its line ends.
COUNTER = """\
class {name} {{
    int count; // running
    int bump(int step) {{
        int next = count + step; /* new
           value */
        count = next;
        return next;
    }}
}}
"""


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    synth.generate_corpus(root / "corpus", files_per_class=3, seed=1)
    dump, ckpt = root / "contexts.txt", root / "model.ckpt"
    assert main(["extract", "--corpus", str(root / "corpus"), "--out", str(dump)]) == 0
    assert main(["train", "--contexts", str(dump), "--out", str(ckpt),
                 "--d-emb", "4", "--epochs", "1", "--seed", "2"]) == 0
    return ckpt


def _commands(corpus, out, checkpoint, pairs=None):
    """argv per reading command, each writing under `out`."""
    commands = {
        "obfuscate": ["obfuscate", "--in", str(corpus), "--out", str(out / "obf"),
                      "--mode", "random", "--seed", "3"],
        "extract": ["extract", "--corpus", str(corpus), "--out", str(out / "dump.txt")],
        "embed": ["embed", "--corpus", str(corpus), "--model", str(checkpoint),
                  "--out", str(out / "embed.csv"), "--agg", "mean"],
        "xobf": ["xobf", "--model", str(checkpoint), "--corpus", str(corpus)],
    }
    if pairs is not None:
        commands["embed_pairs"] = ["embed", "--corpus", str(corpus), "--model", str(checkpoint),
                                   "--out", str(out / "pairs.csv"), "--agg", "mean",
                                   "--pairs", str(pairs)]
    return commands


def _run(capsys, argv):
    capsys.readouterr()
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_command_parses_a_files_exact_text(tmp_path, checkpoint, monkeypatch, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "lines").mkdir(parents=True)
    files = {}
    for name, end in (("Crlf", "\r\n"), ("Cr", "\r"), ("Lf", "\n")):
        data = COUNTER.format(name=name).replace("\n", end).encode()
        (corpus / "lines" / f"{name}.java").write_bytes(data)
        files[f"lines/{name}.java"] = data.decode()

    seen = {}

    def spy(fn):
        def wrapped(unit, *args, **kwargs):
            seen.setdefault(unit.path, unit.text)  # xobf's obfuscated copy comes second
            return fn(unit, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "extract_unit_samples", spy(cli.extract_unit_samples))
    monkeypatch.setattr(aggregate, "extract_unit_samples", spy(aggregate.extract_unit_samples))
    monkeypatch.setattr(obfuscate, "obfuscate_unit", spy(obfuscate.obfuscate_unit))
    for command, argv in _commands(corpus, tmp_path, checkpoint).items():
        seen.clear()
        _run(capsys, argv)
        assert seen == files, command


def _corpus_with_one_file_per_reason(root):
    """Two label directories, each with a file that parses, and four files
    that every command skips, one per reason."""
    for label in ("a", "b"):
        (root / label).mkdir(parents=True)
    (root / "a" / "Valid.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    (root / "b" / "Valid.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    (root / "a" / "Missing.java").symlink_to(root / "nowhere.java")
    (root / "a" / "Latin.java").write_bytes(b"class Latin { int f(int x) { return x; } } // caf\xe9\n")
    (root / "b" / "Bad.java").write_text(fx.MALFORMED_REJECT, encoding="utf-8")
    (root / "b" / "Nest.java").write_text(fx.DEEP_PARENS, encoding="utf-8")
    pairs = root.parent / "pairs.tsv"
    pairs.write_text("x\ta/Valid.java\tb/Valid.java\n"
                     "y\ta/Missing.java\ta/Latin.java\n"
                     "z\tb/Bad.java\tb/Nest.java\n", encoding="utf-8")
    return pairs


SKIPPED = {"a/Missing.java": "unreadable", "a/Latin.java": "not_utf8",
           "b/Bad.java": "parse_error", "b/Nest.java": "nesting_too_deep"}


def test_every_command_counts_the_same_skip_reasons(tmp_path, checkpoint, capsys, caplog):
    corpus = tmp_path / "corpus"
    pairs = _corpus_with_one_file_per_reason(corpus)
    reasons = {reason: 1 for reason in SKIPPED.values()}
    counts = {}
    for command, argv in _commands(corpus, tmp_path, checkpoint, pairs).items():
        caplog.clear()
        summary = _run(capsys, argv)
        counts[command] = summary.get("counts", summary)
        assert counts[command]["skip_reasons"] == reasons, command
        warned = [r.getMessage().split(":", 1)[0] for r in caplog.records]
        assert sorted(warned) == sorted(f"skipping {rel}" for rel in SKIPPED), command
    assert (counts["obfuscate"]["processed"], counts["obfuscate"]["skipped"]) == (2, 4)
    assert counts["extract"]["skipped_files"] == 4
    assert counts["embed"]["skipped_parse"] == 4
    assert counts["embed_pairs"]["skipped_parse"] == 2  # pairs, not files
    for artifact in ("dump.txt", "embed.csv", "pairs.csv"):
        manifest = read_manifest(manifest_path_for(tmp_path / artifact))
        assert manifest["counts"]["skip_reasons"] == reasons, artifact
    # skipped files are mirrored byte for byte, except the one with nothing to read
    for rel in ("a/Latin.java", "b/Bad.java", "b/Nest.java"):
        assert (tmp_path / "obf" / rel).read_bytes() == (corpus / rel).read_bytes()
    assert not (tmp_path / "obf" / "a" / "Missing.java").exists()


def test_a_directory_named_dot_java_is_not_a_file(tmp_path, checkpoint, capsys, caplog):
    corpus = tmp_path / "corpus"
    (corpus / "a" / "odd.java").mkdir(parents=True)
    (corpus / "b").mkdir()
    (corpus / "a" / "odd.java" / "A.java").write_text(fx.FIG1_FACTORIAL, encoding="utf-8")
    (corpus / "b" / "B.java").write_text(fx.FIG4_ORIGINAL, encoding="utf-8")
    assert parser.java_files(corpus) == ["a/odd.java/A.java", "b/B.java"]
    commands = _commands(corpus, tmp_path, checkpoint)
    counts = {}
    for command in ("obfuscate", "extract", "embed"):
        caplog.clear()
        summary = _run(capsys, commands[command])
        counts[command] = summary.get("counts", summary)
        assert counts[command]["skip_reasons"] == {}, command
        assert not caplog.records, command
    assert counts["obfuscate"]["processed"] == 2
    assert counts["extract"]["files"] == 2
    assert counts["embed"]["skipped_parse"] == 0
    assert (tmp_path / "obf" / "a" / "odd.java" / "A.java").is_file()


def test_each_command_reads_every_java_file_once_through_the_reader(
    tmp_path, checkpoint, monkeypatch, capsys
):
    corpus = tmp_path / "corpus"
    pairs = _corpus_with_one_file_per_reason(corpus)
    java = sorted(p.relative_to(corpus).as_posix() for p in corpus.rglob("*.java"))
    assert len(java) == 6
    opened, parsed = [], []
    real_open, real_parse = builtins.open, parser.parse_file

    def spying_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(".java") and "b" not in mode:
            rel = Path(file).relative_to(corpus).as_posix()
            opened.append((rel, sys._getframe(1).f_code.co_name))
        return real_open(file, mode, *args, **kwargs)

    def spying_parse(text, path="<memory>"):
        parsed.append(path)
        return real_parse(text, path)

    monkeypatch.setattr(builtins, "open", spying_open)
    monkeypatch.setattr(io, "open", spying_open)  # what pathlib's readers call
    monkeypatch.setattr(parser, "parse_file", spying_parse)
    for command, argv in _commands(corpus, tmp_path, checkpoint, pairs).items():
        opened.clear()
        parsed.clear()
        _run(capsys, argv)
        assert sorted(opened) == [(rel, "read_sources") for rel in java], command
        readable = [rel for rel in java if rel not in ("a/Missing.java", "a/Latin.java")]
        assert sorted(parsed) == readable, command
