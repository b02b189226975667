"""The Java front end's output bytes, pinned: `obfuscate` (both modes) and
`extract` on a fixed corpus must write exactly the recorded trees and
dumps. A change to the lexer, the parser, the bindings or the pair walk
that moves one byte fails here, not only in a benchmark run.

After a deliberate change to an artifact's bytes, copy the new digests
from the assertion's diff into DIGESTS and say why in the change.
"""

import hashlib
import json
from pathlib import Path

import synth
from pathvec.cli import main

# Its string literals hold commas and spaces, which a dump field may not.
LITERALS = """\
class Quoted {
    String joined(String head, int n) {
        String sep = ", ";
        String text = head + sep + "a, b c" + n;
        char comma = ',';
        return text + comma + " end ,";
    }
}
"""

# One method with far more than the default 200 contexts, so extract draws
# its sample.
LONG_STATEMENTS = "\n".join(
    f"        total = total + step{i % 7} * {i} - (step{(i + 3) % 7} + {i % 5});"
    for i in range(40)
)
LONG = (
    "class Long {\n"
    "    int sum(int step0, int step1, int step2, int step3, int step4, int step5, int step6) {\n"
    "        int total = 0;\n"
    f"{LONG_STATEMENTS}\n"
    "        return total;\n"
    "    }\n"
    "}\n"
)

DIGESTS = {
    "obf-random": "4ddd746834541facf542e0f0cbe5658b88ce4362dc75e1a21ffb4a131c5af3dc",
    "obf-type": "284b04977c881f7bc17caa920df41572cfc3526501710f8f367d10732328c33c",
    "dump-plain": "278dcca2afe6a9cadfd7cd5d091e96ae6d9adca4e0c531b0e74d253b870f39e2",
    "dump-random": "4892d92fd7fa79493d6ac8fa3acc77268de682954abdbbea045e6a7d9e63e0aa",
    "dump-type": "10819b54c50da869a8eb3649553a6589c7a63371bd6b42908f085f45b0bb2f2e",
}


def _corpus(root: Path) -> Path:
    corpus = root / "corpus"
    synth.generate_corpus(corpus, files_per_class=4, seed=5, typo_fraction=0.5)
    odd = corpus / "odd"
    odd.mkdir()
    source = (corpus / "loops" / "loops0001.java").read_text(encoding="utf-8")
    (odd / "Crlf.java").write_bytes(source.replace("\n", "\r\n").encode("utf-8"))
    (odd / "Cr.java").write_bytes(source.replace("\n", "\r").encode("utf-8"))
    (odd / "Quoted.java").write_text(LITERALS, encoding="utf-8")
    (odd / "Long.java").write_text(LONG, encoding="utf-8")
    return corpus


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(capsys, *argv) -> dict:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_obfuscate_and_extract_write_the_recorded_bytes(tmp_path, capsys):
    corpus = _corpus(tmp_path)
    got = {}
    for mode in ("random", "type"):
        out = tmp_path / f"obf-{mode}"
        report = _run(capsys, "obfuscate", "--in", str(corpus), "--out", str(out),
                      "--mode", mode, "--seed", "4")
        assert report["processed"] == 12, mode
        got[f"obf-{mode}"] = _tree_digest(out)
    for name, tree in (("plain", corpus), ("random", tmp_path / "obf-random"),
                       ("type", tmp_path / "obf-type")):
        dump = tmp_path / f"{name}.txt"
        stats = _run(capsys, "extract", "--corpus", str(tree), "--out", str(dump), "--seed", "6")
        assert (stats["files"], stats["skipped_files"]) == (12, 0), name
        got[f"dump-{name}"] = _file_digest(dump)
    long_line = next(line for line in (tmp_path / "plain.txt").read_text().splitlines()
                     if line.startswith("sum "))
    assert len(long_line.split(" ")) == 1 + 200  # the cap drew a sample
    assert got == DIGESTS
