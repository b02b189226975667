"""The pipeline writes the same bytes whatever the BLAS thread count and
hash seed.

Each environment is a fresh interpreter under OPENBLAS_NUM_THREADS 1 or 2
and PYTHONHASHSEED 0 or 123. One test runs `python -m pathvec train` on a
dump that holds the two long sums of the training step that a BLAS splits
across threads (see REDUCE_BLOCK): methods longer than RUN_CONTEXTS
contexts, each a run of its own, and more method names than a block. The
other runs extract, train, embed and evaluate in one process and compares
every file they write. This checks the host the tests run on, not other
BLAS builds or CPUs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathvec
import synth
from pathvec.cli import main
from pathvec.model import REDUCE_BLOCK, RUN_CONTEXTS

SRC = Path(pathvec.__file__).resolve().parents[1]
ENVIRONMENTS = [(threads, hash_seed) for threads in ("1", "2") for hash_seed in ("0", "123")]


def _env(threads, hash_seed):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _many_methods(k, n):
    methods = "\n".join(
        f"    int value{k}x{i}(int v) {{ int t = v * {i % 7}; return t + {i}; }}"
        for i in range(n)
    )
    return f"class Many{k} {{\n{methods}\n}}\n"


def _long_method(k, op):
    body = "\n".join(f"        total = total {op} value * {i};" for i in range(60))
    return (
        f"class Long{k} {{\n    int sumAll{k}(int value) {{\n        int total = 0;\n"
        f"{body}\n        return total;\n    }}\n}}\n"
    )


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    corpus, dump = root / "corpus", root / "contexts.txt"
    synth.generate_corpus(corpus, files_per_class=4, seed=2)
    for k, op in enumerate("+-*"):
        (corpus / "loops" / f"long{k}.java").write_text(_long_method(k, op))
    for k in range(10):
        (corpus / "chains" / f"many{k}.java").write_text(_many_methods(k, 100))
    assert main(["extract", "--corpus", str(corpus), "--out", str(dump),
                 "--max-contexts", "600", "--seed", "3"]) == 0
    lengths = [len(line.split()) - 1 for line in dump.read_text("utf-8").splitlines()]
    assert sum(n > RUN_CONTEXTS for n in lengths) == 3
    assert len(lengths) > 1000 > 2 * REDUCE_BLOCK  # one method name per line
    return dump


def test_train_bytes_do_not_depend_on_blas_threads_or_hash_seed(dump, tmp_path):
    outputs = {}
    for threads, hash_seed in ENVIRONMENTS:
        out = tmp_path / f"{threads}-{hash_seed}" / "model.ckpt"
        out.parent.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "pathvec", "train", "--contexts", str(dump),
             "--out", str(out), "--d-emb", "16", "--epochs", "3", "--seed", "4"],
            env=_env(threads, hash_seed), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        manifest = out.with_name(out.name + ".manifest.json")
        outputs[threads, hash_seed] = (out.read_bytes(), manifest.read_bytes())
    assert len(set(outputs.values())) == 1, sorted(outputs)


# One process per environment; paths are relative to its own directory, so
# the manifests, which record them, can be compared byte for byte.
_PIPELINE = """
import sys
from pathvec.cli import main
for argv in [
    ["extract", "--corpus", "../corpus", "--out", "contexts.txt", "--seed", "3"],
    ["train", "--contexts", "contexts.txt", "--out", "model.ckpt",
     "--d-emb", "8", "--epochs", "2", "--seed", "4"],
    ["embed", "--corpus", "../corpus", "--model", "model.ckpt", "--out", "data.csv",
     "--agg", "meanMax", "--seed", "5"],
    ["evaluate", "--data", "data.csv", "--out", "eval.txt", "--runs", "2", "--folds", "3"],
]:
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_pipeline_bytes_do_not_depend_on_blas_threads_or_hash_seed(tmp_path):
    synth.generate_corpus(tmp_path / "corpus", files_per_class=6, seed=2)
    outputs = {}
    for threads, hash_seed in ENVIRONMENTS:
        work = tmp_path / f"{threads}-{hash_seed}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _PIPELINE], cwd=work,
            env=_env(threads, hash_seed), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs[threads, hash_seed] = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    first = outputs[ENVIRONMENTS[0]]
    assert set(first) == {
        name + suffix
        for name in ("contexts.txt", "model.ckpt", "data.csv", "eval.txt")
        for suffix in ("", ".manifest.json")
    }
    for environment, files in outputs.items():
        assert files == first, environment
