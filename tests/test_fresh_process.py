"""Only compare loads scipy.

Each command runs as `python -X importtime -m pathvec ...` in a fresh
interpreter, whose stderr then names every module it imported. The other
commands must finish without scipy.optimize or scipy.special, and evaluate,
whose classifier is fit with numpy alone, without any scipy module; compare
must load scipy.special and give the same p-value as scipy called directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import stdtr as scipy_stdtr

import pathvec
import synth
from pathvec import evaluate
from pathvec.cli import main
from pathvec.evaluate import EvalReport, paired_ttest, train_linear, write_report

SRC = Path(pathvec.__file__).resolve().parents[1]
SCIPY = {"scipy.optimize", "scipy.special"}


def pathvec_fresh(*argv):
    """(stdout, modules imported) of one fresh `python -m pathvec` that exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pathvec", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, modules


def _record(path, aggregation, kappas):
    kappas = np.asarray(kappas, dtype=float).reshape(1, -1)
    write_report(EvalReport(
        per_fold_kappa=kappas, per_fold_accuracy=kappas, mean_kappa=float(kappas.mean()),
        mean_accuracy=float(kappas.mean()), confusion_total=np.eye(2, dtype=np.int64),
        labels=["a", "b"], partition_fingerprint="fp", runs=1, folds=kappas.size, seed=0,
        dataset="algos", aggregation=aggregation,
    ), path)


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fresh")
    corpus, obf = root / "corpus", root / "obf"
    synth.generate_corpus(corpus, files_per_class=4, seed=2)
    dump, ckpt, csv = root / "contexts.txt", root / "model.ckpt", root / "mean.csv"
    results = root / "results"
    results.mkdir()
    _record(results / "mean.txt", "mean", [0.5, 0.6, 0.7, 0.6])
    _record(results / "max.txt", "max", [0.4, 0.6, 0.5, 0.5])
    runs = {
        "obfuscate": ["--in", corpus, "--out", obf, "--mode", "random", "--seed", 1],
        "extract": ["--corpus", obf, "--out", dump, "--seed", 3],
        "train": ["--contexts", dump, "--out", ckpt, "--d-emb", 4, "--epochs", 1, "--seed", 4],
        "embed": ["--corpus", corpus, "--model", ckpt, "--out", csv, "--agg", "mean"],
        "xobf": ["--model", ckpt, "--corpus", corpus, "--seed", 5],
        "rank": ["--results", results],
        "evaluate": ["--data", csv, "--out", root / "eval.txt", "--runs", 2, "--folds", 2],
        "compare": [results / "mean.txt", results / "max.txt"],
    }
    return root, {command: pathvec_fresh(command, *argv) for command, argv in runs.items()}


@pytest.mark.parametrize("command", ["obfuscate", "extract", "train", "embed", "xobf", "rank"])
def test_a_command_without_a_classifier_or_test_does_not_load_scipy(fresh_runs, command):
    _, runs = fresh_runs
    _, modules = runs[command]
    assert "pathvec.cli" in modules  # importtime saw the whole import graph
    assert not modules & SCIPY


def test_evaluate_loads_no_scipy_and_matches_an_in_process_run(fresh_runs, tmp_path):
    root, runs = fresh_runs
    _, modules = runs["evaluate"]
    assert "pathvec.evaluate" in modules
    assert not {m for m in modules if m == "scipy" or m.startswith("scipy.")}
    record = tmp_path / "eval.txt"
    assert main(["evaluate", "--data", str(root / "mean.csv"), "--out", str(record),
                 "--runs", "2", "--folds", "2"]) == 0
    assert (root / "eval.txt").read_bytes() == record.read_bytes()


def test_compare_loads_scipy_special_and_gives_scipys_p_value(fresh_runs):
    _, runs = fresh_runs
    stdout, modules = runs["compare"]
    assert "scipy.special" in modules
    result = json.loads(stdout)
    diff = np.array([0.5, 0.6, 0.7, 0.6]) - np.array([0.4, 0.6, 0.5, 0.5])
    t = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
    assert result["t"] == t and result["df"] == 3
    assert result["p_value"] == float(2.0 * scipy_stdtr(3, -abs(t)))


def test_fits_and_tests_call_the_module_level_scipy_names(monkeypatch):
    calls = []
    real = evaluate.stdtr

    def recording(*args, **kwargs):
        calls.append("stdtr")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "stdtr", recording)
    train_linear(np.array([[0.0, 1.0], [1.0, 0.0], [0.2, 0.9], [0.9, 0.1]]), list("abab"))
    paired_ttest([0.5, 0.6, 0.7], [0.4, 0.6, 0.5])
    assert calls == ["stdtr"]  # the fit calls no scipy name
