"""The benchmark's workloads.

Each workload is a closed loop: one caller runs the pipeline stages in
order through ``pathvec.cli.main``, in this process, and waits on each.
A pass is one run of the workload's stages; the benchmark repeats
passes for the measured time and reports medians.

- ``synth-train``: obfuscate (random) -> extract -> train on the
  synthetic two-class corpus at 400 files per class. The model step
  dominates; the Java frontend dominates the first two stages.
- ``synth-embed-eval``: embed (mean) -> embed (23-spec suite) ->
  evaluate on the narrowest and the widest dataset, with a checkpoint
  trained during set-up. Forward passes, the CSV writer and L-BFGS do
  most of the work; nothing is trained in a pass.
- ``long-methods``: extract with one worker per core over methods of
  about 250 leaves, so the quadratic leaf-pair loop dominates, plus
  three probe corpora that each hold one file the pipeline is expected
  to skip with a counted reason. It never touches the model, the
  aggregation or the evaluation layers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import longgen

ROOT = Path(__file__).resolve().parent.parent


def _load_synth():
    spec = importlib.util.spec_from_file_location("pathvec_synth", ROOT / "tests" / "synth.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fingerprint_tree(*roots: Path) -> str:
    """sha256 over the relative paths and bytes of every file under roots."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
            h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def count_java(root: Path) -> int:
    return sum(1 for _ in Path(root).rglob("*.java"))


@dataclass
class Call:
    """One ``pathvec`` command run in-process."""

    stage: str
    files: int
    wall_s: float
    cpu_s: float
    ok: bool
    stdout: str
    error: str = ""

    def summary(self) -> dict:
        """The JSON object the command prints as its last stdout line."""
        return json.loads(self.stdout.strip().splitlines()[-1])


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def invoke(stage: str, argv: list[str], files: int, tracer=None) -> Call:
    """Run ``pathvec <argv>`` through ``cli.main`` with its output captured.

    A call that returns non-zero or raises counts as failed; the
    exception is recorded, not propagated.
    """
    from pathvec import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    cpu0 = _cpu_s()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.span("cli", f"cli.{stage}", cli.main, argv)
        ok = rc == 0
        if not ok:
            error = err.getvalue().strip().splitlines()[-1] if err.getvalue().strip() else f"exit {rc}"
    except SystemExit as exc:
        ok, error = False, f"exit {exc.code}"
    except Exception as exc:  # a crash in one call must not end the run
        ok = False
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()[:300]
    wall = perf_counter() - start
    return Call(stage, files, wall, _cpu_s() - cpu0, ok, out.getvalue(), error)


@dataclass
class PassResult:
    wall_s: float
    calls: list[Call]
    probes: list[tuple[str, Call]] = field(default_factory=list)
    quality: float = 0.0
    stage_rates: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.info: dict = {}

    def setup(self, into: Path) -> None:
        """Generate the inputs from the seed into `into`."""
        raise NotImplementedError

    def run_pass(self, out: Path, tracer=None) -> PassResult:
        """Run the stages once, writing into `out`; fill rates, quality and
        details, with the sha256 of every output under details["sha256"]."""
        raise NotImplementedError

    def check(self, out: Path, result: PassResult) -> list[str]:
        """Problems found in the outputs of a pass that succeeded."""
        raise NotImplementedError

    def _timed_pass(self, steps, tracer, stop_on_failure: bool = True) -> tuple[float, list[Call]]:
        """Run the (stage, argv, files) steps in order; return pass wall and calls."""
        calls: list[Call] = []

        def body():
            for stage, argv, files in steps:
                calls.append(invoke(stage, argv, files, tracer))
                if stop_on_failure and not calls[-1].ok:
                    break

        start = perf_counter()
        if tracer is None:
            body()
        else:
            tracer.span("cli", "cli.pass", body)
        return perf_counter() - start, calls


def _failed_problems(calls: list[Call]) -> list[str]:
    return [f"{c.stage} failed: {c.error}" for c in calls if not c.ok]


def _check_dump(dump: Path) -> list[str]:
    from pathvec.config import manifest_path_for, read_manifest
    from pathvec.pathctx import read_context_dump

    expected = read_manifest(manifest_path_for(dump))["counts"]["methods_dumped"]
    got = len(read_context_dump(dump))
    return [] if got == expected else [f"{dump.name}: {got} samples, manifest says {expected}"]


def _check_checkpoint(call: Call, ckpt: Path) -> list[str]:
    from pathvec.model import load_checkpoint

    summary = call.summary()
    vocab = load_checkpoint(ckpt).vocab
    got = {"tokens": vocab.n_tokens, "paths": vocab.n_paths, "targets": vocab.n_targets}
    want = {k: summary[k] for k in got}
    return [] if got == want else [f"{ckpt.name}: vocab sizes {got}, train summary {want}"]


def _train_history(call: Call) -> list[dict]:
    epochs = []
    for line in call.stdout.splitlines():
        if line.startswith("epoch "):
            fields = dict(part.split("=", 1) for part in line.split(": ", 1)[1].split())
            epochs.append({k: float(v) for k, v in fields.items()})
    return epochs


class SynthTrain(Workload):
    name = "synth-train"
    files_per_class = 400
    d_emb = 64
    epochs = 2

    def setup(self, into: Path) -> None:
        synth = _load_synth()
        synth.generate_corpus(into / "corpus", self.files_per_class, seed=self.seed)
        self.corpus = into / "corpus"
        self.n_files = count_java(self.corpus)
        self.info = {"files": self.n_files, "inputs_sha256": fingerprint_tree(self.corpus)}

    def run_pass(self, out: Path, tracer=None) -> PassResult:
        seed = str(self.seed)
        obf, dump, ckpt = out / "obf", out / "contexts.txt", out / "model.ckpt"
        steps = [
            ("obfuscate", ["obfuscate", "--in", str(self.corpus), "--out", str(obf),
                           "--mode", "random", "--seed", seed], self.n_files),
            ("extract", ["extract", "--corpus", str(obf), "--out", str(dump),
                         "--seed", seed, "--jobs", "1"], self.n_files),
            # patience >= epochs: early stopping cannot change the work done
            ("train", ["train", "--contexts", str(dump), "--out", str(ckpt),
                       "--d-emb", str(self.d_emb), "--epochs", str(self.epochs),
                       "--patience", str(self.epochs), "--seed", seed], 0),
        ]
        wall, calls = self._timed_pass(steps, tracer)
        result = PassResult(wall, calls, problems=_failed_problems(calls))
        if result.problems:
            return result
        obf_call, ext_call, train_call = calls
        history = _train_history(train_call)
        samples = train_call.summary()["samples"]
        result.stage_rates = {
            "obfuscate_files_per_s": _rate(self.n_files, obf_call.wall_s),
            "extract_files_per_s": _rate(self.n_files, ext_call.wall_s),
            "train_samples_per_s": _rate(samples * len(history), train_call.wall_s),
        }
        result.quality = max(e["val_f1"] for e in history)
        result.details = {
            "epochs_run": len(history),
            "val_f1": result.quality,
            "extract": ext_call.summary(),
            "obfuscate": {k: v for k, v in obf_call.summary().items() if k != "errors"},
            "sha256": {"dump": sha256_file(dump), "checkpoint": sha256_file(ckpt)},
        }
        return result

    def check(self, out: Path, result: PassResult) -> list[str]:
        train_call = result.calls[2]
        problems = _check_dump(out / "contexts.txt")
        problems += _check_checkpoint(train_call, out / "model.ckpt")
        if result.details["epochs_run"] != self.epochs:
            problems.append(f"train ran {result.details['epochs_run']} of {self.epochs} epochs")
        return problems


WIDE_AGG = "minMaxSumMeanMedStd"


class SynthEmbedEval(Workload):
    name = "synth-embed-eval"
    train_files_per_class = 100
    files_per_class = 200
    typo_fraction = 0.5
    d_emb = 64
    epochs = 2

    def setup(self, into: Path) -> None:
        synth = _load_synth()
        seed = str(self.seed)
        train_corpus, dump, ckpt = into / "train", into / "contexts.txt", into / "model.ckpt"
        synth.generate_corpus(train_corpus, self.train_files_per_class, seed=self.seed + 1)
        synth.generate_corpus(into / "eval", self.files_per_class, seed=self.seed,
                              typo_fraction=self.typo_fraction)
        for stage, argv in (
            ("extract", ["extract", "--corpus", str(train_corpus), "--out", str(dump), "--seed", seed]),
            ("train", ["train", "--contexts", str(dump), "--out", str(ckpt), "--d-emb", str(self.d_emb),
                       "--epochs", str(self.epochs), "--patience", str(self.epochs), "--seed", seed]),
        ):
            call = invoke(stage, argv, 0)
            if not call.ok:
                raise RuntimeError(f"set-up {stage} failed: {call.error}")
        self.corpus, self.ckpt = into / "eval", ckpt
        self.n_files = count_java(self.corpus)
        self.info = {
            "files": self.n_files,
            "inputs_sha256": fingerprint_tree(train_corpus, self.corpus),
            "checkpoint_sha256": sha256_file(ckpt),
        }

    def run_pass(self, out: Path, tracer=None) -> PassResult:
        seed = str(self.seed)
        mean_csv, suite_csv = out / "mean.csv", out / "suite.csv"
        wide_csv = out / f"suite.{WIDE_AGG}.csv"
        mean_rep, wide_rep = out / "mean.txt", out / "wide.txt"
        steps = [
            ("embed", ["embed", "--corpus", str(self.corpus), "--model", str(self.ckpt),
                       "--out", str(mean_csv), "--agg", "mean", "--seed", seed], self.n_files),
            ("embed_suite", ["embed", "--corpus", str(self.corpus), "--model", str(self.ckpt),
                             "--out", str(suite_csv), "--suite", "--seed", seed], self.n_files),
            ("evaluate", ["evaluate", "--data", str(mean_csv), "--out", str(mean_rep),
                          "--seed", seed], 0),
            ("evaluate", ["evaluate", "--data", str(wide_csv), "--out", str(wide_rep),
                          "--seed", seed], 0),
        ]
        wall, calls = self._timed_pass(steps, tracer)
        result = PassResult(wall, calls, problems=_failed_problems(calls))
        if result.problems:
            return result
        from pathvec.evaluate import read_report

        embed_call, suite_call, *eval_calls = calls
        kappas = {}
        folds = 0
        for key, path in (("kappa_mean", mean_rep), ("kappa_all", wide_rep)):
            report = read_report(path)
            kappas[key] = report.mean_kappa
            folds += report.runs * report.folds
        result.quality = min(kappas.values())
        result.stage_rates = {
            "embed_files_per_s": _rate(self.n_files, embed_call.wall_s),
            "embed_suite_files_per_s": _rate(self.n_files, suite_call.wall_s),
            "evaluate_folds_per_s": _rate(folds, sum(c.wall_s for c in eval_calls)),
        }
        outputs = [mean_csv, *(p for p, _ in self._suite_csvs(out)), mean_rep, wide_rep]
        result.details = dict(kappas, sha256={p.name: sha256_file(p) for p in outputs})
        return result

    def _suite_csvs(self, out: Path) -> list[tuple[Path, int]]:
        from pathvec.aggregate import standard_agg_suite

        return [(out / f"suite.{spec.name}.csv", len(spec.functions)) for spec in standard_agg_suite()]

    def check(self, out: Path, result: PassResult) -> list[str]:
        from pathvec.evaluate import read_report
        from pathvec.model import load_checkpoint

        embed_call, suite_call, *_ = result.calls
        d_code = load_checkpoint(self.ckpt).config.d_code
        problems = []
        for path, n_functions, call in [(out / "mean.csv", 1, embed_call)] + [
            (path, n, suite_call) for path, n in self._suite_csvs(out)
        ]:
            rows = sum(call.summary()["counts"]["rows_per_label"].values())
            problems += _check_csv(path, rows, n_functions * d_code)
        for path in (out / "mean.txt", out / "wide.txt"):
            report = read_report(path)
            if report.per_fold_kappa.shape != (report.runs, report.folds):
                problems.append(f"{path.name}: kappa array {report.per_fold_kappa.shape}")
        return problems


def _check_csv(path: Path, rows: int, width: int) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    problems = []
    if len(records) - 1 != rows:
        problems.append(f"{path.name}: {len(records) - 1} rows, expected {rows}")
    if any(len(r) != width + 1 for r in records):
        problems.append(f"{path.name}: a row is not {width} features + label wide")
    return problems


class LongMethods(Workload):
    name = "long-methods"
    files = 60
    methods_per_file = 1

    def setup(self, into: Path) -> None:
        longgen.generate_long_corpus(into / "corpus", self.files, self.methods_per_file, self.seed)
        self.corpus = into / "corpus"
        self.probes = {name: (corpus, count_java(corpus))
                       for name, corpus in longgen.generate_probe_corpora(into / "probes").items()}
        self.n_files = count_java(self.corpus)
        self.jobs = nproc()
        self.info = {
            "files": self.n_files,
            "jobs": self.jobs,
            "inputs_sha256": fingerprint_tree(self.corpus, into / "probes"),
        }

    def run_pass(self, out: Path, tracer=None) -> PassResult:
        seed = str(self.seed)
        dump = out / "long.txt"
        steps = [("extract", ["extract", "--corpus", str(self.corpus), "--out", str(dump),
                              "--seed", seed, "--jobs", str(self.jobs)], self.n_files)]
        steps += [
            (f"probe_{name}", ["extract", "--corpus", str(corpus), "--out", str(out / f"probe_{name}.txt"),
                               "--seed", seed], files)
            for name, (corpus, files) in self.probes.items()
        ]
        # a probe that fails must not stop the pass
        wall, calls = self._timed_pass(steps, tracer, stop_on_failure=False)
        main, probe_calls = calls[0], calls[1:]
        result = PassResult(wall, [main], probes=list(zip(self.probes, probe_calls)),
                            problems=_failed_problems([main]))
        if result.problems:
            return result
        summary = main.summary()
        result.quality = summary["methods_dumped"] / summary["methods"]
        result.stage_rates = {"extract_files_per_s": _rate(self.n_files, main.wall_s)}
        result.details = {
            "extract": summary,
            "probes": {name: ("ok" if c.ok else c.error) for name, c in result.probes},
            "sha256": {"dump": sha256_file(dump)},
        }
        return result

    def check(self, out: Path, result: PassResult) -> list[str]:
        return _check_dump(out / "long.txt")


WORKLOADS = {w.name: w for w in (SynthTrain, SynthEmbedEval, LongMethods)}
