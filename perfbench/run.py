"""pathvec pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth-train --seed 1 --seconds 35 --trace 0

Runs one workload (see ``workloads.py``) in this process: set-up at
least three times, one warm-up pass, then measured passes of the
workload's stages until ``--seconds`` have been spent. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
untraced and traced passes alternate and the metrics are per layer.
Earlier stdout lines record the environment, the input fingerprints
and per-pass details. Spans of a traced run are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPEATS = 50


def _environment() -> dict:
    import numpy
    import scipy
    from workloads import nproc

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 only prints its config
        blas = {}
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _emit(tag: str, payload) -> None:
    print(json.dumps({tag: payload}, sort_keys=True), flush=True)


def _setup(workload, work: Path) -> list[float]:
    """Set-up times; the last set-up's directory is kept.

    Set-up runs at least SETUP_REPEATS times, and more while they add up
    to less than SETUP_MIN_S, so a short set-up is timed over many repeats.
    """
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        into = work / f"setup{len(times)}"
        start = perf_counter()
        workload.setup(into)
        times.append(perf_counter() - start)
        if len(times) > 1:
            shutil.rmtree(work / f"setup{len(times) - 2}")
    return times


def _passes(workload, work: Path, seconds: float, tracer=None) -> tuple[list, list, list]:
    """Run one warm-up pass, then measured passes while the next one should
    end by `seconds`, give or take half a pass.

    With a tracer, untraced and traced passes alternate, untraced first,
    and at least one of each runs. Outputs are checked whenever their
    sha256 differs from the last checked pass; identical outputs share
    that pass's findings. Returns the (warm-up, untraced, traced) results.
    """
    warmup, untraced, traced = [], [], []
    checked: tuple = (None, [])  # sha256 of the last checked outputs, their problems
    start = perf_counter()
    while True:
        use_trace = bool(warmup) and tracer is not None and len(traced) < len(untraced)
        out = work / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if use_trace:
            tracer.run_id = len(traced) + 1
            tracer.install()
            try:
                result = workload.run_pass(out, tracer)
            finally:
                tracer.uninstall()
            traced.append(result)
        else:
            result = workload.run_pass(out)
            (untraced if warmup else warmup).append(result)
        if not result.problems:
            if result.details["sha256"] != checked[0]:
                checked = (result.details["sha256"], workload.check(out, result))
            result.problems = list(checked[1])
        if not untraced or (tracer is not None and not traced):
            continue
        elapsed = perf_counter() - start
        if elapsed + _median([r.wall_s for r in untraced + traced]) / 2 > seconds:
            return warmup, untraced, traced


def _accounting(results: list) -> tuple[int, int, int, int]:
    """(calls, failed calls, files attempted, files in failed calls)."""
    calls = [c for r in results for c in r.calls]
    probes = [c for r in results for _, c in r.probes]
    files = sum(c.files for c in calls + probes)
    failed_files = sum(c.files for c in calls + probes if not c.ok)
    return len(calls), sum(1 for c in calls if not c.ok), files, failed_files


def _end_to_end(results: list, setup_s: float) -> dict:
    _, _, files, failed_files = _accounting(results)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median([r.wall_s for r in results]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "handled_share": (1.0 - failed_files / files if files else 0.0, "share"),
        "quality": (_median([r.quality for r in results]), "score"),
    }


STAGE_METRICS = (
    "obfuscate_files_per_s", "extract_files_per_s", "train_samples_per_s",
    "embed_files_per_s", "embed_suite_files_per_s", "evaluate_folds_per_s",
)


def _per_layer(untraced: list, traced: list, tracer) -> dict:
    from tracer import layer_metrics

    m = layer_metrics(tracer, len(traced))
    m["trace.overhead_s"] = _median([r.wall_s for r in traced]) - _median([r.wall_s for r in untraced])
    calls = [c for r in untraced for c in r.calls]
    wall = sum(c.wall_s for c in calls)
    m["cli.cpu_per_wall"] = sum(c.cpu_s for c in calls) / wall if wall else 0.0
    _, _, files, failed_files = _accounting(untraced)
    m["cli.failed_share"] = failed_files / files if files else 0.0
    for name in STAGE_METRICS:
        m[f"stage.{name}"] = _median([r.stage_rates[name] for r in untraced if name in r.stage_rates])
    for key in ("val_f1", "kappa_mean", "kappa_all"):
        m[f"quality.{key}"] = _median([r.details[key] for r in untraced if key in r.details])
    from longgen import PROBES

    for name in PROBES:
        failed = [c.files for r in untraced for probe, c in r.probes if probe == name and not c.ok]
        m[f"probe.{name}.failed_files"] = sum(failed) / len(untraced)
    return {name: (value, _unit(name)) for name, value in m.items()}


def _unit(name: str) -> str:
    if name.startswith("quality."):
        return "score"
    for suffix, unit in (("_per_s", "1/s"), ("_per_wall", "ratio"), ("_ms", "ms"), ("_s", "s"),
                         ("bytes", "B"), ("_share", "share"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathvec").is_dir() or not (ROOT / "tests" / "synth.py").is_file():
        print(f"perfbench: no pathvec source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Program warnings (skipped files) are counted from the command summaries.
    logging.basicConfig(handlers=[logging.NullHandler()], level=logging.WARNING)

    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _emit("env", _environment())
        workload = WORKLOADS[args.workload](args.seed)
        setup_times = _setup(workload, work)
        _emit("inputs", dict(workload.info, setup_s=setup_times))
        tracer = Tracer() if args.trace else None
        extra_problems: list[str] = []
        warmup, untraced, traced = _passes(workload, work, args.seconds, tracer)
        results = warmup + untraced + traced
        _emit("passes", [
            {"kind": kind, "wall_s": r.wall_s, "quality": r.quality,
             "stages": [[c.stage, c.wall_s] for c in r.calls],
             "rates": r.stage_rates, "details": r.details, "problems": r.problems}
            for kind, group in (("warmup", warmup), ("untraced", untraced), ("traced", traced))
            for r in group
        ])
        if tracer is not None:
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
            if tracer.missing:
                _emit("missing", tracer.missing)
            metrics = _per_layer(untraced, traced, tracer)
            covered = metrics["cli.other_s"][0] + sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
            if abs(metrics["trace.wall_s"][0] - covered) > 1e-6:
                extra_problems.append(f"layer self times cover {covered} s of {metrics['trace.wall_s'][0]} s")
        else:
            metrics = _end_to_end(untraced, _median(setup_times))
        calls, failed_calls, _, _ = _accounting(results)
        problems = [p for r in results for p in r.problems] + extra_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not problems and calls > 0,
        "attempted": calls,
        "failed": failed_calls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
