"""Selection and column-wise aggregation of method embeddings into
file-level vectors, plus labeled dataset assembly from parsed units: a
dataset is one float64 matrix, a row per file (or pair of files), and
the label of each row.

Aggregation functions run per column over the selected method vectors and
their outputs are concatenated in canonical order (min, max, sum, mean,
median, stddev). Standard deviation is population std; the median of an
even count is the mean of the two middle values.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .java import SourceUnit
from .model import TrainedModel
from .pathctx import extract_unit_samples
from .util import atomic_open, derive_seed

logger = logging.getLogger(__name__)

CANONICAL_FUNCTIONS = ("min", "max", "sum", "mean", "median", "stddev")
_SHORT_NAMES = {
    "min": "min",
    "max": "max",
    "sum": "sum",
    "mean": "mean",
    "median": "med",
    "stddev": "std",
}
_COLUMN_FN = {
    "min": lambda m: m.min(axis=0),
    "max": lambda m: m.max(axis=0),
    "sum": lambda m: m.sum(axis=0),
    "mean": lambda m: m.mean(axis=0),
    "median": lambda m: np.median(m, axis=0),
    "stddev": lambda m: m.std(axis=0),
}
SELECTION_MODES = ("all", "topk", "randomk")


class NoMethods(Exception):
    """File yields zero embeddable methods; callers skip it with a warning."""


class EmptyClass(Exception):
    """A label directory, or a whole pair manifest, produced no dataset rows."""


@dataclass(frozen=True)
class AggregationSpec:
    functions: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("at least one aggregation function required")
        unknown = set(self.functions) - set(CANONICAL_FUNCTIONS)
        if unknown:
            raise ValueError(f"unknown aggregation functions: {sorted(unknown)}")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("duplicate aggregation functions")
        object.__setattr__(
            self,
            "functions",
            tuple(f for f in CANONICAL_FUNCTIONS if f in self.functions),
        )

    @property
    def name(self) -> str:
        parts = [_SHORT_NAMES[f] for f in self.functions]
        return parts[0] + "".join(p[0].upper() + p[1:] for p in parts[1:])


def parse_aggregation_name(name: str) -> AggregationSpec:
    """Inverse of AggregationSpec.name, tolerant of long or reordered parts
    ("meanMin", "minMaxMeanMedianStddevSum", ...)."""
    by_prefix = {}
    for full, short in _SHORT_NAMES.items():
        by_prefix[short] = full
        by_prefix[full] = full
    found = []
    rest = name
    while rest:
        lowered = rest[0].lower() + rest[1:]
        for cand in sorted(by_prefix, key=len, reverse=True):
            if lowered.startswith(cand):
                found.append(by_prefix[cand])
                rest = rest[len(cand) :]
                break
        else:
            raise ValueError(f"cannot parse aggregation name {name!r}")
    return AggregationSpec(tuple(found))


def standard_agg_suite() -> list[AggregationSpec]:
    """The 23 specs: 6 singletons, 15 pairs, min/mean/max, and all six."""
    suite = [AggregationSpec((f,)) for f in CANONICAL_FUNCTIONS]
    suite.extend(
        AggregationSpec(pair) for pair in itertools.combinations(CANONICAL_FUNCTIONS, 2)
    )
    suite.append(AggregationSpec(("min", "mean", "max")))
    suite.append(AggregationSpec(CANONICAL_FUNCTIONS))
    return suite


def suite_name_order() -> list[str]:
    return [spec.name for spec in standard_agg_suite()]


def union_spec(specs: Sequence[AggregationSpec]) -> AggregationSpec:
    """The functions any of `specs` uses, in canonical order."""
    return AggregationSpec(tuple({f for spec in specs for f in spec.functions}))


@dataclass(frozen=True)
class SelectionSpec:
    mode: str = "all"
    k: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SELECTION_MODES:
            raise ValueError(f"mode must be one of {SELECTION_MODES}")
        if self.mode != "all" and self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class LabeledDataset:
    X: np.ndarray  # (rows, features), float64
    y: list[str]  # the label of each row
    # Aggregation functions whose equal-width column blocks make up each
    # row, in canonical order; empty when the layout is unknown (read back
    # from a CSV or built by hand).
    functions: tuple[str, ...] = ()

    @property
    def labels(self) -> list[str]:
        """The distinct labels, in order of first appearance."""
        return list(dict.fromkeys(self.y))


def select_methods(
    vectors: list[tuple], spec: SelectionSpec, salt: str = ""
) -> list[np.ndarray]:
    """Pick method vectors from (vector, line count, ...) tuples: all of
    them, the K longest (earlier declaration wins ties) or a seeded uniform
    K without replacement."""
    if not vectors:
        raise ValueError("no vectors to select from")
    if spec.mode == "all" or spec.k >= len(vectors):
        return [v for v, *_ in vectors]
    if spec.mode == "topk":
        ranked = sorted(range(len(vectors)), key=lambda i: (-vectors[i][1], i))
        keep = sorted(ranked[: spec.k])
    else:
        rng = np.random.default_rng(derive_seed(spec.seed, "select", salt))
        keep = sorted(rng.choice(len(vectors), size=spec.k, replace=False))
    return [vectors[i][0] for i in keep]


def aggregate_vectors(vectors: list[np.ndarray], spec: AggregationSpec) -> np.ndarray:
    if not vectors:
        raise ValueError("no vectors to aggregate")
    matrix = np.stack(vectors)
    return np.concatenate([_COLUMN_FN[f](matrix) for f in spec.functions])


def method_vectors(unit: SourceUnit, model: TrainedModel) -> list[tuple[np.ndarray, int, str]]:
    """(embedding, line count, name) per embeddable method, declaration order."""
    samples = extract_unit_samples(unit, model.extraction)
    if not samples:
        raise NoMethods(f"{unit.path}: no embeddable methods")
    return [(v, s.line_count, s.target_name) for v, s in zip(model.embed(samples), samples)]


@dataclass
class BuildStats:
    files: int = 0
    skipped_parse: int = 0
    skipped_empty: int = 0
    rows_per_label: dict[str, int] = field(default_factory=dict)


def _cap_indices(n: int, cap: int, seed: int, label: str) -> list[int]:
    if n <= cap:
        return list(range(n))
    rng = np.random.default_rng(derive_seed(seed, "cap", label))
    return sorted(rng.choice(n, size=cap, replace=False))


def build_dataset_suite(
    items: Iterable[tuple[str, Sequence[SourceUnit | None]]],
    model: TrainedModel,
    selection: SelectionSpec,
    aggregations: Sequence[AggregationSpec],
    per_class_cap: int = 2000,
    seed: int = 0,
    methods: dict[str, list[tuple[str, np.ndarray]]] | None = None,
) -> tuple[LabeledDataset, BuildStats]:
    """One dataset row per (label, units) item.

    One unit gives the file's row; two units (a, b) give the difference
    a - b of their rows. A row holds the blocks of every function the
    aggregations use (their union, in canonical order), aggregated once
    per file; a spec's dataset is a column selection of it (see
    write_dataset_csv). An item with a unit of None (unreadable or
    unparseable) or with a file that has no embeddable method is skipped
    and counted.

    Labels keep the order in which they first yield a row; a label that
    yields none is left out, and callers decide whether that is an
    error. Rows of a label are sorted by source path (the item's paths,
    joined by "|") and downsampled to at most per_class_cap (>= 1) with
    a seed, so the result does not depend on item order within a label.

    A unit's path names its file: a file is embedded once, at its first
    item, and later items that name it reuse its row (selection is
    salted by the path, so the row would come out the same).

    If `methods` is given, it maps the path of each file embedded to its
    (method name, vector) list, before selection and the per-class cap,
    in the order the files were first embedded.
    """
    if per_class_cap < 1:
        raise ValueError(f"per_class_cap must be >= 1, got {per_class_cap}")
    union = union_spec(aggregations)
    stats = BuildStats()
    per_label: dict[str, list[tuple[str, np.ndarray]]] = {}  # (source, row)
    file_rows: dict[str, np.ndarray | NoMethods] = {}

    def file_row(unit: SourceUnit) -> np.ndarray:
        if unit.path not in file_rows:
            try:
                vectors = method_vectors(unit, model)
            except NoMethods as exc:
                file_rows[unit.path] = exc
            else:
                if methods is not None:
                    methods[unit.path] = [(name, v) for v, _, name in vectors]
                file_rows[unit.path] = aggregate_vectors(
                    select_methods(vectors, selection, salt=unit.path), union
                )
        row = file_rows[unit.path]
        if isinstance(row, NoMethods):
            raise row
        return row

    for label, units in items:
        stats.files += 1
        if any(unit is None for unit in units):
            stats.skipped_parse += 1
            continue
        try:
            blocks = [file_row(unit) for unit in units]
        except NoMethods as exc:
            logger.warning("skipping %s", exc)
            stats.skipped_empty += 1
            continue
        values = blocks[0] if len(blocks) == 1 else blocks[0] - blocks[1]
        source = "|".join(unit.path for unit in units)
        per_label.setdefault(label, []).append((source, values))

    rows: list[np.ndarray] = []
    y: list[str] = []
    for label, label_rows in per_label.items():
        label_rows.sort(key=lambda r: r[0])
        keep = _cap_indices(len(label_rows), per_class_cap, seed, label)
        stats.rows_per_label[label] = len(keep)
        rows.extend(label_rows[i][1] for i in keep)
        y.extend([label] * len(keep))
    width = len(union.functions) * model.config.d_code
    X = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    return LabeledDataset(X, y, union.functions), stats


# --- dataset CSV --------------------------------------------------------------


def write_dataset_csv(
    dataset: LabeledDataset,
    *paths: str | Path,
    specs: Sequence[AggregationSpec] | None = None,
) -> None:
    """RFC-4180 CSV with header f0..f{w-1},label.

    Without `specs`, the whole dataset goes to the one path. With `specs`,
    paths[i] gets the columns of specs[i]: the dataset's blocks of the
    functions that spec names. Each (row, function) block is formatted
    once however many files use it, and the files are written row by row
    together, so only one row's text is held at a time. Floats are written
    as repr(float), labels quoted as csv.writer quotes them.
    """
    n_blocks = len(dataset.functions) or 1
    width = dataset.X.shape[1] // n_blocks
    if specs is None:
        picks = [list(range(n_blocks))]
    else:
        picks = [[dataset.functions.index(f) for f in spec.functions] for spec in specs]
    if len(picks) != len(paths):
        raise ValueError(f"{len(paths)} paths for {len(picks)} column selections")
    with ExitStack() as stack:
        files = [
            stack.enter_context(atomic_open(path, "w", encoding="utf-8", newline=""))
            for path in paths
        ]
        for fh, pick in zip(files, picks):
            fh.write(",".join([f"f{i}" for i in range(len(pick) * width)] + ["label"]) + "\n")
        for values, label in zip(dataset.X, dataset.y):
            texts = [_csv_floats(values[k * width : (k + 1) * width]) for k in range(n_blocks)]
            label = _csv_field(label)
            for fh, pick in zip(files, picks):
                fh.write(",".join([texts[k] for k in pick] + [label]) + "\n")


def write_embedding_csv(path: str | Path, rows: list[tuple[str, str, np.ndarray]]) -> None:
    """Per-method embedding dump: sourcePath,methodName,v0..v{d-1}."""
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        if rows:
            width = len(rows[0][2])
            fh.write(",".join(["sourcePath", "methodName", *(f"v{i}" for i in range(width))]) + "\n")
        for source_path, name, vec in rows:
            fh.write(f"{_csv_field(source_path)},{_csv_field(name)},{_csv_floats(vec)}\n")


def _csv_floats(values: np.ndarray) -> str:
    """The values as CSV fields, each written as repr(float)."""
    return ",".join(map(repr, values.tolist()))


@lru_cache(maxsize=4096)
def _csv_field(text: str) -> str:
    """`text` as a field of a row of two or more, quoted as csv.writer
    quotes it. Rows repeat their labels, paths and names, so each is
    quoted once."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["", text])
    return buf.getvalue()[1:-1]


def read_dataset_csv(path: str | Path) -> LabeledDataset:
    """The dataset of a CSV that write_dataset_csv wrote. A CSV that is not
    one, a ragged row, or a field that is not a finite number raises
    ValueError naming the file and the row."""
    rows: list[np.ndarray] = []
    y: list[str] = []
    row = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-1] != "label":
                raise ValueError("not a pathvec dataset CSV")
            width = len(header) - 1
            for row, record in enumerate(reader, start=1):
                if len(record) != width + 1:
                    raise ValueError(f"ragged row of {len(record)} fields")
                rows.append(np.array([float(x) for x in record[:width]]))
                y.append(record[width])
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: row {row}: {exc}" if row else f"{path}: {exc}") from None
    X = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0] + 1}: a field that is not finite")
    return LabeledDataset(X, y)
