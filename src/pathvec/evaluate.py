"""Embedding quality measurement.

A one-vs-rest linear classifier (L2-regularized squared hinge loss,
C = 1 by default, fit by finite Newton steps in numpy) is scored with
Cohen's kappa under repeated stratified k-fold cross-validation; systems
are compared with a paired two-tailed t-test over the per-fold kappas at
the 0.05 level; aggregation functions are rank-scored 5..1 per dataset,
names with equal kappa sharing the points of the places they hold.
Subtoken F1 scores method-name predictions.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .pathctx import split_target
from .util import atomic_open, derive_seed


# scipy.special is imported on first call, not with this module: only compare
# needs it. stdtr stays a module-level name, looked up when a test runs, so a
# caller can replace it.
def stdtr(df, t):
    """scipy.special.stdtr: Student's t distribution function."""
    from scipy.special import stdtr

    return stdtr(df, t)


class NotARecord(ValueError):
    """A file without an evaluation record's format line. rank skips it."""


@dataclass(frozen=True)
class ClassifierConfig:
    c: float = 1.0
    tol: float = 1e-3
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError("C must be positive and finite")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class CvPlan:
    runs: int = 10
    folds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass
class EvalReport:
    per_fold_kappa: np.ndarray  # (runs, folds)
    per_fold_accuracy: np.ndarray
    mean_kappa: float
    mean_accuracy: float
    confusion_total: np.ndarray
    labels: list[str]
    partition_fingerprint: str
    runs: int
    folds: int
    seed: int
    dataset: str = ""
    aggregation: str = ""
    # classifier convergence over every fit; not part of the record format
    max_fit_iterations: int = 0
    unconverged_fits: int = 0


@dataclass
class TTestResult:
    p_value: float
    mean_diff: float
    significant: bool
    t_stat: float
    df: int


@dataclass
class PredictionMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class LinearModel:
    classes: list[str]
    weights: np.ndarray  # (n_classes, n_features)
    biases: np.ndarray  # (n_classes,)
    max_fit_iterations: int = 0  # Newton steps, over the fits that made it
    unconverged_fits: int = 0  # fits stopped by the iteration limit

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.biases

    def predict(self, X: np.ndarray) -> list[str]:
        scores = self.decision_function(X)
        return [self.classes[i] for i in np.argmax(scores, axis=1)]


def _gram(X: np.ndarray) -> np.ndarray:
    """X'X, or XX' when X has more columns than rows: the smaller one, in
    whose space _fit_squared_hinge solves its Newton steps."""
    return X @ X.T if X.shape[1] > X.shape[0] else X.T @ X


def _fit_squared_hinge(
    X: np.ndarray, ybin: np.ndarray, config: ClassifierConfig, gram: np.ndarray
) -> tuple[np.ndarray, int, bool]:
    """(w, Newton steps, whether the fit stopped at config.max_iterations
    before it settled) for 0.5 |w|^2 + (C/n) sum max(0, 1 - y w.x)^2, whose
    mean-scaled data term keeps the boundary invariant under row
    duplication. `gram` is _gram(X). Each finite Newton step heads for the
    minimum over the rows A inside the margin, s (I + s X_A'X_A)^-1 X_A'y_A
    with s = 2C/n, or s X_A'(I + s X_A X_A')^-1 y_A in row space, and
    backtracks (Armijo). A full step that leaves A unchanged lands on the
    exact optimum (Keerthi & DeCoste, JMLR 2005). Where rounding keeps rows
    on the margin from settling, a fit stops once |gradient| falls to
    tol * 1e-6 of its start, or when no step lowers the objective."""
    n, s = X.shape[0], 2.0 * config.c / X.shape[0]

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        viol = np.maximum(0.0, 1.0 - ybin * (X @ w))
        return 0.5 * float(w @ w) + 0.5 * s * float(viol @ viol), viol

    w = np.zeros(X.shape[1])
    f, viol = objective(w)
    for step in range(1, config.max_iterations + 1):
        g = w - s * (X.T @ (ybin * viol))
        g_norm = float(np.linalg.norm(g))
        if step == 1:
            g_stop = config.tol * 1e-6 * g_norm
        if g_norm <= g_stop:
            return w, step - 1, False
        active = viol > 0.0
        if gram.shape[0] == X.shape[1]:  # X'X, less the rows outside the margin
            out = X[~active]
            M = s * (gram - out.T @ out)
            M.flat[:: len(M) + 1] += 1.0
            newton = np.linalg.solve(M, s * (X.T @ (ybin * active)))
        else:  # XX' over the rows inside it
            M = s * gram[active][:, active]
            M.flat[:: len(M) + 1] += 1.0
            u = np.zeros(n)
            u[active] = np.linalg.solve(M, ybin[active])
            newton = s * (X.T @ u)
        t, slope = 1.0, float(g @ (newton - w))
        while (trial := objective((1.0 - t) * w + t * newton))[0] > f + 1e-4 * t * slope:
            t *= 0.5
        if trial[0] >= f:  # the objective cannot fall further in floating point
            return w, step - 1, False
        w, (f, viol) = (1.0 - t) * w + t * newton, trial
        if t == 1.0 and np.array_equal(viol > 0.0, active):
            return w, step, False
    return w, config.max_iterations, True


def train_linear(
    X: np.ndarray,
    y: Sequence[str],
    config: ClassifierConfig = ClassifierConfig(),
    classes: list[str] | None = None,
    gram: np.ndarray | None = None,
    bias_column: bool = False,
) -> LinearModel:
    """One-vs-rest L2-regularized squared-hinge linear models, one per
    class (by default the labels of y, in order of first appearance). The
    bias is the weight of a constant feature 1, regularized like the others.
    cross_validate builds X with that column (`bias_column`) and its _gram
    once for all folds, and passes each fold its part."""
    X = np.asarray(X, dtype=float)
    if classes is None:
        classes = list(dict.fromkeys(y))
    if len(classes) < 2:
        raise ValueError("need at least two distinct labels")
    y_arr = np.asarray(list(y))
    X_fit = X if bias_column else np.hstack([X, np.ones((X.shape[0], 1))])
    gram = _gram(X_fit) if gram is None else gram

    weights = np.zeros((len(classes), X_fit.shape[1] - 1))
    biases = np.zeros(len(classes))
    max_iterations = unconverged = 0
    # With two classes and no other label in y, class 1's targets are the
    # negation of class 0's; the objective is symmetric under y -> -y,
    # w -> -w, so its fit is exactly the negated first one.
    binary = len(classes) == 2 and bool(np.isin(y_arr, classes).all())
    for i, cls in enumerate(classes[:1] if binary else classes):
        ybin = np.where(y_arr == cls, 1.0, -1.0)
        w, iterations, hit_limit = _fit_squared_hinge(X_fit, ybin, config, gram)
        weights[i] = w[:-1]
        biases[i] = w[-1]
        max_iterations = max(max_iterations, iterations)
        unconverged += hit_limit
    if binary:
        weights[1], biases[1] = -weights[0], -biases[0]
    return LinearModel(
        classes=list(classes),
        weights=weights,
        biases=biases,
        max_fit_iterations=max_iterations,
        unconverged_fits=unconverged,
    )


def stratified_fold_assignment(
    labels: Sequence[str], folds: int, seed: int, run: int
) -> np.ndarray:
    """Fold index per row; a pure function of (seed, run, labels)."""
    rng = np.random.default_rng(derive_seed(seed, "cv-run", run))
    assign = np.full(len(labels), -1, dtype=np.int64)
    arr = np.asarray(list(labels))
    for label in dict.fromkeys(labels):  # in order of first appearance
        idx = np.flatnonzero(arr == label)
        rng.shuffle(idx)
        for pos, row in enumerate(idx):
            assign[row] = pos % folds
    return assign


def kappa(confusion) -> float:
    """Cohen's kappa of a square count matrix."""
    m = np.asarray(confusion, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("confusion matrix must be square and nonempty")
    if (m < 0).any():
        raise ValueError("negative counts")
    total = int(m.sum())
    if total == 0:
        raise ValueError("confusion matrix has zero total")
    trace = int(np.trace(m))
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    chance = int(row @ col)
    if chance == total * total:  # p_e == 1
        return 1.0 if trace == total else 0.0
    p_o = trace / total
    p_e = chance / (total * total)
    return (p_o - p_e) / (1.0 - p_e)


def cross_validate(
    dataset,
    clf_config: ClassifierConfig = ClassifierConfig(),
    plan: CvPlan = CvPlan(),
) -> EvalReport:
    """Repeated stratified k-fold CV; one kappa per fold.

    Partitions depend only on (seed, run, labels), so two embeddings of
    the same corpus evaluated with the same plan share fold partitions
    and their per-fold kappas can be compared pairwise.
    """
    X, y = dataset.X, dataset.y
    label_order = dataset.labels
    counts = Counter(y)
    if len(counts) < 2:
        raise ValueError("need at least two distinct labels")
    shortest = min(counts.values())
    if shortest < plan.folds:
        raise ValueError(
            f"label with {shortest} rows cannot be split into {plan.folds} folds"
        )

    idx_of = {label: i for i, label in enumerate(label_order)}
    y_idx = np.array([idx_of[label] for label in y])
    n_labels = len(label_order)

    kappas = np.zeros((plan.runs, plan.folds))
    accuracies = np.zeros((plan.runs, plan.folds))
    confusion_total = np.zeros((n_labels, n_labels), dtype=np.int64)
    fingerprint = hashlib.sha256()
    max_iterations = unconverged = 0
    X_fit = np.hstack([X, np.ones((X.shape[0], 1))])
    gram = _gram(X_fit)  # each fold takes its part
    by_rows = gram.shape[0] != X_fit.shape[1]

    for run in range(plan.runs):
        assign = stratified_fold_assignment(y, plan.folds, plan.seed, run)
        fingerprint.update(assign.astype("<i8").tobytes())
        for fold in range(plan.folds):
            test_mask = assign == fold
            train, held_out = np.flatnonzero(~test_mask), X_fit[test_mask]
            model = train_linear(
                X_fit[train],
                [y[i] for i in train],
                clf_config,
                classes=label_order,
                gram=gram[train][:, train] if by_rows else gram - held_out.T @ held_out,
                bias_column=True,
            )
            max_iterations = max(max_iterations, model.max_fit_iterations)
            unconverged += model.unconverged_fits
            pred = model.predict(X[test_mask])
            confusion = np.zeros((n_labels, n_labels), dtype=np.int64)
            for true_i, pred_label in zip(y_idx[test_mask], pred):
                confusion[true_i, idx_of[pred_label]] += 1
            confusion_total += confusion
            kappas[run, fold] = kappa(confusion)
            accuracies[run, fold] = np.trace(confusion) / confusion.sum()

    return EvalReport(
        per_fold_kappa=kappas,
        per_fold_accuracy=accuracies,
        mean_kappa=float(kappas.mean()),
        mean_accuracy=float(accuracies.mean()),
        confusion_total=confusion_total,
        labels=label_order,
        partition_fingerprint=fingerprint.hexdigest(),
        runs=plan.runs,
        folds=plan.folds,
        seed=plan.seed,
        max_fit_iterations=max_iterations,
        unconverged_fits=unconverged,
    )


def name_prediction_f1(pairs: Sequence[tuple[str, str]]) -> PredictionMetrics:
    """Micro-averaged subtoken precision/recall/F1 over (true, predicted)."""
    tp = fp = fn = 0
    for true_name, predicted_name in pairs:
        true_counts = Counter(split_target(true_name))
        pred_counts = Counter(split_target(predicted_name))
        overlap = sum((true_counts & pred_counts).values())
        tp += overlap
        fp += sum(pred_counts.values()) - overlap
        fn += sum(true_counts.values()) - overlap
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PredictionMetrics(precision=precision, recall=recall, f1=f1)


def paired_ttest(
    kappa_a: Sequence[float],
    kappa_b: Sequence[float],
    fingerprint_a: str | None = None,
    fingerprint_b: str | None = None,
) -> TTestResult:
    """Classical paired two-tailed t-test on per-fold kappa differences."""
    if fingerprint_a is not None and fingerprint_b is not None:
        if fingerprint_a != fingerprint_b:
            raise ValueError("fold partitions differ between the two reports")
    a = np.asarray(kappa_a, dtype=float).ravel()
    b = np.asarray(kappa_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("paired series must have equal lengths")
    n = a.size
    if n < 2:
        raise ValueError("need at least two paired values")
    diff = a - b
    mean_diff = float(diff.mean())
    df = n - 1
    if np.all(diff == 0.0):
        return TTestResult(p_value=1.0, mean_diff=0.0, significant=False, t_stat=0.0, df=df)
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        # constant nonzero difference: infinitely strong evidence
        return TTestResult(
            p_value=0.0,
            mean_diff=mean_diff,
            significant=True,
            t_stat=float(np.inf) if mean_diff > 0 else float(-np.inf),
            df=df,
        )
    t_stat = mean_diff / (sd / np.sqrt(n))
    p_value = float(2.0 * stdtr(df, -abs(t_stat)))
    return TTestResult(
        p_value=p_value,
        mean_diff=mean_diff,
        significant=p_value < 0.05,
        t_stat=float(t_stat),
        df=df,
    )


def rank_aggregations(per_dataset: dict[str, dict[str, float]]) -> dict[str, Fraction]:
    """Score aggregation names by per-dataset kappa rank, summed exactly, in
    rank order: highest total first.

    In each dataset the places 1, 2, 3, 4, 5 earn 5, 4, 3, 2, 1 points and
    later places 0. Names with equal kappa share the points of the places
    they hold: two names tied at the top get 9/2 each. Equal totals are
    listed in canonical suite-name order (unknown names after, alphabetically).
    """
    from .aggregate import suite_name_order

    rank_of = {name: i for i, name in enumerate(suite_name_order())}
    totals: dict[str, Fraction] = {}
    for dataset in sorted(per_dataset):
        scores = per_dataset[dataset]
        ranked = sorted(scores.values(), reverse=True)
        for name, value in scores.items():
            first, tied = ranked.index(value), ranked.count(value)
            points = sum(max(5 - place, 0) for place in range(first, first + tied))
            totals[name] = totals.get(name, Fraction(0)) + Fraction(points, tied)
    return dict(
        sorted(totals.items(), key=lambda kv: (-kv[1], rank_of.get(kv[0], len(rank_of)), kv[0]))
    )


# --- report records ------------------------------------------------------------


def write_report(report: EvalReport, path: str | Path) -> None:
    """Line-oriented text record for one cross-validation run. A label,
    dataset name or aggregation holding a tab or a line break, which
    read_report would split, raises ValueError before anything is written."""
    texts = [("dataset name", report.dataset), ("aggregation", report.aggregation)]
    for what, text in texts + [("label", label) for label in report.labels]:
        # text + "." splits into two lines iff text holds a break of str.splitlines
        if "\t" in text or len(f"{text}.".splitlines()) > 1:
            raise ValueError(
                f"{what} {text!r} holds a tab or a line break,"
                " which an evaluation record cannot hold"
            )
    lines = [
        "format=pathvec-eval-v1",
        f"dataset={report.dataset}",
        f"aggregation={report.aggregation}",
        f"runs={report.runs}",
        f"folds={report.folds}",
        f"seed={report.seed}",
        "labels=" + "\t".join(report.labels),
        f"partition_fingerprint={report.partition_fingerprint}",
        f"mean_kappa={report.mean_kappa!r}",
        f"mean_accuracy={report.mean_accuracy!r}",
    ]
    for run in range(report.runs):
        row = " ".join(repr(float(x)) for x in report.per_fold_kappa[run])
        lines.append(f"kappa\t{run}\t{row}")
    for run in range(report.runs):
        row = " ".join(repr(float(x)) for x in report.per_fold_accuracy[run])
        lines.append(f"accuracy\t{run}\t{row}")
    for i, label in enumerate(report.labels):
        row = " ".join(str(int(x)) for x in report.confusion_total[i])
        lines.append(f"confusion\t{i}\t{row}")
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path: str | Path) -> EvalReport:
    """Read a record written by write_report. A file without the record's
    format line raises NotARecord. A record that lacks a field or a row,
    holds a line that does not parse, a kappa outside [-1, 1], an accuracy
    outside [0, 1], or a kappa or accuracy row without `folds` values
    raises ValueError naming the file, and the line where one is at fault."""
    raw = Path(path).read_bytes()
    if b"format=pathvec-eval-v1" not in raw.splitlines():
        raise NotARecord(f"{path}: not a pathvec evaluation record")
    meta: dict[str, str] = {}
    rows: dict[str, dict[int, list]] = {"kappa": {}, "accuracy": {}, "confusion": {}}
    where = str(path)
    try:
        for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
            where = f"{path}:{lineno}"
            tag = line.split("\t", 1)[0]
            if tag in rows:
                _, idx, values = line.split("\t", 2)
                parse = int if tag == "confusion" else float
                rows[tag][int(idx)] = [parse(x) for x in values.split()]
            elif "=" in line:
                key, value = line.split("=", 1)
                meta[key] = value
        where = str(path)
        plan = CvPlan(runs=int(meta["runs"]), folds=int(meta["folds"]), seed=int(meta["seed"]))
        scores = {}
        for tag, least in (("kappa", -1.0), ("accuracy", 0.0)):
            table = [rows[tag][run] for run in range(plan.runs)]
            scores[f"mean_{tag}"] = mean = float(meta[f"mean_{tag}"])
            if any(len(row) != plan.folds for row in table):
                raise ValueError(f"a {tag} row does not hold {plan.folds} values")
            outside = [v for v in [mean, *sum(table, [])] if not least <= v <= 1.0]
            if outside:
                raise ValueError(f"{tag} {outside[0]!r} lies outside [{least:g}, 1]")
            scores[f"per_fold_{tag}"] = np.array(table)
        labels = meta["labels"].split("\t") if meta.get("labels") else []
        confusion = np.array(
            [rows["confusion"][i] for i in range(len(labels))], dtype=np.int64
        ) if rows["confusion"] else np.zeros((0, 0), dtype=np.int64)
        return EvalReport(
            **scores,
            confusion_total=confusion,
            labels=labels,
            partition_fingerprint=meta["partition_fingerprint"],
            runs=plan.runs,
            folds=plan.folds,
            seed=plan.seed,
            dataset=meta.get("dataset", ""),
            aggregation=meta.get("aggregation", ""),
        )
    except KeyError as exc:
        (key,) = exc.args  # a field's name, or the number of a kappa, accuracy or confusion row
        missing = f"field {key!r}" if isinstance(key, str) else f"row {key}"
        raise ValueError(f"{path}: evaluation record has no {missing}") from None
    except ValueError as exc:
        raise ValueError(f"{where}: bad evaluation record: {exc}") from None
