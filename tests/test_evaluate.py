import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from oracles import (
    ZeroVector,
    cross_validate_reference,
    fit_squared_hinge_lbfgs,
    squared_hinge_objective,
    vector_similarity,
)
from pathvec import evaluate
from pathvec.aggregate import LabeledDataset, read_dataset_csv
from pathvec.cli import main
from pathvec.evaluate import (
    ClassifierConfig,
    CvPlan,
    _fit_squared_hinge,
    _gram,
    cross_validate,
    kappa,
    name_prediction_f1,
    paired_ttest,
    rank_aggregations,
    read_report,
    stratified_fold_assignment,
    train_linear,
    write_report,
)


def _dataset(features, labels):
    return LabeledDataset(np.asarray(features, dtype=float), list(labels))


@pytest.mark.parametrize("field", ["c", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_classifier_config_refuses_non_finite_values(field, value):
    with pytest.raises(ValueError):
        ClassifierConfig(**{field: value})


@pytest.mark.parametrize("value", [0, -1])
def test_classifier_config_refuses_fewer_than_one_iteration(value):
    # a fit of 0 steps would silently return w = 0
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        ClassifierConfig(max_iterations=value)


# --- linear classifier ----------------------------------------------------------


def _train(X, y, config=ClassifierConfig()):
    """train_linear as cross_validate calls it, with the labels of y as
    indices in order of first appearance: (weight rows, bias last; most
    Newton steps of a fit; fits the iteration limit stopped)."""
    labels = list(dict.fromkeys(y))
    X_fit = np.hstack([np.asarray(X, dtype=float), np.ones((len(y), 1))])
    y_idx = np.array([labels.index(label) for label in y])
    return train_linear(X_fit, y_idx, len(labels), config, _gram(X_fit))


def _predict(weights, X):
    """The label index cross_validate predicts for each row of X."""
    return np.argmax(X @ weights[:, :-1].T + weights[:, -1], axis=1).tolist()


def test_separable_singletons():
    X = np.array([[-1.0], [1.0]])
    weights, _, _ = _train(X, ["neg", "pos"])
    assert _predict(weights, X) == [0, 1]


def test_duplicate_rows_keep_boundary():
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(-1, 0.3, size=(20, 2)), rng.normal(1, 0.3, size=(20, 2))])
    y = ["a"] * 20 + ["b"] * 20
    single, _, _ = _train(X, y)
    double, _, _ = _train(np.vstack([X, X]), y + y)
    assert np.allclose(single, double, rtol=1e-4, atol=1e-6)


def test_zero_features_predicts_majority():
    X = np.zeros((10, 3))
    y = ["big"] * 7 + ["small"] * 3
    weights, _, _ = _train(X, y)
    assert _predict(weights, X) == [0] * 10


def test_single_label_degenerate():
    with pytest.raises(ValueError, match="need at least two distinct labels"):
        cross_validate(_dataset(np.ones((4, 2)), ["same"] * 4), plan=CvPlan(runs=1, folds=2))


def test_multiclass_separable():
    X = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]] * 5, dtype=float)
    weights, _, _ = _train(X, ["a", "b", "c"] * 5)
    assert _predict(weights, X) == [0, 1, 2] * 5


def _per_class_fits(X, y, classes, config=ClassifierConfig()):
    """One squared-hinge fit per class, the plain one-vs-rest loop."""
    X_fit = np.hstack([X, np.ones((X.shape[0], 1))])
    y_arr = np.asarray(y)
    return [
        _fit_squared_hinge(X_fit, np.where(y_arr == cls, 1.0, -1.0), config, _gram(X_fit))[0]
        for cls in classes
    ]


def _counting_fits(monkeypatch):
    calls = []

    def fit(*args):
        calls.append(args)
        return _fit_squared_hinge(*args)

    monkeypatch.setattr(evaluate, "_fit_squared_hinge", fit)
    return calls


@pytest.mark.parametrize("width", [3, 40])
def test_binary_fit_equals_per_class_loop_bit_for_bit(width, monkeypatch):
    rng = np.random.default_rng(width)
    X = np.vstack([rng.normal(-0.5, 1.0, size=(30, width)),
                   rng.normal(0.5, 1.0, size=(25, width))])
    y = ["a"] * 30 + ["b"] * 25
    calls = _counting_fits(monkeypatch)
    weights, _, _ = _train(X, y)
    assert len(calls) == 1
    assert np.array_equal(weights, np.stack(_per_class_fits(X, y, ["a", "b"])))


_FEW_ROWS_X = [
    [-0.3, 0.7], [0.7, -0.8], [0.5, 0.4], [0.1, 0.2], [-1.3, -0.1], [-0.2, 1.6],
    [0.1, -2.5], [1.2, 1.7], [-0.0, 1.7], [0.9, 0.1], [-1.6, -1.1],
]
_FEW_ROWS_Y = ["a", "b", "b", "b", "a", "a", "b", "a", "a", "a", "a"]


def test_a_fit_is_unconverged_only_when_the_iteration_cap_stops_it():
    X = 3.0 * np.array(_FEW_ROWS_X)  # one binary fit of three Newton steps
    settled = _train(X, _FEW_ROWS_Y)
    assert settled[1:] == (3, 0)
    for cap in (1, 2):
        assert _train(X, _FEW_ROWS_Y, ClassifierConfig(max_iterations=cap))[1:] == (cap, 1)
    at_cap = _train(X, _FEW_ROWS_Y, ClassifierConfig(max_iterations=3))
    assert at_cap[1:] == (3, 0)
    assert np.array_equal(at_cap[0], settled[0])


def test_tol_stops_a_fit_once_its_gradient_has_shrunk_by_tol_times_1e6():
    X = 3.0 * np.array(_FEW_ROWS_X)
    X_fit = np.hstack([X, np.ones((len(X), 1))])
    ybin = np.where(np.array(_FEW_ROWS_Y) == "a", 1.0, -1.0)
    g0 = np.linalg.norm(squared_hinge_objective(X_fit, ybin, 1.0, np.zeros(3))[1])
    settled, _, _ = _train(X, _FEW_ROWS_Y)
    loose, *counts = _train(X, _FEW_ROWS_Y, ClassifierConfig(tol=1e5))
    assert counts == [1, 0]
    assert not np.array_equal(loose, settled)
    assert np.linalg.norm(squared_hinge_objective(X_fit, ybin, 1.0, loose[0])[1]) <= 0.1 * g0
    # at or above 1e6 the starting gradient already meets it
    unfit, steps, _ = _train(X, _FEW_ROWS_Y, ClassifierConfig(tol=1e6))
    assert steps == 0 and not unfit.any()


@pytest.mark.parametrize("seed", range(4))
def test_a_fit_stops_where_rounding_keeps_rows_on_the_margin(seed):
    # Each row twice, its two labels drawn apart, at a feature scale of 1e4:
    # I + (2C/n) XX' has a condition number near 1e10, and the steps stop
    # lowering the objective before the rows inside the margin settle.
    rng = np.random.default_rng(seed)
    X = np.tile(rng.normal(size=(7, 39)) * 1e4, (2, 1))
    y = list(np.where(rng.random(14) < 0.5, "a", "b"))
    weights, steps, unconverged = _train(X, y, ClassifierConfig(max_iterations=100))
    assert unconverged == 0 and steps <= 3
    X_fit = np.hstack([X, np.ones((14, 1))])
    ybin = np.where(np.array(y) == y[0], 1.0, -1.0)  # class 0 is the first label of y
    f, _ = squared_hinge_objective(X_fit, ybin, 1.0, weights[0])
    oracle = fit_squared_hinge_lbfgs(X_fit, ybin, ClassifierConfig())[0]
    assert f <= squared_hinge_objective(X_fit, ybin, 1.0, oracle)[0] + 1e-12


def _oracle_problem(n_labels, rows, cols, scale, separated, seed=0):
    """Rows drawn around one center per label: centers 3 apart (separated)
    or 0.3 apart (overlapping), unit noise, all times `scale`."""
    rng = np.random.default_rng(seed)
    labels = [f"c{i}" for i in range(n_labels)]
    y = [labels[i % n_labels] for i in range(rows)]
    centers = rng.normal(size=(n_labels, cols)) * (3.0 if separated else 0.3)
    X = (centers[[i % n_labels for i in range(rows)]] + rng.normal(size=(rows, cols))) * scale
    return X, y, labels


@pytest.mark.parametrize("rows, cols", [(24, 6), (12, 30)], ids=["more-rows", "more-columns"])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("separated", [True, False], ids=["separable", "overlapping"])
@pytest.mark.parametrize("n_labels", [2, 3, 4])
def test_each_fit_reaches_the_optimum_the_lbfgs_oracle_approaches(
    n_labels, separated, scale, rows, cols
):
    X, y, labels = _oracle_problem(n_labels, rows, cols, scale, separated)
    config = ClassifierConfig()
    weights, _, unconverged = _train(X, y, config)
    assert unconverged == 0
    X_fit = np.hstack([X, np.ones((rows, 1))])
    for i, label in enumerate(labels):  # labels are in y's order of first appearance
        ybin = np.where(np.array(y) == label, 1.0, -1.0)
        w = weights[i]
        f, g = squared_hinge_objective(X_fit, ybin, config.c, w)
        oracle_f, _ = squared_hinge_objective(
            X_fit, ybin, config.c, fit_squared_hinge_lbfgs(X_fit, ybin, config)[0]
        )
        g0 = squared_hinge_objective(X_fit, ybin, config.c, np.zeros_like(w))[1]
        assert f <= oracle_f + 1e-12 * max(1.0, abs(oracle_f))
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(g0))


@pytest.fixture(scope="module")
def suite_csvs(tmp_path_factory):
    """The mean and the widest suite CSV of a small synthetic pipeline."""
    root = tmp_path_factory.mktemp("suite")
    corpus, dump, ckpt = root / "corpus", root / "contexts.txt", root / "model.ckpt"
    synth.generate_corpus(corpus, files_per_class=10, seed=3, typo_fraction=0.5)
    for argv in (
        ["extract", "--corpus", corpus, "--out", dump, "--seed", 1],
        ["train", "--contexts", dump, "--out", ckpt, "--d-emb", 8, "--epochs", 2, "--seed", 1],
        ["embed", "--corpus", corpus, "--model", ckpt, "--out", root / "suite.csv",
         "--suite", "--seed", 1],
    ):
        assert main([str(a) for a in argv]) == 0
    return [root / "suite.mean.csv", root / "suite.minMaxSumMeanMedStd.csv"]


def test_cross_validate_records_equal_the_lbfgs_oracles(suite_csvs, tmp_path, monkeypatch):
    plan = CvPlan(runs=3, folds=5, seed=2)
    for csv_path in suite_csvs:
        dataset = read_dataset_csv(csv_path)
        newton, oracle = tmp_path / "newton.txt", tmp_path / "oracle.txt"
        write_report(cross_validate(dataset, plan=plan), newton)
        with monkeypatch.context() as patch:
            patch.setattr(evaluate, "_fit_squared_hinge", fit_squared_hinge_lbfgs)
            write_report(cross_validate(dataset, plan=plan), oracle)
        assert newton.read_bytes() == oracle.read_bytes(), csv_path.name


@pytest.mark.parametrize("max_iterations", [1, 2, 1000])
@pytest.mark.parametrize("rows, cols", [(48, 6), (24, 40)], ids=["more-rows", "more-columns"])
@pytest.mark.parametrize("n_labels", [2, 3, 4])
def test_cross_validate_equals_the_string_label_fold_loop(n_labels, rows, cols, max_iterations):
    # more-rows fits in feature space (32 training rows, 7 columns with the
    # bias), more-columns in row space (16 rows, 41 columns)
    X, y, _ = _oracle_problem(n_labels, rows, cols, 1.0, separated=False, seed=n_labels)
    dataset = _dataset(X, y)
    config = ClassifierConfig(max_iterations=max_iterations)
    plan = CvPlan(runs=2, folds=3, seed=5)
    report = cross_validate(dataset, config, plan)
    for field, expected in cross_validate_reference(dataset, config, plan).items():
        assert np.array_equal(getattr(report, field), expected), field


# --- stratified folds ------------------------------------------------------------


def test_fold_assignment_is_stratified_and_pure():
    labels = ["a"] * 25 + ["b"] * 15
    assign = stratified_fold_assignment(labels, 5, seed=3, run=0)
    arr = np.asarray(labels)
    for fold in range(5):
        a_count = int(np.sum((arr == "a") & (assign == fold)))
        b_count = int(np.sum((arr == "b") & (assign == fold)))
        assert a_count == 5 and b_count == 3
    again = stratified_fold_assignment(labels, 5, seed=3, run=0)
    assert np.array_equal(assign, again)
    other_run = stratified_fold_assignment(labels, 5, seed=3, run=1)
    assert not np.array_equal(assign, other_run)


def test_fold_assignment_depends_only_on_labels():
    labels = ["x"] * 30 + ["y"] * 30
    renamed = ["left"] * 30 + ["right"] * 30
    a = stratified_fold_assignment(labels, 10, seed=7, run=2)
    b = stratified_fold_assignment(renamed, 10, seed=7, run=2)
    assert np.array_equal(a, b)


# --- cross-validation -------------------------------------------------------------


def _separable_dataset(n_per_class=30, width=4, seed=0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [
            rng.normal(-2.0, 0.2, size=(n_per_class, width)),
            rng.normal(2.0, 0.2, size=(n_per_class, width)),
        ]
    )
    labels = ["neg"] * n_per_class + ["pos"] * n_per_class
    return _dataset(features, labels)


def test_cross_validate_perfectly_separable():
    report = cross_validate(_separable_dataset(), plan=CvPlan(runs=2, folds=5, seed=1))
    assert report.mean_kappa == pytest.approx(1.0)
    assert report.per_fold_kappa.shape == (2, 5)
    assert np.trace(report.confusion_total) == report.confusion_total.sum()


def test_cross_validate_shuffled_labels_near_zero():
    rng = np.random.default_rng(12)
    features = rng.standard_normal((400, 5))
    labels = list(rng.permutation(["a"] * 200 + ["b"] * 200))
    dataset = _dataset(features, labels)
    report = cross_validate(dataset, plan=CvPlan(runs=3, folds=10, seed=5))
    assert abs(report.mean_kappa) < 0.1


def test_cross_validate_seeded_rerun_identical():
    dataset = _separable_dataset(seed=4)
    plan = CvPlan(runs=3, folds=5, seed=8)
    a = cross_validate(dataset, plan=plan)
    b = cross_validate(dataset, plan=plan)
    assert np.array_equal(a.per_fold_kappa, b.per_fold_kappa)
    assert a.partition_fingerprint == b.partition_fingerprint


def test_cross_validate_label_symmetry():
    dataset = _separable_dataset(seed=6)
    renamed = LabeledDataset(dataset.X, [{"neg": "zz", "pos": "aa"}[label] for label in dataset.y])
    assert renamed.labels == ["zz", "aa"]
    plan = CvPlan(runs=2, folds=5, seed=3)
    a = cross_validate(dataset, plan=plan)
    b = cross_validate(renamed, plan=plan)
    assert np.array_equal(a.per_fold_kappa, b.per_fold_kappa)


def test_cross_validate_too_few_rows():
    dataset = _separable_dataset(n_per_class=5)
    with pytest.raises(ValueError, match="label with 5 rows cannot be split into 10 folds"):
        cross_validate(dataset, plan=CvPlan(runs=1, folds=10, seed=0))


# --- kappa --------------------------------------------------------------------------


def test_kappa_diagonal_is_one():
    assert kappa([[7, 0], [0, 9]]) == 1.0


def test_kappa_worked_example():
    assert kappa([[40, 10], [20, 30]]) == pytest.approx(0.4, abs=1e-12)


def test_kappa_constant_prediction_balanced():
    assert kappa([[50, 0], [50, 0]]) == pytest.approx(0.0, abs=1e-12)


def test_kappa_scale_invariance():
    base = np.array([[40, 10], [20, 30]])
    assert kappa(base * 17) == pytest.approx(kappa(base), abs=1e-12)


def test_kappa_p_e_one_edge():
    assert kappa([[5]]) == 1.0
    assert kappa([[0, 5], [0, 0]]) == 0.0


def test_kappa_rejects_bad_input():
    with pytest.raises(ValueError, match="confusion matrix has zero total"):
        kappa([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="confusion matrix must be square and nonempty"):
        kappa(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="negative counts"):
        kappa([[1, -1], [0, 1]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=10_000))
def test_kappa_chance_agreement_is_zero(scale, seed):
    rng = np.random.default_rng(seed)
    row = rng.integers(1, 10, size=2)
    # outer product has p_o == p_e exactly
    confusion = np.outer(row, row) * scale
    assert kappa(confusion) == pytest.approx(0.0, abs=1e-12)


# --- subtoken F1 ---------------------------------------------------------------------


def test_f1_exact_match():
    m = name_prediction_f1([("getResult", "getResult")])
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_f1_partial_overlap():
    m = name_prediction_f1([("count", "getCount")])
    assert m.precision == pytest.approx(0.5)
    assert m.recall == pytest.approx(1.0)
    assert m.f1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_f1_disjoint_zero():
    m = name_prediction_f1([("alpha", "omega")])
    assert m.f1 == 0.0


def test_f1_micro_average():
    m = name_prediction_f1([("count", "getCount"), ("getName", "getName")])
    # TP=3 (count,get,name), FP=1 (extra get), FN=0
    assert m.precision == pytest.approx(3 / 4)
    assert m.recall == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.from_regex(r"[a-z][a-zA-Z0-9]{0,8}", fullmatch=True),
            st.from_regex(r"[a-z][a-zA-Z0-9]{0,8}", fullmatch=True),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_f1_bounds(pairs):
    m = name_prediction_f1(pairs)
    assert 0.0 <= m.f1 <= 1.0
    assert m.f1 <= min(2 * m.precision, 2 * m.recall) + 1e-12
    assert m.f1 <= max(m.precision, m.recall) + 1e-12


# --- paired t-test -------------------------------------------------------------------


def test_ttest_identical_series():
    a = [0.5, 0.6, 0.7, 0.8]
    result = paired_ttest(a, a)
    assert result.p_value == 1.0
    assert result.mean_diff == 0.0
    assert not result.significant


def test_ttest_constant_shift_with_noise_significant():
    rng = np.random.default_rng(0)
    b = rng.normal(0.5, 0.05, size=100)
    noise = np.tile([1e-3, -1e-3], 50)
    a = b + 0.1 + noise
    result = paired_ttest(a, b)
    assert result.significant
    assert result.p_value < 1e-10
    assert result.mean_diff == pytest.approx(0.1, abs=1e-3)


def test_ttest_two_opposite_points():
    result = paired_ttest([0.1, -0.1], [0.0, 0.0])
    assert result.t_stat == 0.0
    assert result.p_value == pytest.approx(1.0)


def test_ttest_symmetry():
    rng = np.random.default_rng(2)
    a = rng.normal(0.6, 0.1, size=30)
    b = rng.normal(0.5, 0.1, size=30)
    ab = paired_ttest(a, b)
    ba = paired_ttest(b, a)
    assert ab.p_value == pytest.approx(ba.p_value, abs=1e-15)
    assert ab.mean_diff == pytest.approx(-ba.mean_diff, abs=1e-15)


def test_ttest_constant_nonzero_diff():
    result = paired_ttest([0.6, 0.6, 0.6], [0.5, 0.5, 0.5])
    assert result.p_value == 0.0
    assert result.significant


def test_ttest_fingerprint_mismatch():
    with pytest.raises(ValueError, match="fold partitions differ between the two reports"):
        paired_ttest([0.1, 0.2], [0.1, 0.3], "aaa", "bbb")


def test_ttest_validation():
    with pytest.raises(ValueError):
        paired_ttest([0.1], [0.2])
    with pytest.raises(ValueError):
        paired_ttest([0.1, 0.2], [0.1, 0.2, 0.3])


# --- rank scoring --------------------------------------------------------------------


def test_rank_scoring_5_to_1():
    column = {
        "maxMed": 0.736,
        "minMeanMax": 0.734,
        "medStd": 0.730,
        "maxMin": 0.729,
        "meanStd": 0.728,
        "mean": 0.700,
        "sum": 0.500,
    }
    totals = rank_aggregations({"algorithms": column})
    assert totals["maxMed"] == 5
    assert totals["minMeanMax"] == 4
    assert totals["medStd"] == 3
    assert totals["maxMin"] == 2
    assert totals["meanStd"] == 1
    assert totals["mean"] == 0
    assert totals["sum"] == 0


def test_rank_single_dataset_max_is_five():
    totals = rank_aggregations({"only": {"mean": 0.9, "min": 0.8}})
    assert max(totals.values()) == 5


def test_rank_additivity_across_datasets():
    per_dataset = {
        "d1": {"mean": 0.9, "min": 0.1},
        "d2": {"mean": 0.8, "min": 0.2},
    }
    totals = rank_aggregations(per_dataset)
    assert totals["mean"] == 10


def test_rank_tie_broken_by_canonical_order():
    totals = rank_aggregations({"d": {"max": 0.5, "min": 0.5}})
    assert totals["min"] == totals["max"] == 4.5  # places 1 and 2 share 5 + 4
    assert list(totals) == ["min", "max"]  # min precedes max canonically


def test_rank_three_way_tie_at_the_top_shares_places_1_to_3():
    totals = rank_aggregations({"d": {"mean": 0.9, "max": 0.9, "min": 0.9, "sum": 0.5}})
    assert totals == {"min": 4, "max": 4, "mean": 4, "sum": 2}  # (5 + 4 + 3) / 3
    assert list(totals) == ["min", "max", "mean", "sum"]


def test_rank_tie_across_fifth_place_shares_its_point():
    column = {"a1": 0.9, "a2": 0.8, "a3": 0.7, "a4": 0.6, "b1": 0.5, "b2": 0.5, "b3": 0.5}
    totals = rank_aggregations({"d1": column, "d2": {"a1": 0.1, "b1": 0.2}})
    # d1: places 5, 6 and 7 share 1 + 0 + 0; d2: b1 first (5), a1 second (4)
    assert totals == {"a1": 9, "b1": Fraction(16, 3), "a2": 4, "a3": 3, "a4": 2,
                      "b2": Fraction(1, 3), "b3": Fraction(1, 3)}
    assert list(totals) == ["a1", "b1", "a2", "a3", "a4", "b2", "b3"]


# --- similarity ----------------------------------------------------------------------


def test_similarity_identical():
    cosine, distance = vector_similarity([1.0, 2.0], [1.0, 2.0])
    assert cosine == pytest.approx(1.0)
    assert distance == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=64
    ).filter(lambda u: any(u))
)
def test_similarity_of_a_vector_with_itself_is_exactly_one(u):
    cosine, distance = vector_similarity(u, list(u))
    assert cosine == 1.0
    assert distance == 0.0


def test_similarity_opposite_and_orthogonal():
    cosine, _ = vector_similarity([1.0, 0.0], [-1.0, 0.0])
    assert cosine == pytest.approx(-1.0)
    cosine, distance = vector_similarity([1.0, 0.0], [0.0, 1.0])
    assert cosine == pytest.approx(0.0)
    assert distance == pytest.approx(np.sqrt(2.0))


def test_similarity_zero_vector():
    with pytest.raises(ZeroVector):
        vector_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        vector_similarity([1.0], [1.0, 2.0])


# --- report records -------------------------------------------------------------------


def test_report_round_trip(tmp_path):
    dataset = _separable_dataset()
    report = cross_validate(dataset, plan=CvPlan(runs=2, folds=5, seed=3))
    report.dataset = "toy"
    report.aggregation = "mean"
    path = tmp_path / "report.txt"
    write_report(report, path)
    loaded = read_report(path)
    assert loaded.dataset == "toy"
    assert loaded.aggregation == "mean"
    assert loaded.partition_fingerprint == report.partition_fingerprint
    assert np.array_equal(loaded.per_fold_kappa, report.per_fold_kappa)
    assert np.array_equal(loaded.confusion_total, report.confusion_total)
    assert loaded.mean_kappa == report.mean_kappa


def test_report_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_report(path)


@pytest.mark.parametrize("char", ["\t", "\r", "\n", "\u2028"])
@pytest.mark.parametrize("field", ["labels", "dataset", "aggregation"])
def test_write_report_refuses_a_tab_or_line_break_it_cannot_read_back(tmp_path, field, char):
    dataset = _separable_dataset()
    report = cross_validate(dataset, plan=CvPlan(runs=1, folds=2, seed=3))
    text = f"two{char}words"
    if field == "labels":
        report.labels = [report.labels[0], text]
    else:
        setattr(report, field, text)
    path = tmp_path / "report.txt"
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        write_report(report, path)
    assert list(tmp_path.iterdir()) == []
