import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fixtures_java as fx
from oracles import csv_module_dataset_bytes, forward_reference, scalar_aggregate
from pathvec.aggregate import (
    AggregationSpec,
    NoMethods,
    SelectionSpec,
    aggregate_vectors,
    build_dataset_suite,
    method_vectors,
    parse_aggregation_name,
    read_dataset_csv,
    select_methods,
    standard_agg_suite,
    union_spec,
    write_dataset_csv,
)
from pathvec.cli import main
from pathvec.java import parse_file
from pathvec.model import ModelConfig, TrainedModel, init_params, save_checkpoint
from pathvec.pathctx import ExtractionConfig, build_vocabulary, extract_unit_samples


# --- specs and the 23-suite ----------------------------------------------------


def test_suite_has_exactly_23():
    suite = standard_agg_suite()
    assert len(suite) == 23
    assert len({s.functions for s in suite}) == 23


def test_suite_membership():
    suite = {s.functions for s in standard_agg_suite()}
    assert ("mean",) in suite
    assert ("min", "mean") in suite
    triples_or_more = [f for f in suite if len(f) >= 3]
    assert sorted(triples_or_more) == [
        ("min", "max", "mean"),
        ("min", "max", "sum", "mean", "median", "stddev"),
    ]


def test_spec_canonical_ordering_and_names():
    spec = AggregationSpec(("mean", "min"))
    assert spec.functions == ("min", "mean")
    assert spec.name == "minMean"
    assert AggregationSpec(("stddev", "median")).name == "medStd"
    assert AggregationSpec(("min", "mean", "max")).name == "minMaxMean"
    full = AggregationSpec(("stddev", "median", "mean", "sum", "max", "min"))
    assert full.name == "minMaxSumMeanMedStd"


def test_spec_validation():
    with pytest.raises(ValueError):
        AggregationSpec(())
    with pytest.raises(ValueError):
        AggregationSpec(("mean", "mean"))
    with pytest.raises(ValueError):
        AggregationSpec(("mode",))


def test_union_spec_is_canonical():
    union = union_spec([AggregationSpec(("stddev",)), AggregationSpec(("mean", "min"))])
    assert union.functions == ("min", "mean", "stddev")
    assert union_spec(standard_agg_suite()).functions == (
        "min", "max", "sum", "mean", "median", "stddev"
    )


def test_parse_aggregation_name():
    assert parse_aggregation_name("meanMin").functions == ("min", "mean")
    assert parse_aggregation_name("maxMed").functions == ("max", "median")
    assert parse_aggregation_name("minMeanMax").functions == ("min", "max", "mean")
    assert parse_aggregation_name("minMaxMeanMedianStddevSum").functions == (
        "min", "max", "sum", "mean", "median", "stddev"
    )
    with pytest.raises(ValueError):
        parse_aggregation_name("bogus")


# --- selection -------------------------------------------------------------------


def _vecs(*pairs):
    return [(np.array(v, dtype=float), n) for v, n in pairs]


def test_select_top1_takes_longest():
    vectors = _vecs(([1.0], 10), ([2.0], 2), ([3.0], 7))
    out = select_methods(vectors, SelectionSpec("topk", k=1))
    assert [v[0] for v in out] == [1.0]


def test_select_topk_tie_prefers_earlier_declaration():
    vectors = _vecs(([1.0], 5), ([2.0], 5), ([3.0], 5))
    out = select_methods(vectors, SelectionSpec("topk", k=2))
    assert [v[0] for v in out] == [1.0, 2.0]


def test_select_clamps_k():
    vectors = _vecs(([1.0], 1), ([2.0], 2))
    for mode in ("topk", "randomk"):
        out = select_methods(vectors, SelectionSpec(mode, k=5))
        assert [v[0] for v in out] == [1.0, 2.0]


def test_select_randomk_seeded():
    vectors = _vecs(*[([float(i)], i) for i in range(20)])
    a = select_methods(vectors, SelectionSpec("randomk", k=5, seed=3), salt="s")
    b = select_methods(vectors, SelectionSpec("randomk", k=5, seed=3), salt="s")
    c = select_methods(vectors, SelectionSpec("randomk", k=5, seed=4), salt="s")
    assert [v[0] for v in a] == [v[0] for v in b]
    assert [v[0] for v in a] != [v[0] for v in c]


def test_selection_spec_validation():
    with pytest.raises(ValueError):
        SelectionSpec("best", k=1)
    with pytest.raises(ValueError):
        SelectionSpec("topk", k=0)


# --- aggregation -----------------------------------------------------------------


def test_mean_example():
    out = aggregate_vectors([np.array([1.0, 2.0]), np.array([3.0, 4.0])],
                            AggregationSpec(("mean",)))
    assert np.array_equal(out, [2.0, 3.0])


def test_meanmax_singleton():
    v = np.array([1.5, -2.0, 0.0])
    out = aggregate_vectors([v], AggregationSpec(("mean", "max")))
    assert np.array_equal(out, np.concatenate([v, v]))


def test_meanstd_identical_vectors():
    v = np.array([4.0, 5.0])
    out = aggregate_vectors([v, v, v], AggregationSpec(("mean", "stddev")))
    assert np.array_equal(out, np.concatenate([v, np.zeros(2)]))


def test_full_spec_hand_value():
    vectors = [np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0])]
    out = aggregate_vectors(vectors, AggregationSpec(
        ("min", "max", "sum", "mean", "median", "stddev")))
    std = np.sqrt(8.0 / 3.0)
    expected = [0, 1, 4, 5, 6, 9, 2, 3, 2, 3, std, std]
    assert np.allclose(out, expected, atol=1e-12)
    assert out[10] == pytest.approx(1.632993161855452, abs=1e-12)


def test_aggregate_matches_scalar_oracle_on_random_inputs():
    rng = np.random.default_rng(8)
    suite = standard_agg_suite()
    for _ in range(200):
        n = int(rng.integers(1, 7))
        width = int(rng.integers(1, 5))
        vectors = [rng.standard_normal(width) for _ in range(n)]
        spec = suite[int(rng.integers(0, len(suite)))]
        got = aggregate_vectors(vectors, spec)
        expected = scalar_aggregate(vectors, spec.functions)
        assert got.shape == (len(spec.functions) * width,)
        assert np.allclose(got, expected, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_scale_equivariance(n, width, scale, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.standard_normal(width) for _ in range(n)]
    spec = AggregationSpec(("min", "max", "sum", "mean", "median", "stddev"))
    direct = aggregate_vectors([scale * v for v in vectors], spec)
    scaled = scale * aggregate_vectors(vectors, spec)
    assert np.allclose(direct, scaled, rtol=1e-9, atol=1e-9)


# --- file embedding ---------------------------------------------------------------


def _toy_model(sources, d_emb=4, seed=5):
    samples = []
    for i, source in enumerate(sources):
        unit = parse_file(source, f"seed{i}.java")
        samples.extend(extract_unit_samples(unit, ExtractionConfig(None, None, 200)))
    vocab = build_vocabulary(samples, min_count=1)
    config = ModelConfig(d_emb=d_emb, seed=seed)
    return TrainedModel(
        config=config,
        extraction=ExtractionConfig(None, None, 200),
        params=init_params(config, vocab),
        vocab=vocab,
    )


MODEL_SOURCES = [fx.FIG1_FACTORIAL, fx.FIG3_DONE, fx.FIG4_ORIGINAL, fx.FIXTURE_METHODS]


def _build(items, model, *specs, **kwargs):
    """build_dataset_suite with select-all over `specs` (default: mean)."""
    return build_dataset_suite(
        items, model, SelectionSpec("all"), list(specs) or [AggregationSpec(("mean",))],
        **kwargs,
    )


def _row(model, spec, *units):
    """The row of one file, or the difference row of a pair of files."""
    dataset, _ = _build([("x", units)], model, spec)
    assert len(dataset.rows) == 1
    return dataset.rows[0]


def test_embed_file_singleton_mean_equals_method_vector():
    model = _toy_model(MODEL_SOURCES)
    unit = parse_file(fx.FIG1_FACTORIAL, "f.java")
    emb = _row(model, AggregationSpec(("mean",)), unit)
    sample = extract_unit_samples(unit, model.extraction)[0]
    assert np.array_equal(emb.values, model.embed([sample])[0])
    assert emb.source_path == "f.java"


def test_method_embedded_alone_agrees_with_its_file_batch():
    model = _toy_model(MODEL_SOURCES, d_emb=32)
    unit = parse_file(fx.FIXTURE_METHODS, "Mixed.java")
    samples = extract_unit_samples(unit, model.extraction)
    assert len(samples) > 2
    in_file = model.embed(samples)
    assert np.array_equal(np.stack([v for v, _, _ in method_vectors(unit, model)]), in_file)
    for sample, vector in zip(samples, in_file):
        reference, _, _ = forward_reference(model.params, model.vocab.index_sample(sample))
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(model.embed([sample])[0] - vector)) <= 1e-12 * scale
        assert np.max(np.abs(reference - vector)) <= 1e-12 * scale


def test_embed_file_deterministic():
    model = _toy_model(MODEL_SOURCES)
    unit_a = parse_file(fx.FIG4_ORIGINAL, "h.java")
    unit_b = parse_file(fx.FIG4_ORIGINAL, "h.java")
    spec = AggregationSpec(("min", "mean"))
    emb_a = _row(model, spec, unit_a)
    emb_b = _row(model, spec, unit_b)
    assert np.array_equal(emb_a.values, emb_b.values)


def test_embed_file_order_free_with_select_all():
    source_ab = "class A { int one(int x) { return x + 1; } int two(int y) { return y * 3; } }"
    source_ba = "class A { int two(int y) { return y * 3; } int one(int x) { return x + 1; } }"
    model = _toy_model(MODEL_SOURCES + [source_ab])
    spec = AggregationSpec(("min", "max", "sum", "mean", "median", "stddev"))
    emb_ab = _row(model, spec, parse_file(source_ab, "ab.java"))
    emb_ba = _row(model, spec, parse_file(source_ba, "ab.java"))
    assert np.allclose(emb_ab.values, emb_ba.values, atol=1e-12)


def test_embed_file_no_methods():
    model = _toy_model(MODEL_SOURCES)
    unit = parse_file("class A { }", "a.java")
    with pytest.raises(NoMethods):
        method_vectors(unit, model)
    dataset, stats = _build([("x", (unit,))], model)
    assert dataset.rows == [] and dataset.labels == []
    assert stats.skipped_empty == 1 and stats.files == 1


def test_pair_difference_identical_is_exact_zero():
    model = _toy_model(MODEL_SOURCES)
    unit_a = parse_file(fx.FIG4_ORIGINAL, "same.java")
    unit_b = parse_file(fx.FIG4_ORIGINAL, "same.java")
    diff = _row(model, AggregationSpec(("mean",)), unit_a, unit_b)
    assert np.all(diff.values == 0.0)
    assert diff.source_path == "same.java|same.java"


def test_pair_difference_antisymmetric():
    model = _toy_model(MODEL_SOURCES)
    unit_a = parse_file(fx.FIG4_ORIGINAL, "a.java")
    unit_b = parse_file(fx.FIG1_FACTORIAL, "b.java")
    spec = AggregationSpec(("mean",))
    ab = _row(model, spec, unit_a, unit_b)
    ba = _row(model, spec, unit_b, unit_a)
    assert np.array_equal(ab.values, -ba.values)


def test_pair_difference_mean_shift_oracle():
    one = "class A { int one(int x) { return x + 1; } }"
    two = "class A { int one(int x) { return x + 1; } int extra(int y) { return y - 2; } }"
    model = _toy_model(MODEL_SOURCES + [two])
    spec = AggregationSpec(("mean",))
    unit_one = parse_file(one, "one.java")
    unit_two = parse_file(two, "two.java")
    diff = _row(model, spec, unit_two, unit_one)
    vec_one = model.embed(extract_unit_samples(unit_one, model.extraction))[0]
    samples_two = extract_unit_samples(unit_two, model.extraction)
    vecs_two = [model.embed([s])[0] for s in samples_two]
    expected = np.mean(vecs_two, axis=0) - vec_one
    assert np.allclose(diff.values, expected, atol=1e-12)


# --- dataset building ---------------------------------------------------------------

CORPUS_SOURCES = {"alpha": fx.FIG1_FACTORIAL, "beta": fx.FIG4_ORIGINAL}


def _file_source(label, i):
    # vary a literal so files are distinct
    return CORPUS_SOURCES[label].replace("0", str(i))


def _unit(label, i):
    return parse_file(_file_source(label, i), f"{label}/file{i}.java")


def _corpus_items(per_label=3):
    """(label, (unit,)) items of a corpus/<label>/file<i>.java layout."""
    return [(label, (_unit(label, i),)) for label in CORPUS_SOURCES for i in range(per_label)]


def _write_corpus(root, per_label=3):
    for label in CORPUS_SOURCES:
        directory = root / label
        directory.mkdir(parents=True)
        for i in range(per_label):
            (directory / f"file{i}.java").write_text(_file_source(label, i), encoding="utf-8")
    return root


@pytest.fixture
def toy_checkpoint(tmp_path):
    path = tmp_path / "toy.ckpt"
    save_checkpoint(path, _toy_model(MODEL_SOURCES))
    return path


def _embed(capsys, corpus, checkpoint, out, *flags):
    """Run `pathvec embed`; (exit code, parsed summary or None, stderr)."""
    code = main([
        "embed", "--corpus", str(corpus), "--model", str(checkpoint), "--out", str(out),
        "--agg", "mean", *flags,
    ])
    captured = capsys.readouterr()
    summary = json.loads(captured.out.strip().splitlines()[-1]) if code == 0 else None
    return code, summary, captured.err


def test_build_dataset_shapes():
    model = _toy_model(MODEL_SOURCES)
    dataset, stats = _build(_corpus_items(), model, per_class_cap=2000, seed=1)
    assert dataset.labels == ["alpha", "beta"]
    assert len(dataset.rows) == 6
    assert dataset.feature_width == model.config.d_code
    assert all(len(r.values) == dataset.feature_width for r in dataset.rows)
    assert stats.rows_per_label == {"alpha": 3, "beta": 3}


def test_build_dataset_cap():
    model = _toy_model(MODEL_SOURCES)
    dataset, stats = _build(_corpus_items(per_label=7), model, per_class_cap=4, seed=1)
    assert stats.rows_per_label == {"alpha": 4, "beta": 4}
    assert len(dataset.rows) == 8


def test_build_dataset_deterministic():
    model = _toy_model(MODEL_SOURCES)
    kwargs = dict(per_class_cap=3, seed=9)
    items = _corpus_items(per_label=6)
    ds_a, _ = _build(items, model, **kwargs)
    ds_b, _ = _build(items, model, **kwargs)
    # rows of a label are sorted before the cap, so item order does not matter
    ds_c, _ = _build(items[::-1][6:] + items[::-1][:6], model, **kwargs)
    for other in (ds_b, ds_c):
        assert [r.source_path for r in ds_a.rows] == [r.source_path for r in other.rows]
        assert np.array_equal(ds_a.feature_matrix(), other.feature_matrix())


def test_build_dataset_jobs_match_serial(tmp_path, toy_checkpoint, capsys):
    # --jobs is accepted but unread: the CSV is the same with and without it
    corpus = _write_corpus(tmp_path / "corpus", per_label=5)
    plain, serial, parallel = (tmp_path / f"{n}.csv" for n in ("plain", "serial", "parallel"))
    assert _embed(capsys, corpus, toy_checkpoint, plain, "--seed", "2")[0] == 0
    assert _embed(capsys, corpus, toy_checkpoint, serial, "--seed", "2", "--jobs", "1")[0] == 0
    assert _embed(capsys, corpus, toy_checkpoint, parallel, "--seed", "2", "--jobs", "4")[0] == 0
    assert serial.read_bytes() == plain.read_bytes() == parallel.read_bytes()
    assert len(plain.read_text(encoding="utf-8").splitlines()) == 1 + 10


def test_build_dataset_skips_bad_files_and_rejects_empty_label(
    tmp_path, toy_checkpoint, capsys
):
    corpus = _write_corpus(tmp_path / "corpus")
    (corpus / "alpha" / "broken.java").write_text("class X {", encoding="utf-8")
    (corpus / "alpha" / "methodless.java").write_text("class Y { }", encoding="utf-8")
    (corpus / "beta" / "latin1.java").write_bytes(b"class Z { int f() { return 0; } } // \xff")
    out = tmp_path / "data.csv"
    code, summary, _ = _embed(capsys, corpus, toy_checkpoint, out)
    assert code == 0
    assert summary["counts"]["skipped_parse"] == 2
    assert summary["counts"]["skipped_empty"] == 1
    assert len(read_dataset_csv(out).rows) == 6

    # the builder counts a unit that could not be read as a parse skip
    model = _toy_model(MODEL_SOURCES)
    _, stats = _build(_corpus_items() + [("alpha", (None,))], model)
    assert stats.skipped_parse == 1 and stats.files == 7

    empty = tmp_path / "empty_corpus"
    (empty / "solo").mkdir(parents=True)
    (empty / "solo" / "nothing.java").write_text("class Z { }", encoding="utf-8")
    code, _, stderr = _embed(capsys, empty, toy_checkpoint, tmp_path / "empty.csv")
    assert code == 1
    assert "label 'solo' yielded zero embeddable files" in stderr


def test_pair_dataset_from_manifest(tmp_path, toy_checkpoint, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text(
        "yes\talpha/file0.java\talpha/file0.java\n"
        "no\talpha/file0.java\tbeta/file1.java\n",
        encoding="utf-8",
    )
    out = tmp_path / "pairs.csv"
    code, _, _ = _embed(capsys, corpus, toy_checkpoint, out, "--pairs", str(manifest))
    assert code == 0
    dataset = read_dataset_csv(out)
    assert dataset.labels == ["yes", "no"]
    assert len(dataset.rows) == 2
    identical = next(r for r in dataset.rows if r.label == "yes")
    assert np.all(identical.values == 0.0)


def test_pair_dataset_skips_non_utf8_file(tmp_path, toy_checkpoint, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    (corpus / "alpha" / "latin1.java").write_bytes(b"class Z { } // \xff")
    manifest = tmp_path / "pairs.tsv"
    manifest.write_text(
        "bad\talpha/latin1.java\talpha/file0.java\n"
        "no\talpha/file0.java\tbeta/file1.java\n",
        encoding="utf-8",
    )
    out = tmp_path / "pairs.csv"
    code, summary, _ = _embed(capsys, corpus, toy_checkpoint, out, "--pairs", str(manifest))
    assert code == 0
    assert summary["counts"]["skipped_parse"] == 1
    assert read_dataset_csv(out).labels == ["no"]

    # a manifest of which no pair is usable is an error
    manifest.write_text("bad\talpha/latin1.java\talpha/file0.java\n", encoding="utf-8")
    code, _, stderr = _embed(capsys, corpus, toy_checkpoint, out, "--pairs", str(manifest))
    assert code == 1
    assert "zero usable pairs" in stderr


def test_pair_union_columns_equal_per_spec_differences(tmp_path):
    items = [
        ("no", (_unit("alpha", 0), _unit("beta", 1))),
        ("yes", (_unit("beta", 2), _unit("beta", 0))),
    ]
    model = _toy_model(MODEL_SOURCES)
    suite = standard_agg_suite()
    union, _ = _build(items, model, *suite)
    assert union.functions == union_spec(suite).functions
    paths = [tmp_path / f"{spec.name}.csv" for spec in suite]
    write_dataset_csv(union, *paths, specs=suite)
    for spec, path in zip(suite, paths):
        single, _ = _build(items, model, spec)
        assert path.read_bytes() == csv_module_dataset_bytes(single)


# --- CSV -----------------------------------------------------------------------------


def test_dataset_csv_round_trip(tmp_path):
    model = _toy_model(MODEL_SOURCES)
    dataset, _ = _build(_corpus_items(), model, AggregationSpec(("mean", "stddev")))
    path = tmp_path / "data.csv"
    write_dataset_csv(dataset, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("f0,") and header.endswith(",label")
    loaded = read_dataset_csv(path)
    assert loaded.labels == dataset.labels
    assert loaded.feature_width == dataset.feature_width
    assert np.allclose(loaded.feature_matrix(), dataset.feature_matrix(), atol=0)


def test_suite_csvs_match_per_spec_datasets(tmp_path):
    model = _toy_model(MODEL_SOURCES)
    suite = standard_agg_suite()
    items = _corpus_items()
    dataset, _ = _build(items, model, *suite, seed=3)
    assert dataset.functions == union_spec(suite).functions
    paths = [tmp_path / f"{spec.name}.csv" for spec in suite]
    write_dataset_csv(dataset, *paths, specs=suite)
    for spec, path in zip(suite, paths):
        single, _ = _build(items, model, spec, seed=3)
        assert path.read_bytes() == csv_module_dataset_bytes(single)


@pytest.mark.parametrize(
    "label", ['odd,"label"', "comma,only", 'quote"only', "line\nbreak", "tab\tand space ", ""]
)
def test_dataset_csv_matches_csv_module(tmp_path, label):
    from pathvec.aggregate import ClassEmbedding, LabeledDataset

    values = [np.array([0.1, -0.0, 1e-300, 3.0]), np.array([np.inf, 2.5, -7.25, 1 / 3])]
    dataset = LabeledDataset(
        rows=[ClassEmbedding(v, label, "x") for v in values],
        feature_width=4,
        labels=[label],
    )
    path = tmp_path / "data.csv"
    write_dataset_csv(dataset, path)
    assert path.read_bytes() == csv_module_dataset_bytes(dataset)


def test_dataset_csv_rejects_paths_specs_mismatch(tmp_path):
    from pathvec.aggregate import ClassEmbedding, LabeledDataset

    dataset = LabeledDataset(
        rows=[ClassEmbedding(np.array([1.0, 2.0]), "a", "x")],
        feature_width=2,
        labels=["a"],
        functions=("min", "max"),
    )
    with pytest.raises(ValueError):
        write_dataset_csv(dataset, tmp_path / "a.csv", tmp_path / "b.csv")
    with pytest.raises(ValueError):
        write_dataset_csv(dataset, tmp_path / "a.csv", specs=standard_agg_suite()[:2])


def test_dataset_csv_quotes_labels_with_commas(tmp_path):
    from pathvec.aggregate import ClassEmbedding, LabeledDataset

    dataset = LabeledDataset(
        rows=[ClassEmbedding(np.array([1.0]), 'odd,"label"', "x")],
        feature_width=1,
        labels=['odd,"label"'],
    )
    path = tmp_path / "quoted.csv"
    write_dataset_csv(dataset, path)
    loaded = read_dataset_csv(path)
    assert loaded.rows[0].label == 'odd,"label"'
