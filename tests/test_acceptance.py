"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they print;
each criterion also enforces its runtime budget.
"""

import contextlib
import io
import json
import math
import re
import time

import numpy as np
import pytest

import fixtures_java as fx
import synth
from conftest import params_as, random_samples
from oracles import (
    brute_force_contexts,
    build_vocabulary,
    extract_contexts,
    leaves,
    numeric_gradients,
    scalar_aggregate,
    unit_methods,
    vector_similarity,
)
from pathvec.aggregate import (
    AggregationSpec,
    SelectionSpec,
    aggregate_vectors,
    build_dataset_suite,
    read_dataset_csv,
    standard_agg_suite,
)
from pathvec.cli import main
from pathvec.evaluate import (
    CvPlan,
    cross_validate,
    kappa,
    name_prediction_f1,
    paired_ttest,
    rank_aggregations,
)
from pathvec.java import parse_file, tokenize
from pathvec.model import (
    ModelConfig,
    TrainedModel,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict_name,
)
from pathvec.obfuscate import ObfuscationScheme, obfuscate_unit
from pathvec.pathctx import (
    DOWN,
    UP,
    ExtractionConfig,
    extract_unit_samples,
)


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print(
            f"ACCEPTANCE {number} FAIL: {description} "
            f"(runtime {elapsed:.2f}s exceeds {budget_seconds}s)"
        )
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_obfuscation_golden():
    with criterion(1, "type obfuscation reproduces the golden method; random names are consistent", 1.0):
        unit = parse_file(fx.FIG4_ORIGINAL, "Holder.java")
        rewritten, rename = obfuscate_unit(unit, ObfuscationScheme("type"))
        out_tokens = [t.text for t in tokenize(rewritten)[:-1]]
        method_tokens = fx.FIG4_TYPE_OBFUSCATED_METHOD.split()
        start = out_tokens.index("public")
        assert out_tokens[start : start + len(method_tokens)] == method_tokens
        assert {b.name: n for b, n in rename.items()} == {
            "input": "param_string_1",
            "count": "local_int_1",
            "objCount": "field_int_1",
        }

        unit = parse_file(fx.FIG4_ORIGINAL, "Holder.java")
        rand_text, rand_map = obfuscate_unit(
            unit, ObfuscationScheme("random", random_length=8, seed=5)
        )
        names = list(rand_map.values())
        assert len(set(names)) == len(names) == 3  # injective
        assert all(re.fullmatch(r"[A-Z]{8}", n) for n in names)
        rand_tokens = [t.text for t in tokenize(rand_text)[:-1]]
        for binding, new_name in rand_map.items():
            assert rand_tokens.count(new_name) == len(binding.occurrences)
            assert binding.name not in rand_tokens


def test_criterion_2_path_context_golden():
    with criterion(2, "exact x=7 triplet; count law vs brute-force oracle on 20+ methods", 5.0):
        method = next(unit_methods(parse_file(fx.ASSIGN_X7)))
        contexts = extract_contexts(method, None, None)
        assert [(c.start_token, c.path, c.end_token) for c in contexts] == [
            ("x", f"NameExpr{UP}AssignExpr{DOWN}IntegerLiteralExpr", "7")
        ]

        unit = parse_file(fx.FIXTURE_METHODS)
        checked = 0
        for m in unit_methods(unit):
            n_leaves = sum(1 for _ in leaves(m.body))
            if n_leaves < 2:
                continue
            got = extract_contexts(m, None, None)
            assert len(got) == n_leaves * (n_leaves - 1) // 2
            expected = brute_force_contexts(m.body)
            assert [(c.start_token, c.path, c.end_token) for c in got] == expected
            checked += 1
        assert checked >= 20


def test_criterion_3_gradient_check():
    with criterion(3, "analytic gradients match central differences at 1e-4 relative", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            samples = random_samples(
                rng,
                n_samples=int(rng.integers(1, 4)),
                n_tokens=int(rng.integers(2, 9)),
                n_paths=int(rng.integers(2, 7)),
                n_contexts=int(rng.integers(1, 6)),
            )
            vocab = build_vocabulary(samples, min_count=1)
            assert vocab.n_tokens <= 12 and vocab.n_paths <= 12  # vocab <= 10 + reserved
            config = ModelConfig(d_emb=int(rng.integers(2, 9)), seed=int(rng.integers(10_000)))
            params = params_as(init_params(config, vocab), np.float64)
            batch = [vocab.index_sample(s) for s in samples]
            _, grads = loss_and_grads(params, batch)
            numeric = numeric_gradients(params, batch, lambda p, b: loss_and_grads(p, b)[0])
            for key in grads:
                assert np.allclose(grads[key], numeric[key], rtol=1e-4, atol=1e-7), key


def test_criterion_4_rename_invariance():
    with criterion(4, "random obfuscation makes Fig-3 pair embeddings identical; plain ones differ", 10.0):
        cfg = ExtractionConfig(max_len=None, max_width=None, max_contexts=500)

        def plain_sample(source, path):
            return extract_unit_samples(parse_file(source, path), cfg)[0]

        def obfuscated_sample(source, path, seed):
            unit = parse_file(source, path)
            rewritten, _ = obfuscate_unit(unit, ObfuscationScheme("random", seed=seed))
            return extract_unit_samples(parse_file(rewritten, path), cfg)[0]

        # vocabulary from the plain sources: `done` and `n` are in-vocab,
        # `don`, `total` and all random names are out-of-vocabulary
        vocab = build_vocabulary(
            [plain_sample(fx.FIG3_DONE, "done.java"), plain_sample(fx.FIG3_N, "n.java")],
            min_count=1,
        )
        params = init_params(ModelConfig(d_emb=8, seed=31), vocab)

        pairs = [
            (fx.FIG3_DONE, fx.FIG3_DON, "done.java", "don.java"),
            (fx.FIG3_N, fx.FIG3_TOTAL, "n.java", "total.java"),
        ]
        for seed_offset, (src_a, src_b, path_a, path_b) in enumerate(pairs):
            obf_a = vocab.index_sample(obfuscated_sample(src_a, path_a, 100 + seed_offset))
            obf_b = vocab.index_sample(obfuscated_sample(src_b, path_b, 200 + seed_offset))
            v_a = forward(params, [obf_a]).code_vectors[0]
            v_b = forward(params, [obf_b]).code_vectors[0]
            assert np.array_equal(v_a, v_b)
            cosine, distance = vector_similarity(v_a, v_b)
            assert cosine == 1.0 and distance == 0.0
            assert predict_name(params, [obf_a], 3, vocab) == predict_name(params, [obf_b], 3, vocab)

            plain_a = vocab.index_sample(plain_sample(src_a, path_a))
            plain_b = vocab.index_sample(plain_sample(src_b, path_b))
            assert not np.array_equal(
                forward(params, [plain_a]).code_vectors[0],
                forward(params, [plain_b]).code_vectors[0],
            )


def test_criterion_5_aggregation_suite():
    with criterion(5, "23 aggregation specs; 1000-input oracle match at 1e-9; exact zero pair", 10.0):
        suite = standard_agg_suite()
        assert len(suite) == 23
        assert len({s.functions for s in suite}) == 23

        rng = np.random.default_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            width = int(rng.integers(1, 6))
            vectors = [rng.standard_normal(width) * 10 for _ in range(n)]
            spec = suite[int(rng.integers(0, 23))]
            got = aggregate_vectors(vectors, spec)
            expected = scalar_aggregate(vectors, spec.functions)
            assert np.all(np.abs(got - expected) <= 1e-9)

        # identical-pair differencing is exactly zero
        samples = [
            extract_unit_samples(parse_file(s, f"m{i}.java"), ExtractionConfig())
            for i, s in enumerate([fx.FIG4_ORIGINAL, fx.FIG1_FACTORIAL])
        ]
        vocab = build_vocabulary([x for sub in samples for x in sub], min_count=1)
        config = ModelConfig(d_emb=6, seed=3)
        model = TrainedModel(config, ExtractionConfig(), init_params(config, vocab), vocab)
        pair = (
            parse_file(fx.FIG4_ORIGINAL, "same.java"),
            parse_file(fx.FIG4_ORIGINAL, "same.java"),
        )
        dataset, _ = build_dataset_suite(
            [("same", pair)], model, SelectionSpec("all"), [AggregationSpec(("mean", "stddev"))]
        )
        assert len(dataset.y) == 1
        assert np.all(dataset.X[0] == 0.0)


def test_criterion_6_metrics():
    with criterion(6, "kappa, subtoken F1 and paired t-test reference values", 5.0):
        assert abs(kappa([[40, 10], [20, 30]]) - 0.4) <= 1e-12
        assert kappa([[7, 0], [0, 5]]) == 1.0
        metrics = name_prediction_f1([("count", "getCount")])
        assert abs(metrics.f1 - 2.0 / 3.0) <= 1e-12
        series = [0.4, 0.5, 0.6, 0.7]
        result = paired_ttest(series, series)
        assert result.p_value == 1.0 and result.mean_diff == 0.0


def _xobf_record(checkpoint, corpus, seed=17):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(["xobf", "--model", str(checkpoint), "--corpus", str(corpus),
                     "--seed", str(seed)]) == 0
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def _run_silent(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, buffer.getvalue()
    return buffer.getvalue()


def test_criterion_7_end_to_end_obfuscation_benefit(tmp_path):
    with criterion(
        7,
        "desk-scale analogue: Random model kappa >= plain on noisy split; "
        "plain xobf F1 drop exceeds Random's (< 0.01)",
        600.0,
    ):
        train_corpus = tmp_path / "train"
        test_noisy = tmp_path / "test_noisy"
        test_clean = tmp_path / "test_clean"
        synth.generate_corpus(train_corpus, 100, seed=101)
        synth.generate_corpus(test_noisy, 60, seed=202, typo_fraction=0.5)
        synth.generate_corpus(test_clean, 60, seed=303)

        budget = [
            "--d-emb", "24", "--epochs", "12", "--batch-size", "16",
            "--learning-rate", "0.005", "--seed", "4", "--patience", "4",
        ]

        dump_plain = tmp_path / "plain.ctx"
        ck_plain = tmp_path / "plain.ckpt"
        _run_silent(["extract", "--corpus", str(train_corpus), "--out", str(dump_plain), "--seed", "3"])
        _run_silent(["train", "--contexts", str(dump_plain), "--out", str(ck_plain), *budget])

        rand_corpus = tmp_path / "train_rand"
        dump_rand = tmp_path / "rand.ctx"
        ck_rand = tmp_path / "rand.ckpt"
        _run_silent(["obfuscate", "--in", str(train_corpus), "--out", str(rand_corpus),
                     "--mode", "random", "--seed", "9"])
        _run_silent(["extract", "--corpus", str(rand_corpus), "--out", str(dump_rand), "--seed", "3"])
        _run_silent(["train", "--contexts", str(dump_rand), "--out", str(ck_rand), *budget])

        mean_kappa = {}
        reports = {}
        for name, ckpt in (("plain", ck_plain), ("rand", ck_rand)):
            csv = tmp_path / f"{name}.csv"
            _run_silent(["embed", "--corpus", str(test_noisy), "--model", str(ckpt),
                         "--out", str(csv), "--agg", "mean", "--seed", "5"])
            report = cross_validate(read_dataset_csv(csv), plan=CvPlan(runs=5, folds=10, seed=2))
            mean_kappa[name] = report.mean_kappa
            reports[name] = report
        # same corpus, same plan: partitions must be shared for a fair pairing
        assert reports["plain"].partition_fingerprint == reports["rand"].partition_fingerprint
        assert mean_kappa["rand"] >= mean_kappa["plain"]

        record_plain = _xobf_record(ck_plain, test_clean)
        record_rand = _xobf_record(ck_rand, test_clean)
        assert record_plain["drop"] > record_rand["drop"]
        assert record_rand["drop"] < 0.01


def test_criterion_8_stage_determinism(tmp_path):
    with criterion(8, "every stage rerun with the same seed is byte-identical", 300.0):
        corpus = tmp_path / "corpus"
        synth.generate_corpus(corpus, 6, seed=11)

        def rerun(stage_args, outputs):
            results = []
            for tag in ("one", "two"):
                out_dir = tmp_path / tag
                out_dir.mkdir(exist_ok=True)
                _run_silent([arg.format(dir=out_dir) for arg in stage_args])
                results.append([
                    (out_dir / rel).read_bytes() for rel in outputs(out_dir)
                ])
            assert results[0] == results[1]

        # obfuscate
        rerun(
            ["obfuscate", "--in", str(corpus), "--out", "{dir}/obf", "--mode", "random", "--seed", "7"],
            lambda d: sorted(p.relative_to(d) for p in (d / "obf").rglob("*.java")),
        )
        # extract
        rerun(
            ["extract", "--corpus", str(corpus), "--out", "{dir}/ctx.txt", "--seed", "3"],
            lambda d: ["ctx.txt"],
        )
        dump = tmp_path / "one" / "ctx.txt"
        # train
        rerun(
            ["train", "--contexts", str(dump), "--out", "{dir}/m.ckpt",
             "--d-emb", "4", "--epochs", "2", "--batch-size", "8", "--seed", "5"],
            lambda d: ["m.ckpt"],
        )
        ckpt = tmp_path / "one" / "m.ckpt"
        # embed
        rerun(
            ["embed", "--corpus", str(corpus), "--model", str(ckpt),
             "--out", "{dir}/data.csv", "--agg", "meanMin", "--seed", "5"],
            lambda d: ["data.csv"],
        )
        csv = tmp_path / "one" / "data.csv"
        # evaluate
        rerun(
            ["evaluate", "--data", str(csv), "--out", "{dir}/report.txt",
             "--runs", "2", "--folds", "5", "--seed", "1"],
            lambda d: ["report.txt"],
        )


def test_criterion_9_rank_scoring_reproduces_example():
    with criterion(9, "rank scoring awards 5..1 to the published average-kappa column", 5.0):
        column = {
            "maxMed": 0.736,
            "minMeanMax": 0.734,
            "medStd": 0.730,
            "maxMin": 0.729,
            "meanStd": 0.728,
        }
        totals = rank_aggregations({"algorithm-classification": column})
        assert totals == {
            "maxMed": 5,
            "minMeanMax": 4,
            "medStd": 3,
            "maxMin": 2,
            "meanStd": 1,
        }
