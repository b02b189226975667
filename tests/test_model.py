import math
import re
import struct

import numpy as np
import pytest

import fixtures_java as fx
from conftest import params_as, random_samples, rewrite_checkpoint_header
from oracles import (
    adam_update_reference,
    build_vocabulary,
    forward_reference,
    loss_and_grads_reference,
    numeric_gradients,
    train_allocating,
)
from pathvec.evaluate import name_prediction_f1
from pathvec.java import parse_file
from pathvec.model import (
    ModelConfig,
    REDUCE_BLOCK,
    ModelParams,
    TrainedModel,
    _validate,
    adam_update,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict_name,
    save_checkpoint,
    train,
)
from pathvec.obfuscate import ObfuscationScheme, obfuscate_unit
from pathvec.pathctx import (
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    ExtractionConfig,
    IndexedSample,
    MethodSample,
    PathContext,
    Vocabulary,
    extract_unit_samples,
)


def _sample(starts, paths, ends, target=2):
    return IndexedSample(
        target_id=target,
        starts=np.array(starts),
        paths=np.array(paths),
        ends=np.array(ends),
        target_name="t",
    )


def _vector(params, sample):
    """A sample's code vector, embedded alone."""
    return forward(params, [sample]).code_vectors[0]


def test_config_invariants():
    cfg = ModelConfig(d_emb=128)
    assert cfg.d_code == 384
    with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
        ModelConfig(learning_rate=0)
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        ModelConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        ModelConfig(epochs=-1)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            ModelConfig(learning_rate=rate)


def test_single_context_attention_is_one(tiny_model):
    _, params, vocab, samples = tiny_model
    sample = vocab.index_sample(
        MethodSample("x", [samples[0].contexts[0]], 1)
    )
    result = forward(params, [sample])
    assert result.attention[0].shape == (1,)
    assert result.attention[0][0] == pytest.approx(1.0, abs=1e-15)
    # v equals the single transformed context exactly
    E = np.concatenate(
        [
            params.token_emb[sample.starts],
            params.path_emb[sample.paths],
            params.token_emb[sample.ends],
        ],
        axis=1,
    )
    expected = np.tanh(E @ params.transform.T)[0]
    assert np.array_equal(result.code_vectors[0], expected)


def test_two_identical_contexts_split_attention(tiny_model):
    _, params, vocab, samples = tiny_model
    ctx = samples[0].contexts[0]
    single = vocab.index_sample(MethodSample("x", [ctx], 1))
    double = vocab.index_sample(MethodSample("x", [ctx, ctx], 1))
    res_one = forward(params, [single])
    res_two = forward(params, [double])
    assert np.allclose(res_two.attention[0], [0.5, 0.5], atol=1e-15)
    assert np.allclose(res_two.code_vectors[0], res_one.code_vectors[0], atol=1e-12)


def test_normalizations(tiny_model):
    _, params, vocab, samples = tiny_model
    for sample in samples:
        result = forward(params, [vocab.index_sample(sample)])
        assert abs(result.attention[0].sum() - 1.0) < 1e-12
        assert abs(result.target_probs[0].sum() - 1.0) < 1e-12


def test_empty_bag_raises(tiny_model):
    _, params, vocab, samples = tiny_model
    empty = _sample([], [], [])
    a, b = vocab.index_sample(samples[0]), vocab.index_sample(samples[1])
    for batch in ([empty], [empty, a, b], [a, empty, b], [a, b, empty]):
        with pytest.raises(ValueError, match="sample has no contexts"):
            forward(params, batch)
        with pytest.raises(ValueError, match="sample has no contexts"):
            loss_and_grads(params, batch)


def test_zero_params_uniform_loss(tiny_model):
    config, params, vocab, samples = tiny_model
    zeros = ModelParams(**{k: np.zeros_like(v) for k, v in params.as_dict().items()})
    batch = [vocab.index_sample(s) for s in samples]
    loss, _ = loss_and_grads(zeros, batch)
    assert loss == pytest.approx(math.log(vocab.n_targets), abs=1e-12)


def test_dominant_target_drives_loss_to_zero(tiny_model):
    _, params, vocab, samples = tiny_model
    sample = vocab.index_sample(samples[0])
    boosted = params.copy()
    v = _vector(params, sample)
    boosted.target_emb[sample.target_id] = 1e3 * v / (v @ v)
    loss, _ = loss_and_grads(boosted, [sample])
    assert loss < 1e-6


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for trial in range(10):
        samples = random_samples(
            rng,
            n_samples=int(rng.integers(1, 4)),
            n_tokens=int(rng.integers(2, 8)),
            n_paths=int(rng.integers(2, 6)),
            n_contexts=int(rng.integers(1, 6)),
        )
        vocab = build_vocabulary(samples, min_count=1)
        config = ModelConfig(d_emb=int(rng.integers(2, 9)), seed=int(rng.integers(1000)))
        params = params_as(init_params(config, vocab), np.float64)
        batch = [vocab.index_sample(s) for s in samples]
        _, grads = loss_and_grads(params, batch)
        numeric = numeric_gradients(
            params, batch, lambda p, b: loss_and_grads(p, b)[0]
        )
        for key in grads:
            assert np.allclose(
                grads[key], numeric[key], rtol=1e-4, atol=1e-7
            ), f"trial {trial}: {key} gradient mismatch"


def _random_params(rng, d=5, n_tokens=30, n_paths=12, n_targets=7):
    """Params large enough that attention and the scores are far from uniform."""
    dc = 3 * d
    return ModelParams(
        token_emb=rng.normal(0, 0.6, (n_tokens, d)),
        path_emb=rng.normal(0, 0.6, (n_paths, d)),
        transform=rng.normal(0, 0.4, (dc, dc)),
        attention=rng.normal(0, 1.0, dc),
        target_emb=rng.normal(0, 1.0, (n_targets, dc)),
    )


def _random_batch(rng, params, sizes):
    n_tokens, n_paths = len(params.token_emb), len(params.path_emb)
    return [
        _sample(
            rng.integers(0, n_tokens, n),
            rng.integers(0, n_paths, n),
            rng.integers(0, n_tokens, n),
            target=int(rng.integers(len(params.target_emb))),
        )
        for n in sizes
    ]


def _assert_matches_reference(got, want):
    (loss, grads), (ref_loss, ref_grads) = got, want
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    for key, ref in ref_grads.items():
        assert np.max(np.abs(grads[key] - ref)) <= 1e-12 * np.max(np.abs(ref)), key


@pytest.mark.parametrize("sizes", ["random", [300, 300, 1], [700], [1], [512, 1, 511]])
def test_stacked_step_matches_per_sample_loop(sizes):
    rng = np.random.default_rng(31)
    for _ in range(8 if sizes == "random" else 1):
        params = _random_params(rng)
        lengths = rng.integers(1, 200, rng.integers(1, 12)) if sizes == "random" else sizes
        batch = _random_batch(rng, params, lengths)
        _assert_matches_reference(
            loss_and_grads(params, batch), loss_and_grads_reference(params, batch)
        )


def test_stacked_step_matches_per_sample_loop_over_blocks_of_targets():
    rng = np.random.default_rng(38)
    params = _random_params(rng, n_targets=2 * REDUCE_BLOCK + 3)
    batch = _random_batch(rng, params, [700, 40, 3, 90])
    _assert_matches_reference(
        loss_and_grads(params, batch), loss_and_grads_reference(params, batch)
    )


@pytest.mark.parametrize("sizes", ["random", [300, 300, 1], [700], [1], [512, 1, 511]])
def test_forward_matches_single_sample_reference(sizes):
    rng = np.random.default_rng(34)
    for _ in range(8 if sizes == "random" else 1):
        params = _random_params(rng)
        lengths = rng.integers(1, 200, rng.integers(1, 12)) if sizes == "random" else sizes
        batch = _random_batch(rng, params, lengths)
        result = forward(params, batch)
        assert result.code_vectors.shape == (len(batch), params.d_code)
        assert result.target_probs.shape == (len(batch), len(params.target_emb))
        assert len(result.attention) == len(batch)
        for i, sample in enumerate(batch):
            v, alpha, probs = forward_reference(params, sample)
            assert np.max(np.abs(result.code_vectors[i] - v)) <= 1e-12 * np.max(np.abs(v))
            assert np.max(np.abs(result.target_probs[i] - probs)) <= 1e-12 * np.max(probs)
            assert result.attention[i].shape == (len(sample),)
            assert np.max(np.abs(result.attention[i] - alpha)) <= 1e-12 * np.max(alpha)
            assert abs(result.attention[i].sum() - 1.0) <= 1e-12
            assert abs(result.target_probs[i].sum() - 1.0) <= 1e-12


def test_forward_of_no_samples_is_empty(tiny_model):
    _, params, vocab, _ = tiny_model
    result = forward(params, [])
    assert result.code_vectors.shape == (0, params.d_code)
    assert result.target_probs.shape == (0, vocab.n_targets)
    assert result.attention == []


def test_validate_matches_a_loop_over_the_reference():
    rng = np.random.default_rng(35)
    names = ["getValue", "setValue", "isEmpty", "size", "clear"]
    vocab = build_vocabulary(
        [MethodSample(name, [PathContext("a", "p", "b")], 1)
         for name in names],
        min_count=1,
    )
    params = _random_params(rng, n_targets=vocab.n_targets)
    batch = _random_batch(rng, params, rng.integers(1, 300, 40))
    for sample in batch:
        sample.target_name = vocab.targets[sample.target_id]
    losses, hits, pairs = [], 0, []
    for sample in batch:
        _, _, probs = forward_reference(params, sample)
        losses.append(-np.log(max(float(probs[sample.target_id]), 1e-300)))
        pred = int(np.argmax(probs))
        hits += int(pred == sample.target_id != UNK_ID)
        pairs.append((sample.target_name, vocab.targets[pred]))
    loss, top1, f1 = _validate(params, batch, vocab)
    assert abs(loss - float(np.mean(losses))) <= 1e-12 * abs(loss)
    assert top1 == hits / len(batch)
    assert f1 == name_prediction_f1(pairs).f1
    assert 0.0 < top1 < 1.0  # both hits and misses are compared


def test_validate_loss_is_finite_in_float32_when_a_target_probability_underflows():
    rng = np.random.default_rng(37)
    vocab = build_vocabulary(
        [MethodSample(name, [PathContext("a", "p", "b")], 1) for name in ("getValue", "size")],
        min_count=1,
    )
    params = _random_params(rng, n_targets=vocab.n_targets)
    params = params_as(params, np.float32)
    (sample,) = _random_batch(rng, params, [5])
    sample.target_id, sample.target_name = vocab.target_to_id["getValue"], "getValue"
    v = _vector(params, sample)
    params.target_emb[:] = 0.0
    params.target_emb[vocab.target_to_id["size"]] = 1e3 * v / (v @ v)  # a score of 1000
    assert forward(params, [sample]).target_probs[0, sample.target_id] == 0.0
    loss, top1, f1 = _validate(params, [sample], vocab)
    assert loss == float(-np.log(np.finfo(np.float32).tiny))
    assert (top1, f1) == (0.0, 0.0)


def test_float32_step_within_stated_tolerance_of_float64():
    # the same float32-representable params in both precisions, with runs
    # longer than a block and more targets than a block (REDUCE_BLOCK)
    rng = np.random.default_rng(36)
    for sizes, n_targets in (([300, 300, 1], 7), ([700], 600), (rng.integers(1, 200, 9), 300)):
        p32 = params_as(_random_params(rng, d=16, n_targets=n_targets), np.float32)
        batch = _random_batch(rng, p32, sizes)
        loss32, grads32 = loss_and_grads(p32, batch)
        loss64, grads64 = loss_and_grads(params_as(p32, np.float64), batch)
        assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
        for key, want in grads64.items():
            assert grads32[key].dtype == np.float32
            assert np.max(np.abs(grads32[key] - want)) <= 1e-4 * np.max(np.abs(want)), key


def test_stacked_step_draws_the_per_sample_dropout_masks():
    rng = np.random.default_rng(32)
    params = _random_params(rng)
    batch = _random_batch(rng, params, [300, 250, 1, 40, 700, 3])
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    got = loss_and_grads(params, batch, dropout_rate=0.3, rng=ours)
    want = loss_and_grads_reference(params, batch, dropout_rate=0.3, rng=theirs)
    _assert_matches_reference(got, want)
    assert ours.random() == theirs.random()  # the same number of draws
    without = loss_and_grads(params, batch)
    assert not np.allclose(got[1]["transform"], without[1]["transform"])
    with pytest.raises(ValueError, match="rng"):
        loss_and_grads(params, batch, dropout_rate=0.3)


def test_adam_update_in_place_equals_allocating_form():
    rng = np.random.default_rng(33)
    config = ModelConfig(learning_rate=0.01, adam_beta1=0.8, adam_beta2=0.95)
    p = rng.normal(size=(40, 6))
    m, v, scratch = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    for step in range(1, 6):
        g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)
        ref_p, ref_m, ref_v = adam_update_reference(
            ref_p, g, ref_m, ref_v, step, 0.01, 0.8, 0.95
        )
        adam_update(p, g.copy(), m, v, scratch, step, config)
        assert np.array_equal(p, ref_p)
        assert np.array_equal(m, ref_m)
        assert np.array_equal(v, ref_v)


def test_permutation_invariance(tiny_model):
    _, params, vocab, samples = tiny_model
    rng = np.random.default_rng(5)
    sample = random_samples(rng, n_samples=1, n_contexts=4)[0]
    shuffled = MethodSample(
        sample.target_name,
        list(reversed(sample.contexts)),
        sample.line_count,
    )
    v1 = _vector(params, vocab.index_sample(sample))
    v2 = _vector(params, vocab.index_sample(shuffled))
    assert np.allclose(v1, v2, atol=1e-9)


def test_predict_name_contracts(tiny_model):
    config, params, vocab, samples = tiny_model
    sample = vocab.index_sample(samples[0])
    (top_all,) = predict_name(params, [sample], vocab.n_targets, vocab)
    assert abs(sum(p for _, p in top_all) - 1.0) < 1e-9
    assert [p for _, p in top_all] == sorted((p for _, p in top_all), reverse=True)
    zeros = ModelParams(**{k: np.zeros_like(v) for k, v in params.as_dict().items()})
    (uniform,) = predict_name(zeros, [sample], vocab.n_targets, vocab)
    for _, p in uniform:
        assert p == pytest.approx(1.0 / vocab.n_targets, abs=1e-12)
    with pytest.raises(ValueError):
        predict_name(params, [sample], 0, vocab)


@pytest.mark.parametrize(
    "targets", [["getValue", UNK_TOKEN, PAD_TOKEN], [UNK_TOKEN, PAD_TOKEN, "size", "size"], []]
)
def test_vocabulary_refuses_lists_not_in_checkpoint_order(targets):
    with pytest.raises(ValueError, match="targets"):
        Vocabulary([UNK_TOKEN, PAD_TOKEN], [UNK_TOKEN, PAD_TOKEN], targets, 1)


def test_predict_name_batched_one_list_per_sample(tiny_model):
    _, params, vocab, samples = tiny_model
    batch = [vocab.index_sample(s) for s in samples]
    got = predict_name(params, batch, 2, vocab)
    assert len(got) == len(batch)
    for top, sample in zip(got, batch):
        _, _, probs = forward_reference(params, sample)
        order = np.argsort(-probs, kind="stable")[:2]
        assert [name for name, _ in top] == [vocab.targets[i] for i in order]
        assert np.allclose([p for _, p in top], probs[order], rtol=0, atol=1e-12)
    # equal probabilities keep target-id order
    zeros = ModelParams(**{k: np.zeros_like(v) for k, v in params.as_dict().items()})
    for top in predict_name(zeros, batch, vocab.n_targets, vocab):
        assert [name for name, _ in top] == vocab.targets
    with pytest.raises(ValueError):
        predict_name(params, batch, 0, vocab)


# --- training -----------------------------------------------------------------


def _template_corpus(n_per_template=40, seed=0):
    """Synthetic samples from 5 name-distinct templates with separable bags."""
    rng = np.random.default_rng(seed)
    templates = {
        "alphaThing": [("a", "p1", "b"), ("b", "p2", "c")],
        "betaThing": [("c", "p3", "d"), ("d", "p4", "e")],
        "gammaThing": [("e", "p5", "f"), ("f", "p6", "a")],
        "deltaThing": [("g", "p7", "h"), ("h", "p8", "g")],
        "omegaThing": [("i", "p9", "j"), ("j", "p10", "i")],
    }
    samples = []
    for name, contexts in templates.items():
        for _ in range(n_per_template):
            ctxs = [PathContext(*c) for c in contexts]
            # order jitter keeps bags permutation-varied but separable
            if rng.random() < 0.5:
                ctxs = list(reversed(ctxs))
            samples.append(MethodSample(name, ctxs, 2))
    return samples


def test_training_reaches_high_accuracy_on_templates():
    samples = _template_corpus()
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=8, epochs=20, batch_size=16, seed=7, learning_rate=0.01)
    result = train(config, indexed, vocab)
    assert result.history  # trained at least one epoch
    assert max(s.val_top1 for s in result.history) >= 0.9
    assert result.best_epoch <= 20
    # after training, the true target leads the top-k list
    hits = 0
    for sample in samples:
        (top,) = predict_name(result.params, [vocab.index_sample(sample)], 1, vocab)
        hits += int(top[0][0] == sample.target_name)
    assert hits / len(samples) >= 0.9


def test_training_single_class_perfect_f1():
    samples = [
        MethodSample("onlyName", [PathContext("a", "p", "b")], 1)
        for _ in range(20)
    ]
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=5, batch_size=4, seed=1, learning_rate=0.05)
    result = train(config, indexed, vocab)
    assert result.history[-1].val_f1 == pytest.approx(1.0)


def test_val_top1_counts_an_unk_target_as_a_miss():
    # min_count above every name's count maps every target to <unk>, which
    # the model then learns to predict: no method's name was predicted
    samples = _template_corpus(10)
    vocab = build_vocabulary(samples, min_count=11)
    assert set(vocab.target_to_id) == {"<unk>", "<pad>"}
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=3, batch_size=8, seed=5, learning_rate=0.05)
    result = train(config, indexed, vocab)
    assert [s.val_top1 for s in result.history] == [0.0] * 3
    assert [s.val_f1 for s in result.history] == [0.0] * 3
    val = indexed[:10]
    probs = forward(result.params, val).target_probs
    assert (np.argmax(probs, axis=1) == UNK_ID).all()  # predicted as <unk>
    assert _validate(result.params, val, vocab)[1] == 0.0


def test_training_is_bitwise_deterministic():
    samples = _template_corpus(10)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=4, batch_size=8, seed=99)
    run_a = train(config, indexed, vocab)
    run_b = train(config, indexed, vocab)
    assert [s.train_loss for s in run_a.history] == [s.train_loss for s in run_b.history]
    assert [s.val_loss for s in run_a.history] == [s.val_loss for s in run_b.history]
    for key, value in run_a.params.as_dict().items():
        assert np.array_equal(value, run_b.params.as_dict()[key])


@pytest.mark.parametrize("dropout_rate", [0.0, 0.3])
def test_training_with_buffers_allocated_once_equals_fresh_arrays(dropout_rate):
    rng = np.random.default_rng(0)
    longer_than_a_run = MethodSample(
        "longOne",
        [PathContext(f"t{rng.integers(0, 30)}", f"p{rng.integers(0, 5)}", f"t{rng.integers(0, 30)}")
         for _ in range(700)],
        1,
    )
    samples = _template_corpus(10) + [longer_than_a_run]
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(
        d_emb=4, epochs=6, batch_size=8, seed=1, learning_rate=0.05, patience=6,
        val_fraction=0.3, dropout_rate=dropout_rate,
    )
    got = train(config, indexed, vocab)
    want = train_allocating(config, indexed, vocab)
    assert got.history == want.history
    assert got.best_epoch == want.best_epoch
    for key, value in got.params.as_dict().items():
        assert value.dtype == np.float32
        assert np.array_equal(value, want.params.as_dict()[key]), key
    if dropout_rate == 0.0:  # the best params were copied twice, then kept
        assert 1 < got.best_epoch < len(got.history)


def test_adam_update_in_chunks_equals_one_pass():
    rng = np.random.default_rng(8)
    config = ModelConfig(learning_rate=0.01)
    p = rng.normal(size=(37, 5))
    m, v = np.zeros_like(p), np.zeros_like(p)
    p2, m2, v2 = p.copy(), m.copy(), v.copy()
    for step in range(1, 4):
        g = rng.normal(size=p.shape)
        adam_update(p, g.copy(), m, v, np.empty(p.size), step, config)
        adam_update(p2, g.copy(), m2, v2, np.empty(16), step, config)  # 12 chunks, one short
        assert np.array_equal(p, p2) and np.array_equal(m, m2) and np.array_equal(v, v2)
    with pytest.raises(ValueError, match="contiguous"):
        adam_update(p[:, ::2], g[:, ::2], m[:, ::2], v[:, ::2], np.empty(16), 4, config)


@pytest.mark.parametrize("patience", [0, -5])
def test_train_refuses_patience_below_one_and_a_checkpoint_recording_it_loads(
    patience, tmp_path
):
    samples = _template_corpus(5)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=3, seed=3, patience=patience)  # a config may hold it
    with pytest.raises(ValueError, match="patience must be >= 1"):
        train(config, indexed, vocab)
    model = TrainedModel(config, ExtractionConfig(), init_params(config, vocab), vocab)
    save_checkpoint(tmp_path / "m.ckpt", model)
    assert load_checkpoint(tmp_path / "m.ckpt").config.patience == patience


def test_val_fraction_zero_holds_out_nothing_and_validates_on_the_training_samples():
    samples = _template_corpus(8)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=1, seed=3, val_fraction=0.0, learning_rate=0.05)
    result = train(config, indexed, vocab)  # one epoch: the best params are its params
    val_loss, val_top1, val_f1 = _validate(result.params, indexed, vocab)
    (stats,) = result.history
    assert stats.val_loss == pytest.approx(val_loss, rel=1e-6)
    assert (stats.val_top1, stats.val_f1) == pytest.approx((val_top1, val_f1), rel=1e-9)
    assert train_allocating(config, indexed, vocab).history == result.history


def test_zero_epochs_returns_init(tmp_path):
    samples = _template_corpus(5)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=0, seed=3)
    result = train(config, indexed, vocab)
    assert result.history == []
    assert result.best_epoch == 0
    draws = np.random.default_rng(config.seed)  # the params' draw order
    for key, value in result.params.as_dict().items():
        expected = draws.uniform(-0.05, 0.05, size=value.shape).astype(np.float32)
        assert value.dtype == np.float32
        assert np.array_equal(value, expected), key
    model = TrainedModel(config, ExtractionConfig(), result.params, vocab)
    path = tmp_path / "init.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.vocab.target_to_id == vocab.target_to_id


def test_dropout_flag_runs():
    samples = _template_corpus(5)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=2, seed=3, dropout_rate=0.3)
    result = train(config, indexed, vocab)
    assert len(result.history) == 2
    assert all(np.isfinite(s.train_loss) for s in result.history)
    again = train(config, indexed, vocab)
    plain = train(ModelConfig(d_emb=4, epochs=2, seed=3), indexed, vocab)
    for key, value in result.params.as_dict().items():
        assert np.array_equal(value, again.params.as_dict()[key])  # seeded masks
    assert [s.train_loss for s in result.history] != [s.train_loss for s in plain.history]


# --- embeddings and the rename-invariance mechanism ----------------------------


def _extract_single(source, path):
    unit = parse_file(source, path)
    return extract_unit_samples(unit, ExtractionConfig(None, None, 500))[0]


def _obfuscated_sample(source, path, seed):
    unit = parse_file(source, path)
    rewritten, _ = obfuscate_unit(
        unit, ObfuscationScheme("random", random_length=8, seed=seed)
    )
    return _extract_single(rewritten, path)


def test_identical_samples_identical_vectors(tiny_model):
    _, params, vocab, samples = tiny_model
    v1 = _vector(params, vocab.index_sample(samples[0]))
    v2 = _vector(params, vocab.index_sample(samples[0]))
    assert np.array_equal(v1, v2)


def test_fig3_rename_invariance_with_obfuscation():
    plain = [
        _extract_single(fx.FIG3_DONE, "done.java"),
        _extract_single(fx.FIG1_FACTORIAL, "fact.java"),
    ]
    vocab = build_vocabulary(plain, min_count=1)
    config = ModelConfig(d_emb=6, seed=21)
    params = init_params(config, vocab)

    obf_done = _obfuscated_sample(fx.FIG3_DONE, "done.java", seed=1)
    obf_don = _obfuscated_sample(fx.FIG3_DON, "don.java", seed=2)
    v_done = _vector(params, vocab.index_sample(obf_done))
    v_don = _vector(params, vocab.index_sample(obf_don))
    assert np.array_equal(v_done, v_don)

    top_done = predict_name(params, [vocab.index_sample(obf_done)], 3, vocab)
    top_don = predict_name(params, [vocab.index_sample(obf_don)], 3, vocab)
    assert top_done == top_don


def test_fig3_vectors_differ_without_obfuscation():
    plain_done = _extract_single(fx.FIG3_DONE, "done.java")
    vocab = build_vocabulary([plain_done], min_count=1)  # `done` in, `don` out
    config = ModelConfig(d_emb=6, seed=22)
    params = init_params(config, vocab)
    plain_don = _extract_single(fx.FIG3_DON, "don.java")
    v_done = _vector(params, vocab.index_sample(plain_done))
    v_don = _vector(params, vocab.index_sample(plain_don))
    assert not np.allclose(v_done, v_don)


# --- checkpoints ----------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    samples = _template_corpus(8)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=2, batch_size=8, seed=13)
    result = train(config, indexed, vocab)
    model = TrainedModel(config, ExtractionConfig(max_contexts=7, seed=3), result.params, vocab)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.extraction == ExtractionConfig(max_contexts=7, seed=3)
    assert loaded.vocab.token_to_id == vocab.token_to_id
    assert loaded.vocab.targets == vocab.targets
    for key, value in result.params.as_dict().items():  # the weights validation chose
        assert loaded.params.as_dict()[key].dtype == np.float64
        assert np.array_equal(loaded.params.as_dict()[key], value), key


def test_checkpoint_bytes_deterministic(tmp_path):
    samples = _template_corpus(6)
    vocab = build_vocabulary(samples, min_count=1)
    indexed = [vocab.index_sample(s) for s in samples]
    config = ModelConfig(d_emb=4, epochs=2, batch_size=8, seed=17)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, TrainedModel(config, ExtractionConfig(), train(config, indexed, vocab).params, vocab))
    save_checkpoint(b, TrainedModel(config, ExtractionConfig(), train(config, indexed, vocab).params, vocab))
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    samples = _template_corpus(4)
    vocab = build_vocabulary(samples, min_count=1)
    config = ModelConfig(d_emb=4, epochs=0, seed=3)
    path = tmp_path / "model.ckpt"
    params = init_params(config, vocab)
    save_checkpoint(path, TrainedModel(config, ExtractionConfig(), params, vocab))
    return path


@pytest.mark.parametrize("damage", ["cut_tensor", "trailing_byte", "cut_header", "cut_length"])
def test_checkpoint_rejects_damaged_file_naming_it(tmp_path, damage):
    path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    header_end = 12 + struct.unpack_from("<I", raw, 8)[0]
    path.write_bytes(
        {
            "cut_tensor": raw[:-1],
            "trailing_byte": raw + b"\0",
            "cut_header": raw[: header_end - 10],
            "cut_length": raw[:10],
        }[damage]
    )
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_tensor_naming_file(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def rename(header):
        header["tensors"][0]["name"] = "token_embedding"

    rewrite_checkpoint_header(path, rename)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_failed_save_keeps_previous_file(tmp_path):
    path = _saved_checkpoint(tmp_path)
    before = path.read_bytes()
    model = load_checkpoint(path)
    model.params.transform = np.array([["not a float"]], dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_save_refuses_a_non_finite_tensor(tmp_path, value):
    path = _saved_checkpoint(tmp_path)
    before = path.read_bytes()
    model = load_checkpoint(path)
    model.params.target_emb[-1, -1] = value
    with pytest.raises(ValueError, match="target_emb"):
        save_checkpoint(path, model)
    assert path.read_bytes() == before


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_load_refuses_a_non_finite_tensor_naming_file(tmp_path, value):
    path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + struct.pack("<f", value))  # target_emb's last entry
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("table", ["tokens", "paths", "targets"])
def test_checkpoint_load_refuses_a_vocabulary_longer_than_its_tensor_naming_file(tmp_path, table):
    path = _saved_checkpoint(tmp_path)
    rewrite_checkpoint_header(path, lambda header: header["vocab"][table].append("extra"))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_load_refuses_tensor_widths_other_than_d_emb_naming_file(tmp_path):
    path = _saved_checkpoint(tmp_path)

    def widen(header):
        header["model"]["d_emb"] += 1

    rewrite_checkpoint_header(path, widen)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)
