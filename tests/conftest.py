import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # fixtures_java, oracles, synth

from pathvec.java import parse_file
from pathvec.model import ModelConfig, ModelParams, init_params
from pathvec.pathctx import MethodSample, PathContext

import fixtures_java as fx
from oracles import build_vocabulary


DEFAULT_RECURSION_LIMIT = sys.getrecursionlimit()


def call_at_depth(frames, fn, *args):
    """fn(*args), called `frames` interpreter frames deeper than this call,
    under the interpreter's default recursion limit (Hypothesis raises the
    limit while it runs a test)."""
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        return _call_deeper(frames, fn, args)
    finally:
        sys.setrecursionlimit(raised)


def _call_deeper(frames, fn, args):
    if frames:
        return _call_deeper(frames - 1, fn, args)
    return fn(*args)


@pytest.fixture
def fig4_unit():
    return parse_file(fx.FIG4_ORIGINAL, "Holder.java")


@pytest.fixture
def fixture_unit():
    return parse_file(fx.FIXTURE_METHODS, "Mixed.java")


def random_samples(rng: np.random.Generator, n_samples=8, n_tokens=5, n_paths=4,
                   n_contexts=4, targets=("alpha", "beta", "gamma")):
    """Small random method samples for model tests."""
    samples = []
    for i in range(n_samples):
        contexts = [
            PathContext(
                f"tok{rng.integers(0, n_tokens)}",
                f"path{rng.integers(0, n_paths)}",
                f"tok{rng.integers(0, n_tokens)}",
            )
            for _ in range(int(rng.integers(1, n_contexts + 1)))
        ]
        name = targets[i % len(targets)]
        samples.append(MethodSample(name, contexts, 3))
    return samples


def params_as(params: ModelParams, dtype) -> ModelParams:
    """A copy of the params in dtype. load_checkpoint returns a checkpoint's
    float32 tensors in float64, the precision inference runs in."""
    return ModelParams(**{k: v.astype(dtype) for k, v in params.as_dict().items()})


@pytest.fixture
def tiny_model():
    """Random-init params over a small vocabulary, in float64, plus the
    samples."""
    rng = np.random.default_rng(11)
    samples = random_samples(rng)
    vocab = build_vocabulary(samples, min_count=1)
    config = ModelConfig(d_emb=6, epochs=1, seed=5)
    params = params_as(init_params(config, vocab), np.float64)
    return config, params, vocab, samples


def rewrite_checkpoint_header(path, edit):
    """Rewrite the JSON header of the checkpoint at `path` in place:
    edit(header) changes the parsed header, or returns the JSON value to
    write instead; the tensor bytes are kept."""
    raw = Path(path).read_bytes()
    header_end = 12 + struct.unpack_from("<I", raw, 8)[0]
    header = json.loads(raw[12:header_end])
    replaced = edit(header)
    blob = json.dumps(header if replaced is None else replaced).encode("utf-8")
    Path(path).write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[header_end:])
