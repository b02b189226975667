"""Attention-based method-name prediction network.

Per context i of a method: c_i = [tokenEmb[s_i]; pathEmb[p_i]; tokenEmb[t_i]],
combined h_i = tanh(W c_i), attention a_i = softmax_i(h_i . a), code vector
v = sum_i a_i h_i, scores = targetEmb v. The code vector doubles as the
method embedding. Training and inference run the same forward pass
(_forward_run) over stacked runs of samples. Gradients are exact and
finite-difference checked.

Training runs in float32, the precision the checkpoint stores: init_params
rounds its float64 draws to float32, and every array train allocates takes
the params' dtype. forward and loss_and_grads compute in the dtype of the
params they are given. load_checkpoint returns float64 params, so inference
runs in float64 on exactly the weights validation chose. On the same
float32-representable params, the float32 step's loss is within 1e-5 of the
float64 step's (relative), and each gradient within 1e-4 of its largest
entry; the worst seen over random batches was 4.5e-7 and 6.4e-6.

A checkpoint stores the vocabulary's id-ordered lists as they are
(pathctx.Vocabulary), and loading checks that every tensor is finite and
shaped by that vocabulary and d_emb.

A train's checkpoint and manifest are byte-identical at OPENBLAS_NUM_THREADS
1 and 2 and at PYTHONHASHSEED 0 and 123 (see REDUCE_BLOCK). This was checked
on one host (2 cores, OpenBLAS 0.3.31), not across BLAS builds or CPUs.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .pathctx import UNK_ID, ExtractionConfig, IndexedSample, MethodSample, Vocabulary
from .util import atomic_open

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PVECCKP1"


@dataclass(frozen=True)
class ModelConfig:
    d_emb: int = 128  # token/path embedding width; code width is 3x this
    max_contexts: int = 200
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 1
    val_fraction: float = 0.1
    patience: int = 3
    dropout_rate: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999

    @property
    def d_code(self) -> int:
        return 3 * self.d_emb

    def __post_init__(self) -> None:
        if self.d_emb < 1:
            raise ValueError("d_emb must be >= 1")
        if self.max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in [0, 1)")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")


@dataclass
class ModelParams:
    token_emb: np.ndarray  # (n_tokens, d_emb)
    path_emb: np.ndarray  # (n_paths, d_emb)
    transform: np.ndarray  # (d_code, d_code)
    attention: np.ndarray  # (d_code,)
    target_emb: np.ndarray  # (n_targets, d_code)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {
            "token_emb": self.token_emb,
            "path_emb": self.path_emb,
            "transform": self.transform,
            "attention": self.attention,
            "target_emb": self.target_emb,
        }

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.as_dict().items()})

    @property
    def d_code(self) -> int:
        return self.transform.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.transform.dtype


@dataclass
class ForwardResult:
    code_vectors: np.ndarray  # (n_samples, d_code)
    target_probs: np.ndarray  # (n_samples, n_targets)
    attention: list[np.ndarray]  # per sample, one weight per context


def _param_shapes(config: ModelConfig, vocab: Vocabulary) -> dict[str, tuple[int, ...]]:
    """The shape of each ModelParams tensor, in ModelParams order."""
    d, dc = config.d_emb, config.d_code
    return {
        "token_emb": (vocab.n_tokens, d),
        "path_emb": (vocab.n_paths, d),
        "transform": (dc, dc),
        "attention": (dc,),
        "target_emb": (vocab.n_targets, dc),
    }


def init_params(config: ModelConfig, vocab: Vocabulary) -> ModelParams:
    """Seeded uniform(-0.05, 0.05) initialization, in _param_shapes order,
    each float64 draw rounded to float32, the precision training runs in."""
    rng = np.random.default_rng(config.seed)
    return ModelParams(**{
        name: rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)
        for name, shape in _param_shapes(config, vocab).items()
    })


# Consecutive samples are stacked into runs of at most this many contexts, so
# that a run's (contexts x d_code) temporaries stay in cache; a longer sample
# is a run by itself.
RUN_CONTEXTS = 512

# The training step's two long sums, the transform gradient over a run's
# contexts and the code-vector gradient over the targets, are taken in
# blocks of at most this many terms: OpenBLAS splits a longer sum
# differently at different thread counts, which changes its last bits.
REDUCE_BLOCK = 256


def _runs(batch: list[IndexedSample]) -> list[list[IndexedSample]]:
    """Cut a batch into consecutive runs of whole samples of at most
    RUN_CONTEXTS contexts in total."""
    runs: list[list[IndexedSample]] = []
    size = 0
    for sample in batch:
        n = len(sample)
        if n == 0:
            raise ValueError("sample has no contexts")
        if not runs or size + n > RUN_CONTEXTS:
            runs.append([])
            size = 0
        runs[-1].append(sample)
        size += n
    return runs


def _scatter_rows(
    table: np.ndarray, index: np.ndarray, rows: np.ndarray, source: np.ndarray
) -> None:
    """table[index[i]] += rows[source[i]] for every i: one stable sort and one
    sum per distinct index, in place of np.add.at's per-element loop."""
    order = np.argsort(index, kind="stable")
    index = index[order]
    firsts = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
    table[index[firsts]] += np.add.reduceat(rows[source[order]], firsts, axis=0)


def _add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a @ b, one product per block of at most REDUCE_BLOCK along
    the summed axis, added in order."""
    for lo in range(0, a.shape[1], REDUCE_BLOCK):
        out += a[:, lo : lo + REDUCE_BLOCK] @ b[lo : lo + REDUCE_BLOCK]


def _work_arrays(params: ModelParams, rows: int) -> tuple:
    """Work arrays of `rows` contexts (E, tanh, dropout, weighted sum /
    gradient) in the params' dtype, reused by every run they hold: fresh
    ones per run would cost page faults that outweigh the arithmetic."""
    d, dc = params.token_emb.shape[1], params.d_code
    return tuple(np.empty((rows, width), params.dtype) for width in (3 * d, dc, dc, dc))


def _longest_run(runs: list[list[IndexedSample]]) -> int:
    return max((sum(len(sample) for sample in run) for run in runs), default=0)


@dataclass
class _Run:
    """The forward pass of one run, as the backward pass reads it."""

    offsets: np.ndarray  # first context of each sample
    owner: np.ndarray  # sample row of each context
    starts: np.ndarray
    paths: np.ndarray
    ends: np.ndarray
    E: np.ndarray  # gathered context embeddings, in the first work array
    H_raw: np.ndarray  # tanh(E T^T) before dropout, in the second
    H: np.ndarray  # after dropout (H_raw itself without it)
    mask: np.ndarray | None
    alpha: np.ndarray  # attention, a softmax over each sample's contexts
    V: np.ndarray  # code vectors, one row per sample
    scores: np.ndarray
    top: np.ndarray  # row maxima of scores
    exp_shifted: np.ndarray  # exp(scores - top)
    sum_exp: np.ndarray


def _forward_run(
    params: ModelParams,
    run: list[IndexedSample],
    work: tuple,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> _Run:
    """One gather, the tanh product, a segment softmax of the attention
    logits over each sample and the target scores of one run."""
    d, dc = params.token_emb.shape[1], params.d_code
    E_buf, raw_buf, H_buf, G_buf = work
    counts = np.array([len(sample) for sample in run])
    n = int(counts.sum())
    offsets = np.r_[0, np.cumsum(counts[:-1])]
    owner = np.repeat(np.arange(len(run)), counts)
    starts = np.concatenate([sample.starts for sample in run])
    paths = np.concatenate([sample.paths for sample in run])
    ends = np.concatenate([sample.ends for sample in run])

    E = E_buf[:n]
    E[:, :d] = params.token_emb[starts]
    E[:, d : 2 * d] = params.path_emb[paths]
    E[:, 2 * d :] = params.token_emb[ends]
    H_raw = np.matmul(E, params.transform.T, out=raw_buf[:n])
    np.tanh(H_raw, out=H_raw)
    if dropout_rate > 0.0:
        mask = (rng.random((n, dc)) >= dropout_rate) / (1.0 - dropout_rate)
        mask = mask.astype(params.dtype, copy=False)
        H = np.multiply(H_raw, mask, out=H_buf[:n])
    else:
        mask = None
        H = H_raw

    e = H @ params.attention
    alpha = np.exp(e - np.maximum.reduceat(e, offsets)[owner])
    alpha /= np.add.reduceat(alpha, offsets)[owner]
    weighted = np.multiply(H, alpha[:, None], out=G_buf[:n])
    V = np.add.reduceat(weighted, offsets, axis=0)
    scores = V @ params.target_emb.T
    top = scores.max(axis=1)
    exp_shifted = np.exp(scores - top[:, None])
    sum_exp = exp_shifted.sum(axis=1)
    return _Run(
        offsets, owner, starts, paths, ends, E, H_raw, H, mask, alpha, V,
        scores, top, exp_shifted, sum_exp,
    )


def forward(
    params: ModelParams, samples: list[IndexedSample], work: tuple | None = None
) -> ForwardResult:
    """Code vectors, target probabilities and attention of every sample, in
    the stacked runs of the training step (without dropout). A sample's
    values depend, by rounding only, on which samples share its run: the
    matrix products block by row count. `work` (from _work_arrays) must
    hold the longest run; by default it is allocated for this call. The
    outputs take the params' dtype."""
    runs = _runs(samples)
    if work is None:
        work = _work_arrays(params, _longest_run(runs))
    code_vectors = np.empty((len(samples), params.d_code), params.dtype)
    target_probs = np.empty((len(samples), len(params.target_emb)), params.dtype)
    attention: list[np.ndarray] = []
    lo = 0
    for run in runs:
        r = _forward_run(params, run, work)
        hi = lo + len(run)
        code_vectors[lo:hi] = r.V
        np.divide(r.exp_shifted, r.sum_exp[:, None], out=target_probs[lo:hi])
        attention.extend(np.split(r.alpha, r.offsets[1:]))
        lo = hi
    return ForwardResult(code_vectors, target_probs, attention)


def predict_name(
    params: ModelParams, samples: list[IndexedSample], k: int, vocab: Vocabulary
) -> list[list[tuple[str, float]]]:
    """Top-k (name, probability) pairs of each sample, descending, ties by
    target id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    probs = forward(params, samples).target_probs
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    return [
        [(vocab.targets[i], float(row[i])) for i in top]
        for row, top in zip(probs, order)
    ]


def loss_and_grads(
    params: ModelParams,
    batch: list[IndexedSample],
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    grads: dict[str, np.ndarray] | None = None,
    work: tuple | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch plus exact gradients.

    The contexts of consecutive samples are stacked into runs (see
    RUN_CONTEXTS); each run takes the forward pass of _forward_run, two
    more matrix products and one sorted scatter per embedding table.
    Dropout masks are drawn per run in context order, the same stream as
    one draw per sample. Given `grads` (arrays shaped as the params), the
    gradients go there, zeroed first; given `work` (from _work_arrays,
    holding the longest run), the runs use it. Either is otherwise
    allocated for this call.
    """
    if not batch:
        raise ValueError("empty batch")
    runs = _runs(batch)
    if dropout_rate > 0.0 and rng is None:
        raise ValueError("dropout requires an rng")
    d = params.token_emb.shape[1]
    if grads is None:
        grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    else:
        for g in grads.values():
            g.fill(0.0)
    total_loss = 0.0
    scale = 1.0 / len(batch)
    if work is None:
        work = _work_arrays(params, _longest_run(runs))
    H_buf, G_buf = work[2:]

    for run in runs:
        r = _forward_run(params, run, work, dropout_rate, rng)
        n = len(r.owner)
        rows = np.arange(len(run))
        targets = np.array([sample.target_id for sample in run])
        picked = r.scores[rows, targets]
        for term in ((np.log(r.sum_exp) + r.top - picked) * scale).tolist():
            total_loss += term  # in batch order, as the per-sample sum

        ds = r.exp_shifted / r.sum_exp[:, None]
        ds[rows, targets] -= 1.0
        ds *= scale
        grads["target_emb"] += ds.T @ r.V
        dV = np.zeros_like(r.V)  # dL/dv of each sample
        _add_product(dV, ds, params.target_emb)
        # dL/dv of each context's sample; owner is in range, and mode="clip"
        # lets take write straight into the work array
        G = np.take(dV, r.owner, axis=0, out=G_buf[:n], mode="clip")

        H, alpha, offsets, owner = r.H, r.alpha, r.offsets, r.owner
        q = np.einsum("ij,ij->i", H, G)
        de = alpha * (q - np.add.reduceat(alpha * q, offsets)[owner])
        grads["attention"] += H.T @ de
        # H is not read again: H_buf (and, below, H_raw) become scratch
        dH = np.multiply(G, alpha[:, None], out=G)
        dH += np.multiply(de[:, None], params.attention, out=H_buf[:n])
        if r.mask is not None:
            dH *= r.mask
        slope = np.multiply(r.H_raw, r.H_raw, out=r.H_raw)
        dU = np.multiply(dH, np.subtract(1.0, slope, out=slope), out=dH)
        _add_product(grads["transform"], dU.T, r.E)
        # row 3i + k of dE is the gradient of context i's start (k = 0),
        # path (k = 1) or end (k = 2) embedding
        dE = np.matmul(dU, params.transform, out=r.E).reshape(3 * n, d)
        i3 = 3 * np.arange(n)
        _scatter_rows(
            grads["token_emb"], np.concatenate([r.starts, r.ends]), dE, np.r_[i3, i3 + 2]
        )
        _scatter_rows(grads["path_emb"], r.paths, dE, i3 + 1)

    return total_loss, grads


# --- training ----------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_top1: float
    val_f1: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int


def _validate(
    params: ModelParams,
    samples: list[IndexedSample],
    vocab: Vocabulary,
    work: tuple | None = None,
) -> tuple[float, float, float]:
    from .evaluate import name_prediction_f1

    probs = forward(params, samples, work).target_probs
    targets = np.array([sample.target_id for sample in samples])
    picked = np.maximum(probs[np.arange(len(samples)), targets], np.finfo(probs.dtype).tiny)
    preds = np.argmax(probs, axis=1)
    # a method whose name is out of the vocabulary was not named
    hits = int(np.count_nonzero((preds == targets) & (targets != UNK_ID)))
    pairs = [
        (sample.target_name, vocab.targets[pred])
        for sample, pred in zip(samples, preds.tolist())
    ]
    metrics = name_prediction_f1(pairs)
    return float(np.mean(-np.log(picked))), hits / len(samples), metrics.f1


# Elements per block of Adam's scratch: training allocates one block,
# whatever the size of the model.
ADAM_CHUNK = 1 << 15


def adam_update(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch: np.ndarray,
    step: int,
    config: ModelConfig,
) -> None:
    """One Adam step on p, in place. Updates the moments m and v and
    overwrites scratch and the gradient g; each value is computed by the same
    operations, in the same order, as

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        p -= lr * (m / (1-b1**step)) / (sqrt(v / (1-b2**step)) + eps)

    p, g, m and v are C-contiguous arrays of one shape, updated in chunks
    of scratch.size elements; every operation is elementwise, so the chunk
    size does not change a bit.
    """
    b1, b2, eps = config.adam_beta1, config.adam_beta2, 1e-8
    if not all(a.flags.c_contiguous for a in (p, g, m, v)):
        raise ValueError("adam_update needs C-contiguous arrays")
    flat = [a.reshape(-1) for a in (p, g, m, v)]
    scratch = scratch.reshape(-1)
    for lo in range(0, p.size, scratch.size):
        p_, g_, m_, v_ = (a[lo : lo + scratch.size] for a in flat)
        s_ = scratch[: len(p_)]
        m_ *= b1
        m_ += np.multiply(g_, 1 - b1, out=s_)
        v_ *= b2
        v_ += np.multiply(np.multiply(g_, 1 - b2, out=s_), g_, out=s_)
        m_hat = np.divide(m_, 1 - b1**step, out=s_)
        v_hat = np.divide(v_, 1 - b2**step, out=g_)
        denom = np.add(np.sqrt(v_hat, out=v_hat), eps, out=v_hat)
        p_ -= np.divide(np.multiply(m_hat, config.learning_rate, out=m_hat), denom, out=m_hat)


def train(
    config: ModelConfig, indexed: list[IndexedSample], vocab: Vocabulary
) -> TrainResult:
    """Minibatch Adam on the name-prediction objective.

    Takes samples already indexed by `vocab`. Splits them into
    train/validation with the config seed, keeps the params of the epoch
    with the best validation subtoken F1 and stops early once F1 has not
    improved for `patience` epochs. Deterministic for a fixed seed. Every
    buffer (gradients, Adam's moments and scratch, the best params, the
    run work arrays) is allocated once per call, in float32 like the
    params. A validation method whose name is <unk> counts as a top-1 miss.
    """
    if not indexed:
        raise ValueError("no training samples")
    if config.patience < 1:  # here, not in ModelConfig: a checkpoint may record 0
        raise ValueError("patience must be >= 1")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(indexed))
    n_val = 0  # with no held-out sample, validation reads the training samples
    if config.val_fraction > 0:
        n_val = min(len(indexed) - 1, max(1, round(len(indexed) * config.val_fraction)))
    val = [indexed[i] for i in order[:n_val]]
    tr = [indexed[i] for i in order[n_val:]]
    if not val:
        val = tr

    params = init_params(config, vocab)
    best_params = params.copy()
    best_f1 = -1.0
    best_epoch = 0
    stale = 0
    history: list[EpochStats] = []

    grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    adam_m = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    scratch = np.empty(ADAM_CHUNK, params.dtype)
    # A run is at most RUN_CONTEXTS contexts or one longer sample.
    longest = max(len(sample) for sample in indexed)
    work = _work_arrays(
        params, min(max(RUN_CONTEXTS, longest), sum(len(sample) for sample in indexed))
    )
    step = 0

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(tr))
        epoch_losses = []
        for lo in range(0, len(tr), config.batch_size):
            batch = [tr[i] for i in perm[lo : lo + config.batch_size]]
            loss, _ = loss_and_grads(
                params, batch, dropout_rate=config.dropout_rate, rng=rng,
                grads=grads, work=work,
            )
            epoch_losses.append(loss)
            step += 1
            for key, p in params.as_dict().items():
                adam_update(p, grads[key], adam_m[key], adam_v[key], scratch, step, config)

        val_loss, val_top1, val_f1 = _validate(params, val, vocab, work)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_loss=val_loss,
                val_top1=val_top1,
                val_f1=val_f1,
            )
        )
        logger.info(
            "epoch %d: train_loss=%.4f val_loss=%.4f val_top1=%.3f val_f1=%.3f",
            epoch, history[-1].train_loss, val_loss, val_top1, val_f1,
        )
        if val_f1 > best_f1:
            best_f1 = val_f1
            for key, value in params.as_dict().items():
                np.copyto(getattr(best_params, key), value)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    return TrainResult(params=best_params, history=history, best_epoch=best_epoch)


# --- trained-model container and checkpoint IO --------------------------------


@dataclass
class TrainedModel:
    config: ModelConfig
    extraction: ExtractionConfig
    params: ModelParams
    vocab: Vocabulary

    def embed(self, samples: list[MethodSample]) -> np.ndarray:
        """Code vectors of samples, one row each, from one forward call."""
        return forward(self.params, [self.vocab.index_sample(s) for s in samples]).code_vectors


def save_checkpoint(path: str | Path, model: TrainedModel) -> None:
    """Self-describing binary: magic, JSON header, float32 LE tensors,
    written atomically. A tensor that is not finite in float32 raises
    ValueError, and nothing is written."""
    tensors = {k: np.ascontiguousarray(v, dtype="<f4") for k, v in model.params.as_dict().items()}
    for name, value in tensors.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: tensor {name!r} holds NaN or infinity; not saved")
    header = {
        "format": 1,
        "model": asdict(model.config),
        "extraction": asdict(model.extraction),
        "vocab": asdict(model.vocab),
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for value in tensors.values():
            fh.write(value.tobytes())


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a checkpoint written by save_checkpoint. A file that is not one,
    whose header, tensor bytes or length do not agree, whose tensor shapes
    are not those of its vocabulary and d_emb, or whose tensors hold NaN or
    infinity, raises ValueError naming it."""
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a pathvec checkpoint")
    offset = len(CHECKPOINT_MAGIC) + 4
    if len(raw) < offset:
        raise ValueError(f"{path}: checkpoint ends inside its header length")
    (header_len,) = struct.unpack_from("<I", raw, offset - 4)
    if len(raw) < offset + header_len:
        raise ValueError(f"{path}: checkpoint ends inside its {header_len}-byte header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON
        raise ValueError(f"{path}: unreadable checkpoint header: {exc}") from exc
    offset += header_len
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format") != 1:
        raise ValueError(f"{path}: unsupported checkpoint format {header.get('format')}")
    try:
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{path}: checkpoint header does not list each tensor's name and shape"
        ) from exc

    arrays = {}
    for name, shape in specs:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if len(raw) < offset + count * 4:
            raise ValueError(f"{path}: checkpoint ends inside tensor {name!r} of shape {shape}")
        data = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        offset += count * 4
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: tensor {name!r} holds NaN or infinity")
        arrays[name] = data.reshape(shape).astype(np.float64)
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} bytes trail the checkpoint tensors")

    try:
        model = TrainedModel(
            config=ModelConfig(**header["model"]),
            extraction=ExtractionConfig(**header["extraction"]),
            params=ModelParams(**arrays),
            vocab=Vocabulary(**header["vocab"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: checkpoint header does not describe a model: {exc}") from exc
    for name, shape in _param_shapes(model.config, model.vocab).items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}; "
                f"the vocabulary and d_emb = {model.config.d_emb} make it {shape}"
            )
    return model

