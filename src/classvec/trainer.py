"""Class-conditioned CBOW fine-tuning of pretrained word embeddings.

Every document's class label owns one trainable vector, shared by all
documents of that class. At each center position the class vector is
averaged together with the in-window context word vectors, and the mean
predicts the center word through a negative-sampling objective trained
by SGD. Multilabel documents are presented once per label.

Gradients are applied word2vec-style: the full context-side update is
added to the class vector and to each (trainable) context word vector,
and output vectors exist only for corpus tokens, so rows of the merged
matrix that never occur in the corpus come out bit-identical.

All training arithmetic runs in 64-bit; the exported matrix is cast back
to 32-bit floats. The arithmetic of one label pass runs in the compiled
kernel of ``_kernel.c`` when it builds on this machine, else in the numpy
reference pass it is tested against; Python draws every random or
scheduled value for both.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernel
from .classifier import sigmoid
from .corpus import Document, LabeledCorpus
from .embedding_io import EmbeddingSet
from .vocab import MergedModel, Vocabulary, build_vocab

logger = logging.getLogger(__name__)

# attempts to draw a noise word different from the center before giving up
NS_RESAMPLE_ATTEMPTS = 8

# rng stream label for the per-epoch document shuffle, kept separate from
# the update stream so `shuffle=False` runs are unaffected by its existence
_SHUFFLE_STREAM = 0x5F


@dataclass(frozen=True)
class FinetuneConfig:
    """Hyperparameters of the fine-tuning run."""

    epochs: int = 10
    window: int = 5
    negative: int = 5
    alpha0: float = 0.025
    alpha_min: float = 0.0001
    seed: int = 1
    subsample_threshold: float | None = None
    shuffle: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative < 1:
            raise ValueError("negative must be >= 1")
        if not (self.alpha0 > self.alpha_min > 0):
            raise ValueError("need alpha0 > alpha_min > 0")
        if self.subsample_threshold is not None and self.subsample_threshold <= 0:
            raise ValueError("subsample_threshold must be positive when set")


@dataclass(frozen=True)
class ClassVectors:
    """One trained vector per class, in corpus class order."""

    classes: tuple[str, ...]
    matrix: np.ndarray  # |C| x m, float32

    def __post_init__(self):
        if self.matrix.shape[0] != len(self.classes):
            raise ValueError("one vector per class required")
        if not np.isfinite(self.matrix).all():
            raise ValueError("class vectors contain non-finite values")

    def vector(self, name: str) -> np.ndarray:
        return self.matrix[self.classes.index(name)]


@dataclass
class TrainState:
    """Mutable state shared by every update of one fine-tuning run.

    ``input_matrix``/``class_vectors`` are 64-bit working copies;
    ``output_matrix`` has one row per corpus token only, and
    ``noise_table`` is the cumulative unigram^0.75 distribution over
    those same rows. ``trainable`` masks which input rows updates may
    touch. ``alpha`` tracks the last learning rate used. ``kernel`` is the
    compiled label pass, or None to train with the numpy reference pass.
    """

    cfg: FinetuneConfig
    input_matrix: np.ndarray   # |V ∪ V_T| x m, float64
    output_matrix: np.ndarray  # |V_T| x m, float64
    class_vectors: np.ndarray  # |C| x m, float64
    noise_table: np.ndarray    # |V_T| cumulative probabilities
    alpha: float
    rng: np.random.Generator
    trainable: np.ndarray      # bool per input row
    classes: tuple[str, ...]
    class_index: dict[str, int]
    input_index: dict[str, int]
    output_index: dict[str, int]
    keep_prob: np.ndarray | None  # per-output-row keep probability, or None
    positions_done: int = 0
    total_positions: int = 0
    kernel: Callable[..., tuple[float, int]] | None = None


def build_noise_table(vocab: Vocabulary) -> np.ndarray:
    """Cumulative noise distribution over corpus tokens, P ∝ freq^0.75.

    Entry ``i`` holds the probability mass of vocabulary rows ``0..i``;
    the final entry is 1 within 1e-9.
    """
    probs = vocab.frequencies ** 0.75
    probs /= probs.sum()
    return np.cumsum(probs)


def lr_schedule(
    cfg: FinetuneConfig, progress: float | np.ndarray
) -> float | np.ndarray:
    """Linearly decayed learning rate, floored at ``alpha_min``.

    ``progress`` is a fraction of all positions, or an array of them.
    """
    if np.any((progress < 0.0) | (progress > 1.0)):
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return np.maximum(cfg.alpha_min, cfg.alpha0 * (1.0 - progress))


def ns_loss_and_grads(
    context_mean: np.ndarray,
    center: int,
    negatives: list[int] | np.ndarray,
    state: TrainState,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-sampling loss and gradients at one position.

    L = -log sigma(u_c . h) - sum_j log sigma(-u_j . h) with h the
    context mean, u_c the center's output vector and u_j the negatives'.
    Returns ``(loss, dL/dh, dL/du)`` where the gradient rows of ``dL/du``
    align with ``[center, *negatives]``.
    """
    rows = np.empty(1 + len(negatives), dtype=np.int64)
    rows[0] = center
    rows[1:] = negatives
    u = state.output_matrix[rows]
    z = u @ context_mean
    # -log sigma(z) = log(1 + exp(-z)), stable in both tails
    loss = float(np.logaddexp(0.0, -z[0]) + np.logaddexp(0.0, z[1:]).sum())
    err = sigmoid(z)
    err[0] -= 1.0  # dL/dz_i: sigma - 1 for the center, sigma for negatives
    grad_h = err @ u
    grad_u = np.outer(err, context_mean)
    return loss, grad_h, grad_u


def _sample_negatives(
    noise_table: np.ndarray, centers: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Negatives for a block of positions, from pre-drawn uniforms.

    ``uniforms`` is ``n x negative x NS_RESAMPLE_ATTEMPTS``; each draw maps
    to a noise row by binary search over the cumulative ``noise_table``
    (clamped to the last row). Slot ``k`` of position ``p`` takes the first
    of its draws that differs from ``centers[p]``, or -1 when every attempt
    hit the center. Returns ``n x negative`` row indices.
    """
    draws = np.minimum(
        np.searchsorted(noise_table, uniforms, side="right"), len(noise_table) - 1
    )
    miss = draws != centers[:, None, None]
    first = np.take_along_axis(draws, miss.argmax(axis=2)[..., None], axis=2)[..., 0]
    return np.where(miss.any(axis=2), first, -1)


def _reference_pass(
    state: TrainState,
    in_idx: np.ndarray,
    out_idx: np.ndarray,
    label_id: int,
    alphas: np.ndarray,
    uniforms: np.ndarray,
) -> tuple[float, int]:
    """Train one label pass position by position in numpy.

    The reference for the compiled pass in ``_kernel.c``, built on the
    gradient oracle :func:`ns_loss_and_grads`. Returns the summed loss and
    the number of positions that got fewer than ``negative`` negatives.
    """
    window = state.cfg.window
    inp = state.input_matrix
    cls = state.class_vectors
    trainable = state.trainable
    negatives = _sample_negatives(state.noise_table, out_idx, uniforms)
    loss_sum = 0.0
    for p in range(len(in_idx)):
        alpha = alphas[p]
        lo = max(0, p - window)
        hi = min(len(in_idx), p + window + 1)
        ctx = np.concatenate([in_idx[lo:p], in_idx[p + 1:hi]])
        h = (cls[label_id] + inp[ctx].sum(axis=0)) / (1 + len(ctx))
        rows = np.concatenate([out_idx[p:p + 1], negatives[p][negatives[p] >= 0]])
        loss, grad_h, grad_u = ns_loss_and_grads(h, rows[0], rows[1:], state)
        loss_sum += loss
        np.subtract.at(state.output_matrix, rows, alpha * grad_u)
        # word2vec convention: the full context-side step goes to the class
        # vector and to every trainable context word vector
        neu1e = -alpha * grad_h
        cls[label_id] += neu1e
        for ci in ctx:
            if trainable[ci]:
                inp[ci] += neu1e
    return loss_sum, int((negatives < 0).any(axis=1).sum())


def _train_label_pass(
    state: TrainState,
    in_idx: np.ndarray,
    out_idx: np.ndarray,
    label_id: int,
) -> tuple[float, int, int]:
    """One pass over a document's positions under one class vector.

    Draws everything random or scheduled for the pass (subsampling mask,
    per-position learning rates, the uniforms behind the negatives), then
    hands the arithmetic to the compiled kernel or the numpy reference.
    Returns the summed loss, the positions trained, and the positions short
    of negatives.
    """
    cfg, rng = state.cfg, state.rng
    if state.keep_prob is not None:
        keep = rng.random(len(in_idx)) < state.keep_prob[out_idx]
        # discarded positions still advance the lr schedule
        state.positions_done += int(len(in_idx) - keep.sum())
        in_idx, out_idx = in_idx[keep], out_idx[keep]
    n = len(in_idx)
    alphas = lr_schedule(
        cfg, (state.positions_done + np.arange(n)) / state.total_positions
    )
    uniforms = rng.random((n, cfg.negative, NS_RESAMPLE_ATTEMPTS))
    label_pass = state.kernel or _reference_pass
    loss, shortfall = label_pass(state, in_idx, out_idx, label_id, alphas, uniforms)
    state.positions_done += n
    if n:
        state.alpha = float(alphas[-1])
    return loss, n, shortfall


def _doc_arrays(
    state: TrainState, doc: Document
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    try:
        in_idx = np.fromiter(
            (state.input_index[t] for t in doc.tokens), np.int64, len(doc.tokens)
        )
    except KeyError as e:
        raise ValueError(
            f"corpus token {e.args[0]!r} is missing from the model; "
            "merge() must precede finetune()"
        ) from None
    out_idx = np.fromiter(
        (state.output_index[t] for t in doc.tokens), np.int64, len(doc.tokens)
    )
    return in_idx, out_idx, [state.class_index[l] for l in doc.labels]


def _train_mapped(
    state: TrainState, in_idx: np.ndarray, out_idx: np.ndarray, label_ids: list[int]
) -> tuple[float, int, int]:
    passes = [_train_label_pass(state, in_idx, out_idx, li) for li in label_ids]
    return tuple(map(sum, zip(*passes)))


def train_document(state: TrainState, doc: Document) -> tuple[float, int, int]:
    """Apply one document's updates (one pass per label) to ``state``.

    Returns the summed negative-sampling loss, the positions trained, and
    the positions that trained with fewer than ``negative`` negatives.
    """
    return _train_mapped(state, *_doc_arrays(state, doc))


def init_state(
    model: MergedModel, corpus: LabeledCorpus, cfg: FinetuneConfig
) -> TrainState:
    """Build the initial training state for ``finetune``.

    Consumes the head of the seeded rng stream for the class-vector
    initialization (uniform [-0.5/m, +0.5/m), the same scheme used for
    unseen words).
    """
    vocab = build_vocab(corpus)
    emb = model.embedding
    missing = [t for t in vocab.entries if t not in emb.index]
    if missing:
        raise ValueError(
            f"corpus tokens missing from the model (merge() must precede "
            f"finetune()): {missing[:5]!r}"
        )
    m = emb.dim
    rng = np.random.default_rng(cfg.seed)
    classes = tuple(corpus.classes)
    class_vectors = (rng.random((len(classes), m)) - 0.5) / m
    keep_prob = None
    if cfg.subsample_threshold is not None:
        # word2vec-style downsampling of frequent tokens
        t = cfg.subsample_threshold
        rel = vocab.frequencies / vocab.total_tokens
        keep_prob = np.minimum(1.0, np.sqrt(t / rel) + t / rel)
    total = cfg.epochs * sum(
        len(d.tokens) * len(d.labels) for d in corpus.docs
    )
    return TrainState(
        cfg=cfg,
        input_matrix=emb.matrix.astype(np.float64),
        output_matrix=np.zeros((len(vocab), m), dtype=np.float64),
        class_vectors=class_vectors,
        noise_table=build_noise_table(vocab),
        alpha=cfg.alpha0,
        rng=rng,
        trainable=model.trainable_mask,
        classes=classes,
        class_index={c: i for i, c in enumerate(classes)},
        input_index=emb.index,
        output_index={t: idx for t, (idx, _) in vocab.entries.items()},
        keep_prob=keep_prob,
        positions_done=0,
        total_positions=total,
    )


def _check_finite(state: TrainState, epoch: int) -> None:
    if not (
        np.isfinite(state.input_matrix).all()
        and np.isfinite(state.output_matrix).all()
        and np.isfinite(state.class_vectors).all()
    ):
        raise FloatingPointError(f"non-finite values after epoch {epoch}")


def finetune(
    model: MergedModel, corpus: LabeledCorpus, cfg: FinetuneConfig = FinetuneConfig()
) -> tuple[EmbeddingSet, ClassVectors]:
    """Run the full fine-tuning loop and export the tuned embeddings.

    Returns the tuned input matrix as an :class:`EmbeddingSet` over the
    merged vocabulary (class vectors are excluded from it) together with
    the per-class vectors. Bit-reproducible for a fixed seed. Trains with
    the compiled label pass, built on first use, or with the numpy
    reference pass where no C compiler is available.
    """
    state = init_state(model, corpus, cfg)
    state.kernel = _kernel.load()
    shuffle_rng = np.random.default_rng((cfg.seed, _SHUFFLE_STREAM))
    order = np.arange(len(corpus.docs))
    # token -> row mapping depends only on the document, so do it once per run
    mapped = [_doc_arrays(state, doc) for doc in corpus.docs]
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            shuffle_rng.shuffle(order)
        started, done_before = time.perf_counter(), state.positions_done
        docs = [_train_mapped(state, *mapped[di]) for di in order]
        loss, trained, shortfall = map(sum, zip(*docs))
        seconds = time.perf_counter() - started
        _check_finite(state, epoch)
        logger.info(
            "epoch %d/%d done: %d/%d positions (%d discarded, %d short of "
            "negatives), mean loss %.4f, alpha %.6f, %.0f positions/s",
            epoch + 1, cfg.epochs, state.positions_done, state.total_positions,
            state.positions_done - done_before - trained, shortfall,
            loss / max(trained, 1), state.alpha, trained / max(seconds, 1e-9),
        )
    tuned = EmbeddingSet(
        model.embedding.words, state.input_matrix.astype(np.float32)
    )
    class_vectors = ClassVectors(
        state.classes, state.class_vectors.astype(np.float32)
    )
    return tuned, class_vectors
