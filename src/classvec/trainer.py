"""Class-conditioned CBOW fine-tuning of pretrained word embeddings.

Every document's class label owns one trainable vector, shared by all
documents of that class. At each center position the class vector is
averaged together with the in-window context word vectors, and the mean
predicts the center word through a negative-sampling objective trained
by SGD. Multilabel documents are presented once per label.

Gradients are applied word2vec-style: the full context-side update is
added to the class vector and to each context word vector. A run trains
on the corpus the merged model's vocabulary counted, and works on the
corpus rows alone, one row per corpus token for both input and output
vectors, so one row index names both at a position. ``finetune`` returns
those rows alone; the rows of other words stay the merged model's own.

All training arithmetic runs in 64-bit; the tuned rows are cast back to
32-bit floats at the end. Each epoch is one call of
``_kernel.train_chunk``, with the epoch's learning rates from one
schedule call; where the kernel does not build, that call returns None
and the numpy reference it is tested against trains the epoch, pass by
pass. Every noise draw is a pure function of the run's key and of its
position, slot and attempt (the counter-based generator
``_kernel.uniforms``), so the draws do not depend on how passes are
grouped into calls. The class vectors, the key and the ``shuffle``
order come from streams of the seed of their own.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernel
from ._kernel import NS_RESAMPLE_ATTEMPTS
from .corpus import Document
from .vocab import MergedModel, Vocabulary

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FinetuneConfig:
    """Hyperparameters of the fine-tuning run."""

    epochs: int = 10
    window: int = 5
    negative: int = 5
    alpha0: float = 0.025
    alpha_min: float = 0.0001
    seed: int = 1
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
        if self.alpha0 == math.inf:
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        _kernel.check_seed(self.seed)


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

    ``input_matrix``, ``output_matrix`` and ``noise_table`` have one row
    per corpus token, in vocabulary order, and ``index``, the vocabulary's
    own, maps a token to its row in all three. ``input_matrix`` and
    ``class_vectors`` are 64-bit working copies, the former of the tokens'
    rows of the merged matrix; ``noise_table`` is the cumulative
    unigram^0.75 distribution. ``alpha`` tracks the last learning rate
    used, and ``compiled`` whether the compiled kernel, not the numpy
    reference, trained the last passes. ``key`` fixes the run's noise
    draws.
    """

    cfg: FinetuneConfig
    input_matrix: np.ndarray   # |V_T| x m, float64
    output_matrix: np.ndarray  # |V_T| x m, float64
    class_vectors: np.ndarray  # |C| x m, float64
    noise_table: np.ndarray    # |V_T| cumulative probabilities
    alpha: float
    key: int                   # uint64 noise key
    classes: tuple[str, ...]
    class_index: dict[str, int]
    index: dict[str, int]      # token -> row
    positions_done: int = 0
    total_positions: int = 0
    compiled: bool = False


def build_noise_table(vocab: Vocabulary) -> np.ndarray:
    """Cumulative noise distribution over corpus tokens, P ∝ freq^0.75.

    Entry ``i`` holds the probability mass of vocabulary rows ``0..i``;
    the final entry is 1 within 1e-9.
    """
    probs = vocab.counts ** 0.75
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
    z = _dot_rows(u, context_mean)
    # -log sigma(z) = log(1 + exp(-z)), stable in both tails
    loss = float(np.logaddexp(0.0, -z[0]) + np.logaddexp(0.0, z[1:]).sum())
    err = np.array([_logistic(v) for v in z.tolist()])
    err[0] -= 1.0  # dL/dz_i: sigma - 1 for the center, sigma for negatives
    grad_h = np.add.reduce(err[:, None] * u, axis=0)  # row by row, in order
    grad_u = np.outer(err, context_mean)
    return loss, grad_h, grad_u


def _dot_rows(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``u @ h`` summed as the kernel's ``dot`` sums it: four partial sums
    over the columns ``j mod 4``, each in column order, the last
    ``m mod 4`` products added to the first one by one, then
    ``(s0 + s1) + (s2 + s3)``. (``u @ h`` leaves the order to BLAS.)"""
    prod = u * h
    q = prod.shape[1] // 4
    s = np.add.reduce(prod[:, :4 * q].reshape(len(u), q, 4), axis=1)
    for j in range(4 * q, prod.shape[1]):
        s[:, 0] += prod[:, j]
    return (s[:, 0] + s[:, 1]) + (s[:, 2] + s[:, 3])


def _logistic(z: float) -> float:
    """``1 / (1 + exp(-z))`` with libm's ``exp``, which the kernel calls
    (numpy's own ``exp`` may round differently); 0 where it overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def _sample_negatives(
    noise_table: np.ndarray, centers: np.ndarray, key: int, first: int,
    negative: int,
) -> np.ndarray:
    """Negatives for the positions ``first, first + 1, ...`` of a run, one
    per center in ``centers``.

    Attempt ``a`` of slot ``k`` at position ``p`` draws the uniform of
    counter ``(p * negative + k) * NS_RESAMPLE_ATTEMPTS + a`` and maps it to
    a noise row by binary search over the cumulative ``noise_table``
    (clamped to the last row). A slot takes the first of its draws that
    differs from the position's center, or -1 when every attempt hit the
    center. Returns ``len(centers) x negative`` row indices.
    """
    counters = np.arange(
        first * negative * NS_RESAMPLE_ATTEMPTS,
        (first + len(centers)) * negative * NS_RESAMPLE_ATTEMPTS,
        dtype=np.uint64,
    ).reshape(len(centers), negative, NS_RESAMPLE_ATTEMPTS)
    draws = np.minimum(
        np.searchsorted(noise_table, _kernel.uniforms(key, counters), side="right"),
        len(noise_table) - 1,
    )
    miss = draws != centers[:, None, None]
    taken = np.take_along_axis(draws, miss.argmax(axis=2)[..., None], axis=2)[..., 0]
    return np.where(miss.any(axis=2), taken, -1)


def _reference_pass(
    state: TrainState,
    idx: np.ndarray,
    label_id: int,
    alphas: np.ndarray,
    first: int,
) -> tuple[float, int]:
    """Train one label pass position by position in numpy; ``first`` is the
    run-wide index of its first position, which fixes its noise draws.

    The reference for the compiled pass in ``_kernel.c``, built on the
    gradient oracle :func:`ns_loss_and_grads`. Returns the summed loss and
    the number of positions that got fewer than ``negative`` negatives.
    """
    window = state.cfg.window
    inp = state.input_matrix
    cls = state.class_vectors
    negatives = _sample_negatives(
        state.noise_table, idx, state.key, first, state.cfg.negative
    )
    loss_sum = 0.0
    for p in range(len(idx)):
        alpha = alphas[p]
        lo = max(0, p - window)
        hi = min(len(idx), p + window + 1)
        ctx = np.concatenate([idx[lo:p], idx[p + 1:hi]])
        h = (cls[label_id] + inp[ctx].sum(axis=0)) / (1 + len(ctx))
        rows = np.concatenate([idx[p:p + 1], negatives[p][negatives[p] >= 0]])
        loss, grad_h, grad_u = ns_loss_and_grads(h, rows[0], rows[1:], state)
        loss_sum += loss
        np.subtract.at(state.output_matrix, rows, alpha * grad_u)
        # word2vec convention: the full context-side step goes to the class
        # vector and to every context word vector
        neu1e = -alpha * grad_h
        cls[label_id] += neu1e
        for ci in ctx:
            inp[ci] += neu1e
    return loss_sum, int((negatives < 0).any(axis=1).sum())


@dataclass
class Chunk:
    """Whole label passes trained by one call of the kernel or the reference.

    The positions of every pass lie back to back in ``idx`` and ``alphas``:
    pass ``i`` trains the next ``lengths[i]`` positions under class
    ``labels[i]``, and the lengths add up to all of them. ``first`` is the
    run-wide index of the first position.
    """

    idx: np.ndarray       # positions, int64 rows
    alphas: np.ndarray    # positions, float64 learning rates
    lengths: np.ndarray   # passes, int64
    labels: np.ndarray    # passes, int64 class ids
    first: int


def _reference_chunk(state: TrainState, chunk: Chunk) -> tuple[float, int]:
    """Train a chunk pass by pass with :func:`_reference_pass`; the
    reference for ``_kernel.train_chunk`` and its fallback.
    Like the kernel, it warns of no overflow when a run diverges: the
    per-epoch finiteness check reports that."""
    loss, shortfall, start = 0.0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n, label_id in zip(chunk.lengths.tolist(), chunk.labels.tolist()):
            part = slice(start, start + n)
            pass_loss, pass_shortfall = _reference_pass(
                state, chunk.idx[part], label_id, chunk.alphas[part],
                chunk.first + start,
            )
            loss += pass_loss
            shortfall += pass_shortfall
            start += n
    return loss, shortfall


def _train_passes(
    state: TrainState, passes: list[tuple[np.ndarray, int]]
) -> tuple[float, int, int]:
    """Train label passes ``(idx, label_id)`` in order, in one call of the
    compiled kernel or, where it is unavailable, of the numpy reference,
    and advance the position counter past them.

    Returns the summed loss, the positions trained, and the positions short
    of negatives.
    """
    idx, labels = zip(*passes)
    lengths = np.fromiter(map(len, idx), np.int64, len(passes))
    first = state.positions_done
    n = int(lengths.sum())
    alphas = lr_schedule(state.cfg, np.arange(first, first + n) / state.total_positions)
    chunk = Chunk(np.concatenate(idx), alphas, lengths,
                  np.array(labels, dtype=np.int64), first)
    stats = _kernel.train_chunk(state, chunk)
    state.compiled = stats is not None
    loss, shortfall = stats or _reference_chunk(state, chunk)
    state.positions_done = first + n
    state.alpha = float(alphas[-1])
    return loss, n, shortfall


def _doc_passes(state: TrainState, doc: Document) -> list[tuple[np.ndarray, int]]:
    """One ``(idx, label_id)`` pass per label of ``doc``, sharing one row
    array."""
    idx = np.fromiter(map(state.index.__getitem__, doc.tokens), np.int64, len(doc.tokens))
    return [(idx, state.class_index[l]) for l in doc.labels]


def init_state(model: MergedModel, cfg: FinetuneConfig) -> TrainState:
    """Build the initial training state for ``finetune``.

    The rows, the pretrained or seeded ones ``model`` holds, their index,
    the counts and the corpus come from the vocabulary ``model`` was
    merged over. The class vectors are ``_kernel.seeded_rows`` of the
    seed's class-vector stream, drawn as the unseen words' rows are; the
    noise key is the seed's noise stream key.
    """
    vocab = model.vocab
    corpus = vocab.corpus
    m = model.dim
    if model.corpus_rows.shape != (len(vocab), m):
        raise ValueError(
            f"the model holds {len(model.corpus_rows)} rows for {len(vocab)} "
            "corpus tokens; merge() must precede finetune()"
        )
    classes = tuple(corpus.classes)
    class_vectors = _kernel.seeded_rows(cfg.seed, _kernel.STREAM_CLASSES, len(classes), m)
    total = cfg.epochs * sum(
        len(d.tokens) * len(d.labels) for d in corpus.docs
    )
    return TrainState(
        cfg=cfg,
        input_matrix=model.corpus_rows.astype(np.float64),
        output_matrix=np.zeros((len(vocab), m), dtype=np.float64),
        class_vectors=class_vectors,
        noise_table=build_noise_table(vocab),
        alpha=cfg.alpha0,
        key=_kernel.stream_key(cfg.seed, _kernel.STREAM_NOISE),
        classes=classes,
        class_index={c: i for i, c in enumerate(classes)},
        index=vocab.index,
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
    model: MergedModel, cfg: FinetuneConfig = FinetuneConfig()
) -> tuple[np.ndarray, ClassVectors]:
    """Run the full fine-tuning loop over the corpus ``model`` was merged
    over, ``model.vocab.corpus``.

    Returns the tuned rows of the corpus tokens (``|V_T| x m`` float32, in
    vocabulary order) and the per-class vectors; every other merged row is
    unchanged, and :class:`~classvec.vocab.TunedEmbedding` puts the two
    together. Bit-reproducible for a fixed seed. Trains each epoch in one
    call of the compiled kernel, built on first use, or of the numpy
    reference where no C compiler is available.
    """
    state = init_state(model, cfg)
    docs = model.vocab.corpus.docs
    order = range(len(docs))
    shuffle_key = _kernel.stream_key(cfg.seed, _kernel.STREAM_SHUFFLE)
    # token -> row mapping depends only on the document, so do it once per run
    doc_passes = [_doc_passes(state, doc) for doc in docs]
    for epoch in range(1, cfg.epochs + 1):
        if cfg.shuffle:
            order = _kernel.permutation(shuffle_key, len(docs), epoch - 1).tolist()
        started = time.perf_counter()
        loss, trained, shortfall = _train_passes(
            state, [p for di in order for p in doc_passes[di]]
        )
        seconds = time.perf_counter() - started
        _check_finite(state, epoch)
        logger.info(
            "epoch %d/%d done: %d/%d positions (%d short of negatives), "
            "mean loss %.4f, alpha %.6f, %.0f positions/s (%s)",
            epoch, cfg.epochs, state.positions_done, state.total_positions,
            shortfall, loss / trained, state.alpha,
            trained / max(seconds, 1e-9),
            "compiled kernel" if state.compiled else "numpy reference",
        )
    # rows finite in 64 bits can still lie beyond the 32-bit range
    with np.errstate(over="ignore"):
        tuned = state.input_matrix.astype(np.float32)
    if not np.isfinite(tuned).all():
        raise FloatingPointError(
            f"tuned vectors exceed the float32 range after epoch {cfg.epochs}"
        )
    class_vectors = ClassVectors(
        state.classes, state.class_vectors.astype(np.float32)
    )
    return tuned, class_vectors
