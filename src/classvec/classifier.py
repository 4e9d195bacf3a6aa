"""Linear probe for measuring embedding quality on labeled text.

Documents are embedded by mean-pooling their in-vocabulary token vectors
(zero vector if none survive), then classified by a single fully
connected layer: softmax over classes in exclusive mode, independent
per-class sigmoids with a decision threshold in multilabel mode. Trained
by plain seeded SGD on (binary) cross-entropy; embeddings are never
updated here.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .corpus import Document, LabeledCorpus
from .embedding_io import EmbeddingSet, parse_numerals

MODES = ("exclusive", "multilabel")


class ClassifierFormatError(ValueError):
    """Raised when a persisted classifier file cannot be parsed."""


@dataclass(frozen=True)
class ClassifierConfig:
    epochs: int = 50
    lr: float = 0.05
    seed: int = 1
    l2: float = 0.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 coefficient must be >= 0")


@dataclass(frozen=True)
class ClassifierModel:
    """Trained probe parameters: logits = x @ weights + bias."""

    weights: np.ndarray  # m x K, float64
    bias: np.ndarray     # K, float64
    classes: tuple[str, ...]
    mode: str
    threshold: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        k = len(self.classes)
        if len(set(self.classes)) != k:
            raise ValueError("duplicate class names")
        if self.mode == "exclusive" and k < 2:
            raise ValueError("exclusive mode needs at least 2 classes")
        if k < 1:
            raise ValueError("at least 1 class required")
        if self.weights.shape != (self.weights.shape[0], k):
            raise ValueError("weights must be m x K")
        if self.bias.shape != (k,):
            raise ValueError("bias must have one entry per class")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite parameters")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def embed_doc(doc: Document, emb: EmbeddingSet) -> np.ndarray:
    """Mean of the document's in-vocabulary vectors; zero if none."""
    rows = [emb.index[t] for t in doc.tokens if t in emb.index]
    if not rows:
        return np.zeros(emb.dim, dtype=np.float64)
    return emb.matrix[rows].astype(np.float64).mean(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax; components in (0, 1], summing to 1."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)), elementwise.

    Exactly 0 and 1 far out in the tails, where ``exp`` overflows to inf
    (silenced: that overflow is the intended limit), and exactly 0.5 at 0.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def loss_and_grads(
    x: np.ndarray,
    target,
    weights: np.ndarray,
    bias: np.ndarray,
    mode: str,
    l2: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-example loss and parameter gradients.

    ``target`` is a class index (exclusive mode) or a 0/1 vector over
    classes (multilabel mode). Loss is cross-entropy, resp. summed
    per-class binary cross-entropy, plus 0.5 * l2 * ||weights||^2.
    """
    z = x @ weights + bias
    if mode == "exclusive":
        s = z - z.max()
        loss = float(np.log(np.exp(s).sum()) - s[target])
        err = softmax(z)
        err[target] -= 1.0
    elif mode == "multilabel":
        y = np.asarray(target, dtype=np.float64)
        # -y log sigma(z) - (1-y) log sigma(-z), stable in both tails
        loss = float((y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z)).sum())
        err = sigmoid(z) - y
    else:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if l2:
        loss += 0.5 * l2 * float((weights ** 2).sum())
    grad_w = np.outer(x, err) + l2 * weights
    return loss, grad_w, err


def _targets(corpus: LabeledCorpus, mode: str) -> list:
    class_index = {c: i for i, c in enumerate(corpus.classes)}
    if mode == "exclusive":
        for d in corpus.docs:
            if len(d.labels) != 1:
                raise ValueError(
                    f"exclusive mode requires single-label documents, "
                    f"got {d.labels!r}"
                )
        return [class_index[d.labels[0]] for d in corpus.docs]
    targets = []
    for d in corpus.docs:
        y = np.zeros(len(corpus.classes))
        for l in d.labels:
            y[class_index[l]] = 1.0
        targets.append(y)
    return targets


def train_classifier(
    corpus: LabeledCorpus,
    emb: EmbeddingSet,
    cfg: ClassifierConfig = ClassifierConfig(),
    mode: str = "exclusive",
    threshold: float = 0.5,
) -> ClassifierModel:
    """Fit the probe by seeded per-example SGD from zero-initialized parameters."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "exclusive" and len(corpus.classes) < 2:
        raise ValueError("exclusive mode needs at least 2 classes in the corpus")
    xs = np.array([embed_doc(d, emb) for d in corpus.docs])
    targets = _targets(corpus, mode)
    k = len(corpus.classes)
    weights = np.zeros((emb.dim, k), dtype=np.float64)
    bias = np.zeros(k, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(xs)):
            _, grad_w, grad_b = loss_and_grads(
                xs[i], targets[i], weights, bias, mode, cfg.l2
            )
            weights -= cfg.lr * grad_w
            bias -= cfg.lr * grad_b
    return ClassifierModel(weights, bias, tuple(corpus.classes), mode, threshold)


def predict(model: ClassifierModel, doc: Document, emb: EmbeddingSet):
    """Exclusive: the argmax class (ties -> lowest class index).
    Multilabel: the tuple of classes whose sigmoid clears the threshold,
    possibly empty, in class order."""
    z = embed_doc(doc, emb) @ model.weights + model.bias
    if model.mode == "exclusive":
        return model.classes[int(np.argmax(z))]
    p = sigmoid(z)
    return tuple(c for j, c in enumerate(model.classes) if p[j] >= model.threshold)


def save_classifier(model: ClassifierModel, sink: BinaryIO) -> None:
    """Persist as text: 'K m mode threshold' header, class-names line
    (tab-separated), then K rows of m+1 reals (weights column, bias)."""
    for c in model.classes:
        if "\t" in c or "\n" in c:
            raise ValueError(f"class name {c!r} cannot be persisted")
    out = io.StringIO()
    k, m = len(model.classes), model.dim
    out.write(f"{k} {m} {model.mode} {model.threshold:.17g}\n")
    out.write("\t".join(model.classes) + "\n")
    for j in range(k):
        row = [f"{v:.17g}" for v in model.weights[:, j]]
        row.append(f"{model.bias[j]:.17g}")
        out.write(" ".join(row) + "\n")
    sink.write(out.getvalue().encode("utf-8"))


def _is_count(field: str) -> bool:
    """ASCII digits only: int() would also take '1_0', '+1' or '٣'."""
    return field.isascii() and field.isdigit()


def load_classifier(source: BinaryIO) -> ClassifierModel:
    """Parse a file written by :func:`save_classifier`."""
    try:
        lines = source.read().decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ClassifierFormatError(f"not valid UTF-8: {e}") from None
    if len(lines) < 2:
        raise ClassifierFormatError("missing header or class-names line")
    header = lines[0].split(" ")
    if len(header) != 4:
        raise ClassifierFormatError("header must be 'K m mode threshold'")
    k_field, m_field, mode, t_field = header
    threshold = parse_numerals([t_field.encode()], 1)
    if not (_is_count(k_field) and _is_count(m_field)) or threshold is None:
        raise ClassifierFormatError("line 1: malformed header numbers")
    k, m, threshold = int(k_field), int(m_field), float(threshold[0, 0])
    if k < 1 or m < 1:
        raise ClassifierFormatError(
            f"line 1: K and m must be >= 1, got K={k}, m={m}"
        )
    if mode not in MODES:
        raise ClassifierFormatError(f"unknown mode {mode!r}")
    classes = tuple(lines[1].split("\t"))
    if len(classes) != k:
        raise ClassifierFormatError(
            f"header declares {k} classes, names line has {len(classes)}"
        )
    if len(lines) != 2 + k:
        raise ClassifierFormatError(f"expected {k} parameter rows, got {len(lines) - 2}")
    rows = [line.encode() for line in lines[2:]]
    values = parse_numerals(rows, m + 1)
    if values is None:
        for j, row in enumerate(rows):
            fields = row.count(b" ") + 1
            if fields != m + 1:
                raise ClassifierFormatError(
                    f"row {j + 1}: expected {m + 1} values, got {fields}"
                )
            if parse_numerals([row], m + 1) is None:
                raise ClassifierFormatError(f"row {j + 1}: malformed value")
    weights = np.ascontiguousarray(values[:, :m].T)
    bias = values[:, m].copy()
    try:
        return ClassifierModel(weights, bias, classes, mode, threshold)
    except ValueError as e:
        raise ClassifierFormatError(str(e)) from None
