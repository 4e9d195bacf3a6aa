"""Shared synthetic fixtures for the tests, slow reference readers,
writers and drift that the block-wise library code is checked against,
a stream with short reads, and a switch that makes the compiled kernel
unavailable.

Every builder is fully seeded and deterministic. The two-class and
three-class corpora below are engineered so that token *identity* is
perfectly predictive of the class while the pretrained *vectors* of the
predictive tokens start out nearly indistinguishable — the situation
class-conditioned fine-tuning is supposed to repair.
"""
from __future__ import annotations

import io
import re

import numpy as np

from classvec import _kernel
from classvec.corpus import Document, LabeledCorpus, from_documents
from classvec.embedding_io import EmbeddingFormatError, EmbeddingSet


def cos(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def random_embedding(
    rng: np.random.Generator, n: int, dim: int, prefix: str = "t"
) -> EmbeddingSet:
    """n random word vectors named ``<prefix>0 .. <prefix>{n-1}``."""
    words = [f"{prefix}{i}" for i in range(n)]
    return EmbeddingSet(words, rng.normal(0, 1, (n, dim)).astype(np.float32))


def _paired_template_docs(
    trng: np.random.Generator,
    fillers: list[str],
    doc_len: int,
    marker_reps: int,
    pairs: list[tuple[tuple[str, str], tuple[str, str]]],
) -> list[Document]:
    """One filler template per pair, instantiated once per (marker, label).

    Both documents of a pair share the exact same filler tokens and the
    same marker slots, so the only difference between the classes is the
    marker identity — the cleanest possible divergence signal.
    """
    docs: list[Document] = []
    n_fill = doc_len - marker_reps
    for (marker_a, label_a), (marker_b, label_b) in pairs:
        fs = list(trng.choice(fillers, size=n_fill, replace=False))
        slots = set(trng.choice(doc_len, size=marker_reps, replace=False).tolist())
        for marker, label in ((marker_a, label_a), (marker_b, label_b)):
            toks, fi = [], 0
            for p in range(doc_len):
                if p in slots:
                    toks.append(marker)
                else:
                    toks.append(fs[fi])
                    fi += 1
            docs.append(Document(tuple(toks), (label,)))
    return docs


def divergence_corpus(
    n_fillers: int = 300,
    doc_len: int = 9,
    marker_reps: int = 3,
    dim: int = 32,
    scale: float = 7.0,
    n_per_class: int = 200,
    vec_seed: int = 7,
    tpl_seed: int = 3,
) -> tuple[EmbeddingSet, LabeledCorpus]:
    """Two-class corpus whose class markers start out nearly synonymous.

    ``good`` appears only in ``pos`` documents and ``bad`` only in ``neg``
    documents, each filling ``marker_reps`` slots of every paired template
    document. Their pretrained vectors differ by a small orthogonal
    perturbation (cosine ~0.98), and the pretrained norms are large
    relative to the update steps so training stays in the gentle regime.
    """
    rng = np.random.default_rng(vec_seed)
    fillers = [f"w{i}" for i in range(n_fillers)]
    vecs = {w: rng.normal(0, scale, dim) for w in fillers}
    g = rng.normal(0, scale, dim)
    noise = rng.normal(0, 1.0, dim)
    noise -= (noise @ g) / (g @ g) * g
    b = g + 0.2 * np.linalg.norm(g) * noise / np.linalg.norm(noise)
    vecs["good"], vecs["bad"] = g, b
    trng = np.random.default_rng(tpl_seed)
    pairs = [(("good", "pos"), ("bad", "neg"))] * n_per_class
    docs = _paired_template_docs(trng, fillers, doc_len, marker_reps, pairs)
    corpus = from_documents(docs)
    used = {t for d in docs for t in d.tokens}
    words = [w for w in vecs if w in used]
    emb = EmbeddingSet(words, np.array([vecs[w] for w in words], dtype=np.float32))
    return emb, corpus


def frequency_corpus(
    dim: int = 32,
    scale: float = 7.0,
    n_per_class: int = 200,
    doc_len: int = 9,
    marker_reps: int = 3,
    vec_seed: int = 2,
    tpl_seed: int = 4,
) -> tuple[EmbeddingSet, LabeledCorpus]:
    """Two-class corpus where marker ``y`` is split 9:1 between classes.

    ``y`` fills the marker slots of 90% of class-A templates but also 10%
    of class-B templates; ``z`` takes the complementary share. Unlike the
    exclusive markers of :func:`divergence_corpus`, proximity here must be
    carried by a frequency majority rather than purity.
    """
    rng = np.random.default_rng(vec_seed)
    fillers = [f"w{i}" for i in range(300)]
    vecs = {w: rng.normal(0, scale, dim) for w in fillers}
    vecs["y"] = rng.normal(0, scale, dim)
    vecs["z"] = rng.normal(0, scale, dim)
    trng = np.random.default_rng(tpl_seed)
    pairs = []
    for i in range(n_per_class):
        a_tok = "y" if i < int(0.9 * n_per_class) else "z"
        b_tok = "y" if i < int(0.1 * n_per_class) else "z"
        pairs.append(((a_tok, "A"), (b_tok, "B")))
    docs = _paired_template_docs(trng, fillers, doc_len, marker_reps, pairs)
    corpus = from_documents(docs)
    used = {t for d in docs for t in d.tokens}
    words = [w for w in vecs if w in used]
    emb = EmbeddingSet(words, np.array([vecs[w] for w in words], dtype=np.float32))
    return emb, corpus


THREE_CLASSES = ("alpha", "beta", "gamma")


def confusable_corpus(
    dim: int = 16,
    scale: float = 2.0,
    confuse: float = 0.03,
    n_fillers: int = 100,
    doc_len: int = 8,
    marker_occ: int = 2,
    n_train: int = 100,
    n_test: int = 50,
    vec_seed: int = 5,
    corpus_seed: int = 9,
) -> tuple[EmbeddingSet, LabeledCorpus, LabeledCorpus, dict[str, list[str]]]:
    """Three-class train/test corpora with confusable pretrained markers.

    Each class owns two marker tokens used exclusively in its documents
    (two occurrences per document). All six marker vectors sit within a
    tiny ball around one shared base vector, so mean-pooled *frozen*
    features barely separate the classes even though marker identity
    determines the class exactly. Returns (pretrained, train, test,
    markers-by-class).
    """
    rng = np.random.default_rng(vec_seed)
    fillers = [f"f{i}" for i in range(n_fillers)]
    vecs = {w: rng.normal(0, scale, dim) for w in fillers}
    base = rng.normal(0, scale, dim)
    markers: dict[str, list[str]] = {}
    for c in THREE_CLASSES:
        names = [f"m_{c}0", f"m_{c}1"]
        for nm in names:
            vecs[nm] = base + confuse * scale * rng.normal(0, 1, dim)
        markers[c] = names
    crng = np.random.default_rng(corpus_seed)

    def make_docs(n_per_class: int) -> list[Document]:
        docs = []
        for c in THREE_CLASSES:
            for _ in range(n_per_class):
                toks = list(
                    crng.choice(fillers, size=doc_len - marker_occ, replace=False)
                )
                for _ in range(marker_occ):
                    toks.insert(
                        int(crng.integers(0, len(toks) + 1)),
                        str(crng.choice(markers[c])),
                    )
                docs.append(Document(tuple(toks), (c,)))
        return docs

    train = from_documents(make_docs(n_train))
    test = from_documents(make_docs(n_test))
    words = list(vecs)
    emb = EmbeddingSet(words, np.array([vecs[w] for w in words], dtype=np.float32))
    return emb, train, test, markers


def marker_identity_accuracy(
    corpus: LabeledCorpus, markers: dict[str, list[str]]
) -> float:
    """Accuracy of the token-identity rule: predict the unique class whose
    marker appears in the document. The rule a perfect feature extractor
    would recover; used to certify that a corpus is solvable."""
    owner = {nm: c for c, names in markers.items() for nm in names}
    hits = 0
    for d in corpus.docs:
        found = {owner[t] for t in d.tokens if t in owner}
        hits += len(found) == 1 and next(iter(found)) == d.labels[0]
    return hits / len(corpus.docs)


# --- slow references for the block-wise readers and drift ------------------
#
# Row-at-a-time implementations of the same specifications, kept only as
# oracles: every value is parsed by float() after a regular-expression
# check of the word2vec numeral grammar, binary input is read one byte at a
# time, and drift compares one token pair per step. Error messages are the
# library's, so a fast path can be required to fail exactly as they do.

_NUMERAL = re.compile(
    rb"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def _reference_header(line: bytes, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(f"{what}: header must be '<vocab_size> <dim>'")
    if not all(re.fullmatch(rb"[0-9]+", p) for p in parts):
        raise EmbeddingFormatError(f"{what}: non-integer header fields")
    n, m = int(parts[0]), int(parts[1])
    if n < 1:
        raise EmbeddingFormatError(f"{what}: vocabulary size must be >= 1, got {n}")
    if m < 1:
        raise EmbeddingFormatError(f"{what}: dimensionality must be >= 1, got {m}")
    return n, m


def _reference_token(raw: bytes, seen: set[str], where: str) -> str:
    if not raw:
        raise EmbeddingFormatError(f"{where}: empty token")
    if b"\n" in raw:
        raise EmbeddingFormatError(f"{where}: token contains a newline byte")
    try:
        token = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise EmbeddingFormatError(f"{where}: token is not valid UTF-8") from None
    if any(c.isspace() for c in token):
        raise EmbeddingFormatError(f"{where}: whitespace in token {token!r}")
    if token in seen:
        raise EmbeddingFormatError(f"{where}: duplicate token {token!r}")
    seen.add(token)
    return token


def reference_load_text(data: bytes) -> EmbeddingSet:
    """Whole-file, per-field reader of the word2vec text format."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # single trailing newline
    if not lines:
        raise EmbeddingFormatError("empty file")
    n, m = _reference_header(lines[0], "line 1")
    if len(lines) - 1 != n:
        raise EmbeddingFormatError(
            f"header declares {n} rows but file has {len(lines) - 1}"
        )
    words: list[str] = []
    seen: set[str] = set()
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(b" ")
        if len(fields) != m + 1:
            raise EmbeddingFormatError(
                f"line {lineno}: expected {m + 1} space-separated fields, "
                f"got {len(fields)}"
            )
        words.append(_reference_token(fields[0], seen, f"line {lineno}"))
        if not all(_NUMERAL.fullmatch(x) for x in fields[1:]):
            raise EmbeddingFormatError(f"line {lineno}: malformed value")
        with np.errstate(over="ignore"):  # beyond float32 range: inf
            row = np.array([float(x) for x in fields[1:]], dtype=np.float32)
        if not np.isfinite(row).all():
            raise EmbeddingFormatError(f"line {lineno}: non-finite value")
        rows.append(row)
    return EmbeddingSet(words, np.array(rows, dtype=np.float32))


def reference_load_binary(data: bytes) -> EmbeddingSet:
    """Byte-at-a-time reader of the word2vec binary format."""
    source = io.BytesIO(data)
    header = source.readline()
    if not header.endswith(b"\n"):
        raise EmbeddingFormatError("byte 0: missing or unterminated header line")
    n, m = _reference_header(header, "header")
    offset = len(header)
    words: list[str] = []
    seen: set[str] = set()
    rows = []
    vec_bytes = 4 * m
    for i in range(n):
        token_start = offset
        buf = bytearray()
        while True:
            b = source.read(1)
            if b == b"":
                raise EmbeddingFormatError(
                    f"byte {offset}: truncated stream inside token {i + 1} of {n}"
                )
            offset += 1
            if b == b" ":
                break
            buf += b
        words.append(_reference_token(bytes(buf), seen, f"byte {token_start}"))
        raw = source.read(vec_bytes)
        if len(raw) != vec_bytes:
            raise EmbeddingFormatError(
                f"byte {offset}: truncated stream mid-vector "
                f"(word {i + 1} of {n}, got {len(raw)} of {vec_bytes} bytes)"
            )
        row = np.frombuffer(raw, dtype="<f4")
        if not np.isfinite(row).all():
            raise EmbeddingFormatError(f"byte {offset}: non-finite value")
        offset += vec_bytes
        rows.append(row)
    if source.read(1) != b"":
        raise EmbeddingFormatError(f"byte {offset}: trailing data after last vector")
    return EmbeddingSet(words, np.array(rows, dtype=np.float32))


def reference_drift(before: EmbeddingSet, after: EmbeddingSet):
    """Per-token drift: (entries sorted ascending by cosine, quantiles)."""
    rows = []
    for t in before.words:
        if t not in after.index:
            continue
        vb = before.vector(t).astype(np.float64)
        va = after.vector(t).astype(np.float64)
        shift = float(np.linalg.norm(va - vb))
        nb, na = np.linalg.norm(vb), np.linalg.norm(va)
        if nb == 0.0 or na == 0.0:
            cos = 1.0 if shift == 0.0 else 0.0
        else:
            cos = float(np.clip(vb @ va / (nb * na), -1.0, 1.0))
        rows.append((t, cos, shift))
    rows.sort(key=lambda r: r[1])
    quantiles = {}
    for name, col in (("cosine", 1), ("shift", 2)):
        values = np.array([r[col] for r in rows])
        for q, tag in ((0.0, "min"), (0.25, "p25"), (0.5, "median"),
                       (0.75, "p75"), (1.0, "max")):
            quantiles[f"{name}_{tag}"] = float(np.quantile(values, q))
    return rows, quantiles


def reference_save_text(emb: EmbeddingSet) -> bytes:
    """Per-float writer of the word2vec text format."""
    out = [f"{len(emb)} {emb.dim}\n"]
    for i, token in enumerate(emb.words):
        row = " ".join(f"{float(v):.9g}" for v in emb.matrix[i])
        out.append(f"{token} {row}\n")
    return "".join(out).encode("utf-8")


def reference_save_binary(emb: EmbeddingSet) -> bytes:
    """Per-row writer of the word2vec binary format."""
    out = [f"{len(emb)} {emb.dim}\n".encode("ascii")]
    for i, token in enumerate(emb.words):
        out.append(token.encode("utf-8") + b" " + emb.matrix[i].astype("<f4").tobytes())
    return b"".join(out)


def bit_random_embedding(rng: np.random.Generator, n: int, dim: int) -> EmbeddingSet:
    """n vectors of random finite float32 bit patterns (denormals, extremes,
    signed zeros), every seventh row all zero, and non-ASCII tokens."""
    bits = rng.integers(0, 2**32, size=(n, dim), dtype=np.uint32)
    matrix = bits.view(np.float32)
    matrix[~np.isfinite(matrix)] = 0.0
    matrix[::7] = 0.0
    return EmbeddingSet([f"w{i}é" if i % 3 else f"t{i}" for i in range(n)], matrix)


class ShortReads(io.RawIOBase):
    """A stream that returns at most ``step`` bytes per read, as a pipe may."""

    def __init__(self, data: bytes, step: int):
        self._data, self._pos, self._step = data, 0, step

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = self._data[self._pos:self._pos + min(len(buf), self._step)]
        buf[:len(got)] = got
        self._pos += len(got)
        return len(got)


def disable_kernel(mp) -> None:
    """Through the pytest MonkeyPatch ``mp``: make the kernel library fail
    to open, as on a machine without a C compiler, and forget the library
    this process has already opened."""
    def no_library():
        raise OSError("no C compiler")

    mp.setattr(_kernel, "open_library", no_library)
    mp.setattr(_kernel, "_library", _kernel._UNOPENED)
