"""Workload definitions and the seeded input generator.

Every input file the pipeline reads is made here from ``(workload, seed)``
alone; the program under test receives only the files. The same seed
always gives byte-identical files, and sizes (rows, documents, tokens,
label counts) are fixed per workload so that seeds differ only in content.

Corpus tokens follow a Zipf-Mandelbrot law over a pool of types, a fixed
fifth of which have no pretrained vector. Each class owns a few marker
tokens (present in the pretrained set); every document carries markers of
its own labels, so the linear probe scores clearly above chance.
"""
from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str            # "text" or "binary"; the CLI spelling is resolved at run time
    vocab: int          # pretrained rows V
    dim: int
    train_docs: int
    test_docs: int
    classes: int
    labels_per_doc: tuple[int, ...]  # label counts, cycled over documents
    epochs: int
    pool: int           # corpus type pool
    doc_len: int = 50
    unseen_share: float = 0.2
    markers_per_class: int = 4
    markers_per_label: int = 5


# Sizes keep each workload's layer balance (measured in the traced run)
# while one pipeline iteration stays near 5-7 s on a 2-core machine, so a
# run of BENCHMARK.json's run_seconds holds six to eight iterations, whose
# median evens out the host's process-to-process noise (about 15%):
#   tune-text          trainer-bound: the trainer is the largest layer (~60%)
#   wide-text          embedding I/O plus drift are over 80% of layer time
#   multilabel-binary  trainer-bound again, through the binary reader/writer,
#                      one training pass per label and the sigmoid probe
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tune-text",
            fmt="text", vocab=3000, dim=100, train_docs=160, test_docs=400,
            classes=4, labels_per_doc=(1,), epochs=3, pool=2000,
        ),
        Workload(
            name="wide-text",
            fmt="text", vocab=6000, dim=100, train_docs=40, test_docs=400,
            classes=4, labels_per_doc=(1,), epochs=1, pool=1000,
            markers_per_label=10,
        ),
        Workload(
            name="multilabel-binary",
            fmt="binary", vocab=10000, dim=100, train_docs=100, test_docs=400,
            classes=6, labels_per_doc=(1, 2, 3), epochs=2, pool=2000,
            markers_per_label=6,
        ),
    )
}


def _zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 2.7)
    return p / p.sum()


def _documents(w: Workload, rng, n_docs, pool_tokens, probs, markers):
    """The (tokens, labels) of ``n_docs`` documents."""
    docs = []
    counts = np.resize(np.array(w.labels_per_doc), n_docs)
    rng.shuffle(counts)
    for k in counts:
        labels = sorted(rng.choice(w.classes, size=int(k), replace=False).tolist())
        planted = [
            markers[c][j]
            for c in labels
            for j in rng.integers(0, w.markers_per_class, w.markers_per_label)
        ]
        filler = rng.choice(len(pool_tokens), size=w.doc_len - len(planted), p=probs)
        tokens = planted + [pool_tokens[i] for i in filler]
        rng.shuffle(tokens)
        docs.append((tokens, [f"c{c}" for c in labels]))
    return docs


def _write_tsv(path: str, docs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for tokens, labels in docs:
            f.write(",".join(labels) + "\t" + " ".join(tokens) + "\n")


def _write_vectors(path: str, words: list[str], matrix: np.ndarray, fmt: str) -> None:
    with open(path, "wb") as f:
        f.write(f"{len(words)} {matrix.shape[1]}\n".encode("ascii"))
        if fmt == "text":
            row_fmt = " ".join(["%.9g"] * matrix.shape[1])
            f.write("".join(
                f"{w} {row_fmt % tuple(row)}\n"
                for w, row in zip(words, matrix.tolist())
            ).encode("utf-8"))
        else:
            rows = matrix.astype("<f4")
            for w, row in zip(words, rows):
                f.write(w.encode("utf-8") + b" " + row.tobytes())


def generate(w: Workload, seed: int, out_dir: str) -> dict:
    """Write pretrained.vec, train.tsv and test.tsv; return the input facts."""
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    n_unseen = int(round(w.unseen_share * w.pool))
    pool_tokens = [f"u{i}" for i in range(n_unseen)]
    pool_tokens += [f"w{i}" for i in range(w.pool - n_unseen)]
    rng.shuffle(pool_tokens)  # spread the unseen types over all frequencies
    markers = [[f"m{c}x{j}" for j in range(w.markers_per_class)] for c in range(w.classes)]
    marker_tokens = [t for ms in markers for t in ms]
    filler = [f"w{i}" for i in range(w.pool - n_unseen, w.vocab - len(marker_tokens))]
    words = [f"w{i}" for i in range(w.pool - n_unseen)] + marker_tokens + filler
    if len(words) != w.vocab:
        raise ValueError(f"{w.name}: pool and markers do not fit in V={w.vocab}")
    rng.shuffle(words)
    matrix = rng.standard_normal((w.vocab, w.dim)).astype(np.float32) * np.float32(0.5)

    probs = _zipf_probs(len(pool_tokens))
    train = _documents(w, rng, w.train_docs, pool_tokens, probs, markers)
    test = _documents(w, rng, w.test_docs, pool_tokens, probs, markers)

    paths = {
        "pretrained": os.path.join(out_dir, "pretrained.vec"),
        "train": os.path.join(out_dir, "train.tsv"),
        "test": os.path.join(out_dir, "test.tsv"),
    }
    _write_vectors(paths["pretrained"], words, matrix, w.fmt)
    _write_tsv(paths["train"], train)
    _write_tsv(paths["test"], test)

    pretrained = set(words)
    train_types = dict.fromkeys(t for tokens, _ in train for t in tokens)
    tokens = sum(len(t) for t, _ in train)
    positions = w.epochs * sum(len(t) * len(l) for t, l in train)
    facts = {
        "workload": asdict(w),
        "seed": seed,
        "V": w.vocab,
        "dim": w.dim,
        "train_docs": len(train),
        "test_docs": len(test),
        "tokens": tokens,
        "positions": positions,
        "train_types": len(train_types),
        "unseen_types": sum(t not in pretrained for t in train_types),
        "file_bytes": {k: os.path.getsize(p) for k, p in paths.items()},
    }
    return {
        "paths": paths,
        "facts": facts,
        "words": words,
        "matrix": matrix,
        "train_types": set(train_types),
        "query": markers[0][0],
    }

