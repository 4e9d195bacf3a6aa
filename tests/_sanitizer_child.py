"""Run every entry point of a sanitizer build of ``_kernel.c``.

Usage: ``python _sanitizer_child.py LIBRARY {run,control}``, with the
sanitizer runtimes preloaded (``tests/test_kernel_sanitizers.py`` sets up
the build and the environment). ``run`` calls the epoch trainer, the probe
epoch in both modes, ``format_rows``, and ``scan_text`` and
``scan_binary`` on Hypothesis bytes, and exits 0 if no sanitizer stopped
it. ``control`` makes one
deliberate out-of-bounds write, which AddressSanitizer must report.

Every byte the kernel reads comes from a buffer of exactly the size it is
given (``malloc`` for raw bytes, numpy arrays for the rest), so a read or
write past the end lands in a redzone.
"""
from __future__ import annotations

import ctypes
import sys

import numpy as np

from classvec import _kernel, trainer
from classvec.corpus import Document, from_documents
from classvec.embedding_io import EmbeddingSet
from classvec.vocab import build_vocab, merge

_libc = ctypes.CDLL(None)
_libc.malloc.restype = ctypes.c_void_p
_libc.malloc.argtypes = [ctypes.c_size_t]
_libc.free.argtypes = [ctypes.c_void_p]


def _exact_buffer(data: bytes) -> int:
    """A malloc'd copy of ``data`` with no byte to spare."""
    address = _libc.malloc(len(data))
    ctypes.memmove(address, data, len(data))
    return address


def train_epochs() -> None:
    """Two epochs of multilabel, resampling-heavy documents, starting past
    position 2^32, on the kernel and on the reference; then chunks with a
    bad label and with a row index one past the last row, which the kernel
    must reject. The pretrained set has rows outside the corpus and misses
    one corpus token, so the kernel trains matrices of fewer rows than the
    merged one."""
    rng = np.random.default_rng(1)
    words = [f"t{i}" for i in range(20)]
    emb = EmbeddingSet(words, rng.normal(0, 0.5, (20, 6)).astype(np.float32))
    docs = []
    for i in range(12):
        toks = tuple("t0" if rng.random() < 0.7 else words[int(rng.integers(1, 14)) % 12]
                     for _ in range(int(rng.integers(1, 15))))
        if i == 5:
            toks += ("unseen",)
        docs.append(Document(toks, ("a", "b")[: 1 + (i % 3 == 0)]))
    corpus = from_documents(docs)
    model = merge(emb, build_vocab(corpus), seed=1)
    cfg = trainer.FinetuneConfig(epochs=2, window=2, negative=5, alpha0=0.05, seed=3)
    kernel, states = _kernel.train_chunk, []
    for train in (kernel, trainer._reference_chunk):
        _kernel.train_chunk = train
        state = trainer.init_state(model, cfg)
        state.positions_done = 2**32 + 1
        state.total_positions += 2**32 + 1
        passes = [p for d in corpus.docs for p in trainer._doc_passes(state, d)]
        for _ in range(cfg.epochs):
            trainer._train_passes(state, passes)
        states.append(state)
    _kernel.train_chunk = kernel
    fast, ref = states
    assert len(fast.input_matrix) == len(model.vocab) < len(model)
    assert np.allclose(fast.input_matrix, ref.input_matrix, rtol=0, atol=1e-10)
    n_rows = len(fast.input_matrix)
    bad_label = trainer.Chunk(np.zeros(3, dtype=np.int64), np.full(3, 0.01),
                              np.array([3]), np.array([7]), 0)
    past_last_row = trainer.Chunk(np.array([0, 1, n_rows]), np.full(3, 0.01),
                                  np.array([3]), np.array([0]), 0)
    for what, bad in (("label", bad_label), ("row index", past_last_row)):
        before = [a.copy() for a in (fast.input_matrix, fast.output_matrix,
                                     fast.class_vectors)]
        try:
            kernel(fast, bad)
        except IndexError:
            pass
        else:
            raise AssertionError(f"a bad {what} was trained")
        after = (fast.input_matrix, fast.output_matrix, fast.class_vectors)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


def probe_epochs() -> None:
    rng = np.random.default_rng(2)
    n, m, k = 9, 4, 3
    x = rng.normal(0, 1, (n, m))
    order = rng.permutation(n).astype(np.int64)
    for targets in (rng.integers(0, k, n).astype(np.int64),
                    (rng.random((n, k)) < 0.5).astype(np.float64)):
        weights, bias = np.zeros((m, k)), np.zeros(k)
        loss = _kernel.probe_epoch(x, targets, order, weights, bias, 0.1, 0.01)
        assert np.isfinite(loss)
    try:
        _kernel.probe_epoch(x, np.full(n, k, dtype=np.int64), order,
                            np.zeros((m, k)), np.zeros(k), 0.1, 0.0)
    except IndexError:
        pass
    else:
        raise AssertionError("a bad probe label was trained")


def format_blocks() -> None:
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2**32, (40, 7), dtype=np.uint64).astype(np.uint32)
    for block in (bits.view(np.float32), rng.normal(0, 1, (40, 7)).astype(np.float32),
                  np.zeros((1, 1), dtype=np.float32)):
        _kernel.format_rows(np.ascontiguousarray(block))


def scan_bytes() -> None:
    """Both scanners on arbitrary bytes and on rows cut at every byte, so
    that a chunk ends inside a token, a numeral or a vector, each asked for
    more rows than the bytes hold."""
    from hypothesis import given, settings, strategies as st

    lib = _kernel.library()

    def check(name: str, data: bytes, n: int, m: int) -> None:
        out = np.empty((n, m), dtype=np.float32)
        state = np.empty(3, dtype=np.int64)
        address, tokens = _exact_buffer(data), _libc.malloc(len(data))
        try:
            rows = getattr(lib, name)(address, len(data), n, m, out.ctypes.data,
                                      tokens, state.ctypes.data)
        finally:
            _libc.free(address)
            _libc.free(tokens)
        assert 0 <= rows <= n and 0 <= state[1] <= state[0] <= len(data)

    def cuts(name: str, data: bytes, n: int, m: int) -> None:
        for cut in range(len(data) + 1):
            check(name, data[:cut], n, m)

    once = settings(max_examples=400, derandomize=True, database=None, deadline=None)
    every_cut = settings(max_examples=60, derandomize=True, database=None, deadline=None)
    tokens = st.binary(min_size=0, max_size=4)
    numerals = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False).map(lambda v: "%.9g" % v),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
        st.text(alphabet="0123456789.eE+-", max_size=20),
    )
    text_rows = st.lists(st.tuples(tokens, st.lists(numerals, min_size=1, max_size=3)),
                         min_size=1, max_size=3)
    vectors = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3)
    binary_rows = st.lists(st.tuples(tokens, vectors), min_size=1, max_size=3)

    @once
    @given(st.one_of(st.binary(max_size=40),
                     st.text(alphabet="0123456789.eE+- \nab", max_size=40).map(str.encode)),
           st.integers(1, 4), st.integers(1, 3))
    def any_bytes(data, n, m):
        check("scan_text", data, n, m)
        check("scan_binary", data, n, m)

    @every_cut
    @given(text_rows, st.integers(1, 3))
    def cut_text(rows, more):
        m = len(rows[0][1])
        data = b"".join(t + b" " + " ".join(v).encode() + b"\n" for t, v in rows)
        cuts("scan_text", data, len(rows) + more, m)

    @every_cut
    @given(binary_rows, st.integers(1, 3))
    def cut_binary(rows, more):
        m = len(rows[0][1])
        data = b"".join(t + b" " + np.array(v[:m] + [0] * (m - len(v)), dtype="<u4").tobytes()
                        for t, v in rows)
        cuts("scan_binary", data, len(rows) + more, m)

    any_bytes()
    cut_text()
    cut_binary()


def control() -> None:
    """Write 16 bytes per value into a 1-byte buffer."""
    values = np.ones((2, 3), dtype=np.float32)
    ends = np.empty(2, dtype=np.int64)
    out = _libc.malloc(1)
    _kernel.library().format_rows(values.ctypes.data, 2, 3, out, ends.ctypes.data)


def main(library: str, mode: str) -> None:
    _kernel.open_library = lambda: ctypes.CDLL(library)
    _kernel._library = _kernel._UNOPENED
    assert _kernel.library() is not None
    if mode == "control":
        control()
        return
    train_epochs()
    probe_epochs()
    format_blocks()
    scan_bytes()
    print("all entry points ran")


if __name__ == "__main__":
    main(*sys.argv[1:])
