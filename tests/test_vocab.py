"""Unit tests for vocabulary extraction and pretrained/corpus merging."""
from __future__ import annotations

import io
import re

import numpy as np
import pytest

from classvec import _kernel, embedding_io
from classvec.corpus import Document, from_documents
from classvec.embedding_io import (
    BLOCK_ROWS,
    FORMATS,
    BlockFile,
    EmbeddingChangedError,
    EmbeddingSet,
    load_file,
    save_binary,
    save_text,
)
from classvec.vocab import TunedEmbedding, build_vocab, init_unseen, merge

from _constructions import (
    bit_random_embedding,
    load_bytes,
    random_embedding,
    splitmix64,
    splitmix_uniform,
)


def _corpus(*token_lists: tuple[str, ...]):
    return from_documents([Document(toks, ("c",)) for toks in token_lists])


def _merged_set(model) -> EmbeddingSet:
    """The merged vectors, untuned: each corpus row its pretrained or
    seeded one."""
    return TunedEmbedding(model, model.corpus_rows.copy()).embedding_set()


def _unseen_rows(model) -> np.ndarray:
    """The seeded rows of the unseen tokens, in merged order."""
    return model.corpus_rows[[model.vocab.index[t] for t in model.unseen]]


def _block_lengths(n: int) -> list[int]:
    return [min(BLOCK_ROWS, n - i) for i in range(0, n, BLOCK_ROWS)]


class TestBuildVocab:
    def test_counts_and_first_appearance_indices(self):
        corpus = _corpus(("b", "a", "b"), ("c", "a", "b"))
        vocab = build_vocab(corpus)
        assert vocab.index == {"b": 0, "a": 1, "c": 2}
        assert list(vocab.index) == ["b", "a", "c"]
        assert vocab.counts.dtype == np.int64
        np.testing.assert_array_equal(vocab.counts, [3, 2, 1])
        assert int(vocab.counts.sum()) == 6
        assert len(vocab) == 3
        assert "a" in vocab and "z" not in vocab
        # the counted corpus, which training reads, stays out of the repr
        assert vocab.corpus is corpus
        assert "corpus" not in repr(vocab)

    def test_multilabel_documents_count_tokens_once(self):
        corpus = from_documents([Document(("a", "a"), ("x", "y"))])
        assert int(build_vocab(corpus).counts.sum()) == 2


class TestUnseenWords:
    def test_order_follows_vocabulary(self):
        emb = EmbeddingSet(["a", "c"], np.ones((2, 2), np.float32))
        vocab = build_vocab(_corpus(("d", "a", "b"), ("c",)))
        assert merge(emb, vocab, seed=1).unseen == ("d", "b")


class TestInitUnseen:
    def test_range_shape_and_dtype(self):
        for dim in (3, 8, 300):
            rows = init_unseen([f"w{i}" for i in range(2000)], dim, seed=3)
            assert rows.shape == (2000, dim)
            assert rows.dtype == np.float32
            assert np.all(rows >= -0.5 / dim) and np.all(rows < 0.5 / dim)
            assert abs(rows.mean()) < 0.01 / dim

    def test_matches_seeded_generator(self):
        # row by row from counter 0 of the seed's unseen-row stream
        rows = init_unseen(["x", "y"], 4, seed=7)
        key = splitmix64(7, _kernel.STREAM_UNSEEN)
        expected = [[np.float32((splitmix_uniform(key, 4 * i + j) - 0.5) / 4)
                     for j in range(4)] for i in range(2)]
        assert rows.tolist() == expected

    def test_empty_and_invalid(self):
        assert init_unseen([], 4, seed=0).shape == (0, 4)
        with pytest.raises(ValueError):
            init_unseen(["x"], 0, seed=0)


class TestMerge:
    def test_pretrained_rows_survive_bit_for_bit(self):
        rng = np.random.default_rng(17)
        pretrained = random_embedding(rng, 10, 6)
        corpus = _corpus(("t1", "t3", "new_a"), ("t3", "new_b"))
        model = merge(pretrained, build_vocab(corpus), seed=2)
        merged = _merged_set(model)
        assert len(model) == 12 and model.dim == 6
        assert merged.words[:10] == pretrained.words
        assert merged.matrix[:10].tobytes() == pretrained.matrix.tobytes()
        assert model.unseen == ("new_a", "new_b")
        assert merged.words[10:] == ["new_a", "new_b"]
        assert merged.matrix[10:].tobytes() == _unseen_rows(model).tobytes()

    def test_unseen_rows_use_seeded_initializer(self):
        rng = np.random.default_rng(19)
        pretrained = random_embedding(rng, 3, 4)
        corpus = _corpus(("u1", "u2"),)
        model = merge(pretrained, build_vocab(corpus), seed=42)
        np.testing.assert_array_equal(
            model.corpus_rows, init_unseen(["u1", "u2"], 4, seed=42)
        )
        with pytest.raises(ValueError, match="read-only"):
            model.corpus_rows[0, 0] = 1.0

    @pytest.mark.parametrize("token", ["", "x\ny", "x y", "x\u00a0y"],
                             ids=["empty", "newline", "space", "no-break-space"])
    def test_rejects_an_unseen_token_no_embedding_file_can_hold(self, token):
        # tokenize never yields these; a hand-made document can
        pretrained = random_embedding(np.random.default_rng(21), 3, 2)
        vocab = build_vocab(_corpus(("t0", "ok", token)))
        with pytest.raises(ValueError, match=f"^corpus token {re.escape(repr(token))} "
                                             "is empty or holds whitespace"):
            merge(pretrained, vocab, seed=1)

    @pytest.mark.parametrize("at", [0, BLOCK_ROWS + 3])
    def test_rejects_an_unseen_token_no_writer_can_encode(self, at):
        # a lone surrogate, in the first block of unseen tokens or a later
        # one: the merge fails before any row is seeded, where the writers
        # would fail part way through the tuned file
        pretrained = random_embedding(np.random.default_rng(21), 3, 2)
        unseen = [f"new{i}" for i in range(2 * BLOCK_ROWS)]
        unseen[at] = "x\ud800"
        vocab = build_vocab(_corpus(("t0", *unseen)))
        with pytest.raises(ValueError, match="^corpus token 'x\\\\ud800' does not "
                                             "encode as UTF-8, which no embedding file"):
            merge(pretrained, vocab, seed=1)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(20)
        pretrained = random_embedding(rng, 4, 3)
        corpus = _corpus(("x", "t0"),)
        a = merge(pretrained, build_vocab(corpus), seed=5)
        b = merge(pretrained, build_vocab(corpus), seed=5)
        c = merge(pretrained, build_vocab(corpus), seed=6)
        assert a.corpus_rows.tobytes() == b.corpus_rows.tobytes()
        assert a.corpus_rows.tobytes() != c.corpus_rows.tobytes()

    def test_rows_name_the_merged_row_of_each_vocabulary_row(self):
        pretrained = random_embedding(np.random.default_rng(22), 10, 3)
        vocab = build_vocab(_corpus(("new_a", "t7", "t2"), ("t7", "new_b", "t0")))
        model = merge(pretrained, vocab, seed=1)
        # pretrained tokens keep their rows; unseen ones follow, in
        # vocabulary order
        assert list(vocab.index) == ["new_a", "t7", "t2", "new_b", "t0"]
        assert model.rows.tolist() == [10, pretrained.index["t7"],
                                       pretrained.index["t2"], 11,
                                       pretrained.index["t0"]]
        assert model.rows.dtype == np.int64
        for array in (model.rows, vocab.counts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9

    def test_no_unseen_words(self):
        rng = np.random.default_rng(21)
        pretrained = random_embedding(rng, 4, 3)
        corpus = _corpus(("t0", "t1"),)
        model = merge(pretrained, build_vocab(corpus), seed=1)
        assert model.unseen == ()
        assert model.corpus_rows.tobytes() == pretrained.matrix[:2].tobytes()
        assert _merged_set(model).words == pretrained.words
        assert model.pretrained is pretrained

    def test_shares_the_pretrained_matrix(self):
        # the model holds the pretrained set itself and copies of the
        # corpus tokens' rows alone
        pretrained = random_embedding(np.random.default_rng(23), 50, 4)
        model = merge(pretrained, build_vocab(_corpus(("t3", "new_a"),)), seed=1)
        assert model.pretrained is pretrained
        assert model.corpus_rows.shape == (2, 4)
        assert not np.shares_memory(model.corpus_rows, pretrained.matrix)
        np.testing.assert_array_equal(
            model.corpus_rows, [pretrained.vector("t3"), init_unseen(["new_a"], 4, seed=1)[0]]
        )


class TestTunedEmbedding:
    def _tuned(self, n_pretrained):
        """A merged model whose corpus rows are spread over several blocks,
        with unseen rows on both sides of a block boundary, and tuned rows
        for it."""
        rng = np.random.default_rng(24)
        pretrained = random_embedding(rng, n_pretrained, 3)
        tokens = [f"t{j}" for j in rng.choice(n_pretrained, 40, replace=False)]
        tokens += [f"new{i}" for i in range(300)]
        rng.shuffle(tokens)
        model = merge(pretrained, build_vocab(_corpus(tuple(tokens))), seed=1)
        rows = rng.normal(size=(len(model.vocab), 3)).astype(np.float32)
        return model, rows

    @pytest.mark.parametrize("n_pretrained", [1000, 200])
    def test_blocks_write_each_corpus_row_over_its_merged_row(self, n_pretrained):
        model, rows = self._tuned(n_pretrained)
        expected = np.concatenate([model.pretrained.matrix, _unseen_rows(model)])
        expected[model.rows] = rows  # the V-row copy the blocks avoid
        words = model.pretrained.words + list(model.unseen)
        tuned = TunedEmbedding(model, rows)
        blocks = [(w, b.copy()) for w, b in tuned.blocks()]
        assert [len(w) for w, _ in blocks] == [len(b) for _, b in blocks]
        # the pretrained set's blocks, then the unseen rows'
        assert [len(w) for w, _ in blocks] == (
            _block_lengths(n_pretrained) + _block_lengths(len(model.unseen)))
        assert [t for w, _ in blocks for t in w] == words
        assert np.concatenate([b for _, b in blocks]).tobytes() == expected.tobytes()
        emb = tuned.embedding_set()
        assert emb.words == words and emb.matrix.tobytes() == expected.tobytes()
        assert not model.pretrained.matrix.flags.writeable  # written on copies
        assert (len(tuned), tuned.dim) == (len(model), 3)
        nan, inf = rows.copy(), rows.copy()
        nan[5, 1], inf[7, 0] = np.nan, -np.inf
        for bad, problem in ((rows[1:], "one row of 3 values per vocabulary token"),
                             (rows[:, 1:], "one row of 3 values per vocabulary token"),
                             (rows.astype(np.float64), "rows must be float32"),
                             (nan, "non-finite"), (inf, "non-finite")):
            with pytest.raises(ValueError, match=problem):
                TunedEmbedding(model, bad)

    @pytest.mark.parametrize("save", [save_text, save_binary])
    def test_writers_take_it_as_the_set_it_stands_for(self, save):
        model, rows = self._tuned(600)
        tuned = TunedEmbedding(model, rows)
        direct, via_set = io.BytesIO(), io.BytesIO()
        save(tuned, direct)
        save(tuned.embedding_set(), via_set)
        assert direct.getvalue() == via_set.getvalue()


class TestStreamedSource:
    """merge and TunedEmbedding read a BlockFile as they read the set it
    holds, once each."""

    def _files(self, tmp_path, fmt):
        model, rows = TestTunedEmbedding()._tuned(600)
        path = str(tmp_path / "pretrained")
        save = save_text if fmt == "text" else save_binary
        with open(path, "wb") as f:
            save(model.pretrained, f)
        return model, rows, path, save

    @pytest.mark.usefixtures("kernel_or_not")
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_streamed_file_merges_and_writes_as_its_set(self, tmp_path, fmt):
        loaded, rows, path, save = self._files(tmp_path, fmt)
        with BlockFile(path, fmt) as source:
            model = merge(source, loaded.vocab, seed=1)
            assert model.pretrained is source
            assert (len(model), model.dim, model.unseen) == (len(loaded), 3, loaded.unseen)
            assert model.rows.tobytes() == loaded.rows.tobytes()
            assert model.corpus_rows.tobytes() == loaded.corpus_rows.tobytes()
            tuned = TunedEmbedding(model, rows)
            expected = TunedEmbedding(loaded, rows)
            for write in (save_text, save_binary):
                direct, via_set = io.BytesIO(), io.BytesIO()
                write(tuned, direct)
                write(expected, via_set)
                assert direct.getvalue() == via_set.getvalue()
            emb = tuned.embedding_set()
            assert emb.matrix.tobytes() == expected.embedding_set().matrix.tobytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("change", ["corpus_row", "frozen_row", "frozen_token",
                                        "corpus_token"])
    def test_a_file_changed_after_the_merge_fails_the_write(self, tmp_path, fmt, change):
        loaded, rows, path, save = self._files(tmp_path, fmt)
        pretrained = loaded.pretrained
        # the last pretrained row of a corpus token, and a frozen row
        corpus_row = int(loaded.rows[loaded.rows < len(pretrained)].max())
        frozen = next(i for i in range(BLOCK_ROWS, len(pretrained))
                      if i not in set(loaded.rows.tolist()))
        words, matrix = list(pretrained.words), pretrained.matrix.copy()
        at = corpus_row if change.startswith("corpus") else frozen
        first = at - at % BLOCK_ROWS
        message = f"rows {first + 1} to {min(first + BLOCK_ROWS, len(words))} do not hold"
        if change.endswith("row"):
            matrix[at] = matrix[at][::-1]
            message += " the vectors read there before"
        else:
            words[at] = "x" + words[at][1:]
            message += " the tokens read there before"
        with BlockFile(path, fmt) as source:
            model = merge(source, loaded.vocab, seed=1)
            changed = io.BytesIO()
            save(EmbeddingSet(words, matrix), changed)
            with open(path, "r+b") as f:
                assert len(changed.getvalue()) == f.seek(0, io.SEEK_END)
                f.seek(0)
                f.write(changed.getvalue())
            with pytest.raises(EmbeddingChangedError, match=re.escape(message)):
                save_binary(TunedEmbedding(model, rows), io.BytesIO())

    @staticmethod
    def _export(save, tuned) -> bytes:
        out = io.BytesIO()
        save(tuned, out)
        return out.getvalue()

    @pytest.mark.usefixtures("kernel_or_not")
    @pytest.mark.parametrize("fmt, case", [
        (fmt, case) for fmt in FORMATS
        for case in ("blocks", "all_frozen", "all_corpus", "unterminated")
        if fmt == "text" or case != "unterminated"
    ])
    def test_the_byte_export_writes_what_formatting_every_row_writes(
            self, tmp_path, monkeypatch, fmt, case):
        # bit patterns the kernel formats and ones it declines, non-ASCII
        # tokens; more than one block of rows, and unseen rows across a
        # block boundary
        n = BLOCK_ROWS + 3 if case == "all_corpus" else 2 * BLOCK_ROWS + 37
        pretrained = bit_random_embedding(np.random.default_rng(25), n, 3)
        new = [f"new{i}" for i in range(BLOCK_ROWS + 44)]
        tokens = {
            "blocks": pretrained.words[3::7] + new,
            "all_frozen": new[:5],
            "all_corpus": pretrained.words,
            "unterminated": pretrained.words[::5] + new,
        }[case]
        vocab = build_vocab(_corpus(tuple(tokens)))
        save = save_text if fmt == "text" else save_binary
        data = self._export(save, pretrained)
        if case == "unterminated":
            data = data[:-1]  # the reader ends the last line with a newline
        path = str(tmp_path / "pretrained")
        with open(path, "wb") as f:
            f.write(data)
        rows = np.random.default_rng(26).normal(size=(len(vocab), 3)).astype(np.float32)
        # the slow reference: every row parsed, then formatted
        expected = self._export(save, TunedEmbedding(merge(load_file(path, fmt), vocab, 1), rows))
        formatted = []
        value_writer = "_text_values" if fmt == "text" else "_binary_values"
        write_values = getattr(embedding_io, value_writer)

        def counted(block, *args, **kwargs):
            formatted.append(len(block))
            return write_values(block, *args, **kwargs)

        def no_parse(*args):
            raise AssertionError("the export parsed the file")

        with BlockFile(path, fmt) as source:
            model = merge(source, vocab, seed=1)
            monkeypatch.setattr(embedding_io, value_writer, counted)
            monkeypatch.setattr(embedding_io, "_read_rows", no_parse)
            assert self._export(save, TunedEmbedding(model, rows)) == expected
        # the corpus rows and the unseen rows, and no frozen row
        assert sum(formatted) == len(vocab)

    def test_a_text_file_keeps_its_frozen_rows_as_written(self, tmp_path):
        pretrained = random_embedding(np.random.default_rng(27), BLOCK_ROWS + 9, 3)
        lines = [f"{w} " + " ".join("%.6f" % v for v in row)
                 for w, row in zip(pretrained.words, pretrained.matrix.tolist())]
        path = tmp_path / "pretrained.txt"
        path.write_text("".join(f"{line}\n" for line in [f"{len(lines)} 3"] + lines))
        vocab = build_vocab(_corpus(tuple(pretrained.words[5::50]) + ("novel",)))
        rows = np.random.default_rng(28).normal(size=(len(vocab), 3)).astype(np.float32)
        with BlockFile(str(path), "text") as source:
            model = merge(source, vocab, seed=1)
            out = self._export(save_text, TunedEmbedding(model, rows))
        written = out.decode().split("\n")
        for i, line in enumerate(lines):
            if pretrained.words[i] not in vocab:
                assert written[i + 1] == line
            else:
                assert written[i + 1] != line
        # the frozen rows' values are the input's, read as float32
        expected = TunedEmbedding(merge(load_file(str(path), "text"), vocab, 1), rows)
        reloaded = load_bytes(out, "text")
        assert reloaded.words == expected.embedding_set().words
        assert reloaded.matrix.tobytes() == expected.embedding_set().matrix.tobytes()
