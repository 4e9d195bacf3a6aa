"""End-to-end tests of the command-line driver."""
from __future__ import annotations

import argparse
import errno
import importlib.util
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import classvec
from classvec import _kernel, cli
from classvec.cli import build_parser, main
from classvec.embedding_io import (
    BLOCK_ROWS, BlockFile, EmbeddingSet, load_file, save_binary, save_text,
)

from _constructions import disable_kernel, random_embedding

README = Path(__file__).resolve().parents[1] / "README.md"


def _write_pretrained(path: str, fmt: str = "text") -> EmbeddingSet:
    """20 words in two well-separated clusters: spam0..9, ham0..9."""
    rng = np.random.default_rng(90)
    words, rows = [], []
    for ci, label in enumerate(("spam", "ham")):
        center = np.zeros(6)
        center[ci] = 4.0
        for i in range(10):
            words.append(f"{label}{i}")
            rows.append(center + rng.normal(0, 0.3, 6))
    emb = EmbeddingSet(words, np.array(rows, dtype=np.float32))
    with open(path, "wb") as f:
        (save_text if fmt == "text" else save_binary)(emb, f)
    return emb


def _write_corpus(path: str, multilabel: bool = False) -> None:
    lines = []
    for label in ("spam", "ham"):
        for i in range(10):
            toks = f"{label}{i} {label}{(i + 1) % 10} {label}{(i + 2) % 10}"
            if label == "spam" and i == 0:
                toks += " novel"  # one token without a pretrained vector
            field = f"{label},extra" if multilabel and i < 3 else label
            lines.append(f"{field}\t{toks}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.fixture()
def workspace(tmp_path):
    pre = str(tmp_path / "pretrained.txt")
    corpus = str(tmp_path / "corpus.tsv")
    _write_pretrained(pre)
    _write_corpus(corpus)
    return tmp_path, pre, corpus


class TestFinetuneCommand:
    def test_writes_tuned_embeddings_and_reports(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        out = str(tmp_path / "tuned.txt")
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "2",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "vocab\tV=20\tV_T=21\tV_unseen=1" in stdout
        assert "drift\tcosine[min=" in stdout
        tuned = load_file(out, "text")
        assert len(tuned) == 21
        assert "novel" in tuned

    def test_binary_format_round_trip(self, workspace, capsys):
        tmp_path, _, corpus = workspace
        pre_bin = str(tmp_path / "pretrained.bin")
        _write_pretrained(pre_bin, fmt="bin")
        out = str(tmp_path / "tuned.bin")
        rc = main([
            "finetune", "--pretrained", pre_bin, "--format", "bin",
            "--corpus", corpus, "--out", out, "--epochs", "1",
        ])
        assert rc == 0
        assert len(load_file(out, "bin")) == 21

    def test_exports_class_vectors(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        out = str(tmp_path / "tuned.txt")
        cv_path = str(tmp_path / "classes.txt")
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "1",
            "--export-class-vectors", cv_path,
        ])
        assert rc == 0
        cv = load_file(cv_path, "text")
        assert cv.words == ["spam", "ham"]
        assert cv.dim == 6

    def test_unexportable_class_name_fails_before_writing(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        corpus = tmp_path / "spaced.tsv"
        corpus.write_text("sports news\tspam0 spam1\nham\tham0 ham1\n")
        out, cv_path = tmp_path / "tuned.txt", tmp_path / "classes.txt"
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", str(corpus),
            "--out", str(out), "--epochs", "1",
            "--export-class-vectors", str(cv_path),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "'sports news'" in captured.err
        assert captured.out == ""
        assert not out.exists() and not cv_path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.tsv", "pretrained.txt", "spaced.tsv",
        ]

    def test_multilabel_corpus(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        corpus = str(tmp_path / "ml.tsv")
        _write_corpus(corpus, multilabel=True)
        out = str(tmp_path / "tuned.txt")
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "1", "--multilabel",
        ])
        assert rc == 0

    def test_missing_input_fails_cleanly(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main([
            "finetune", "--pretrained", pre,
            "--corpus", str(tmp_path / "absent.tsv"),
            "--out", str(tmp_path / "x.txt"),
        ])
        assert rc == 1
        assert "error: no such file" in capsys.readouterr().err

    def test_failed_write_leaves_no_partial_artifact(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        out_dir = tmp_path / "taken"
        out_dir.mkdir()
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", str(out_dir), "--epochs", "1",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_artifacts_get_the_mode_of_a_new_file(self, workspace, capsys, umask):
        tmp_path, pre, corpus = workspace
        tuned, classes, probe = (tmp_path / n for n in ("tuned.txt", "classes.txt", "probe.clf"))
        old = os.umask(umask)
        try:
            assert main(["finetune", "--pretrained", pre, "--corpus", corpus,
                         "--out", str(tuned), "--epochs", "1",
                         "--export-class-vectors", str(classes)]) == 0
            assert main(["train-clf", "--embeddings", str(tuned), "--corpus", corpus,
                         "--out", str(probe), "--epochs", "1"]) == 0
        finally:
            os.umask(old)
        for path in (tuned, classes, probe):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path

    @pytest.mark.parametrize("path", ["kernel_library", "no_kernel"])
    def test_divergent_run_fails_after_the_first_epoch(self, workspace, capsys,
                                                       request, path):
        # the numpy fallback warns of no overflow on the way: the error says it
        request.getfixturevalue(path)
        tmp_path, pre, corpus = workspace
        out = tmp_path / "tuned.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["finetune", "--pretrained", pre, "--corpus", corpus,
                       "--out", str(out), "--lr", "1e30", "--min-lr", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: non-finite values after epoch 1\n" in err
        assert "epoch 1/" not in err
        assert not out.exists()

    def test_default_runs_are_byte_identical_and_match_readme(self, workspace, capsys):
        # the defaults come from FinetuneConfig, the merge seed among them
        tmp_path, pre, corpus = workspace
        readme_defaults = ["--epochs", "10", "--window", "5", "--negative", "5",
                           "--lr", "0.025", "--min-lr", "0.0001", "--seed", "1"]
        outputs = []
        for name, flags in (("a", []), ("b", []), ("c", readme_defaults)):
            out = tmp_path / f"{name}.txt"
            assert main(["finetune", "--pretrained", pre, "--corpus", corpus,
                         "--out", str(out), *flags]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "epochs must be >= 1"),
        (["--lr", "0.001", "--min-lr", "0.01"], "need alpha0 > alpha_min > 0"),
        (["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
        (["--lr", "inf"], "alpha0 must be finite, got inf"),
    ])
    def test_settings_are_checked_before_any_file_is_read(self, tmp_path, capsys,
                                                          flags, message):
        missing = str(tmp_path / "missing.txt")
        rc = main(["finetune", "--pretrained", missing, "--corpus", missing,
                   "--out", str(tmp_path / "tuned.txt"), *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    def test_drift_line_is_the_drift_command_summary(self, tmp_path, capsys, fmt):
        # finetune compares the corpus rows alone and counts every other
        # pretrained row as unchanged, cosine exactly 1 and shift 0; at the
        # printed precision that is the summary of comparing the two files
        pre, corpus, out = (str(tmp_path / n) for n in ("pre", "corpus.tsv", "tuned"))
        clusters = _write_pretrained(pre)
        rng = np.random.default_rng(91)
        words = clusters.words + [f"other{i}" for i in range(30)]
        matrix = np.concatenate([clusters.matrix,
                                 rng.normal(0, 1, (30, 6)).astype(np.float32)])
        with open(pre, "wb") as f:
            (save_text if fmt == "text" else save_binary)(EmbeddingSet(words, matrix), f)
        _write_corpus(corpus)
        assert main(["finetune", "--pretrained", pre, "--corpus", corpus, "--out", out,
                     "--format", fmt, "--epochs", "3"]) == 0
        printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("drift\t")]
        assert main(["drift", "--before", pre, "--after", out, "--format", fmt]) == 0
        report = capsys.readouterr().out.splitlines()
        assert printed == report[:1]
        assert "shared=50\t" in report[1]  # the 30 frozen rows count

    def test_malformed_corpus_reports_line(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_text("spam\tok text\nbroken line without tab\n")
        rc = main([
            "finetune", "--pretrained", pre, "--corpus", str(bad),
            "--out", str(tmp_path / "x.txt"),
        ])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err


class TestOutputPaths:
    """An output that cannot be written, or whose writing would replace an
    input or the other output, fails before any file is read, and no file
    changes."""

    @pytest.fixture()
    def nothing_read(self, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("a file was read")

        for name in ("BlockFile", "load_file", "load_tsv", "load_classifier"):
            monkeypatch.setattr(cli, name, read)

    @pytest.mark.usefixtures("nothing_read")
    @pytest.mark.parametrize("case", [
        "missing-directory", "directory", "pretrained", "class-vectors-out",
        "probe-embeddings", "probe-corpus", "missing-input-first",
    ])
    def test_fails_before_any_file_is_read(self, workspace, capsys, case):
        tmp_path, pre, corpus = workspace
        (tmp_path / "adir").mkdir()
        out = str(tmp_path / "tuned.txt")
        tune = ["finetune", "--pretrained", pre, "--corpus", corpus, "--out"]
        probe = ["train-clf", "--embeddings", pre, "--corpus", corpus, "--out"]
        # each path as the user gave it, spelled unlike the input it names
        missing = str(tmp_path / "missing" / "tuned.txt")
        again = os.path.join(str(tmp_path), ".", "pretrained.txt")
        spelled = str(tmp_path / "x" / ".." / "tuned.txt")
        argv, code, message = {
            "missing-directory": (
                tune + [missing], 1, f"error: no directory for output: {missing}"),
            "directory": (
                tune + [str(tmp_path / "adir")], 1,
                f"error: output is a directory: {tmp_path / 'adir'}"),
            "pretrained": (
                tune + [again], 2, f"usage error: --out {again} names the file of --pretrained"),
            "class-vectors-out": (
                tune + [out, "--export-class-vectors", spelled], 2,
                f"usage error: --export-class-vectors {spelled} names the file of --out"),
            "probe-embeddings": (
                probe + [again], 2,
                f"usage error: --out {again} names the file of --embeddings"),
            "probe-corpus": (
                probe + [os.path.relpath(corpus)], 2,
                f"usage error: --out {os.path.relpath(corpus)} names the file of --corpus"),
            "missing-input-first": (
                ["finetune", "--pretrained", pre, "--corpus", str(tmp_path / "absent.tsv"),
                 "--out", missing], 1, f"error: no such file: {tmp_path / 'absent.tsv'}"),
        }[case]
        inputs = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        rc = main(argv)
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (code, "", message + "\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == inputs

    @pytest.mark.parametrize("step", ["mkstemp", "replace"])
    def test_a_failed_write_names_the_output(self, workspace, capsys, monkeypatch, step):
        # the errors of the temp file and the rename name the output the
        # user gave, never the temp file, which is gone
        tmp_path, pre, corpus = workspace
        out = str(tmp_path / "tuned.txt")
        real = {"mkstemp": tempfile.mkstemp, "replace": os.replace}[step]

        def fail(*args, **kwargs):
            if step == "replace":
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), *args)
            _, tmp = real(*args, **kwargs)
            os.unlink(tmp)
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), tmp)

        monkeypatch.setattr({"mkstemp": tempfile, "replace": os}[step], step, fail)
        rc = main(["finetune", "--pretrained", pre, "--corpus", corpus, "--out", out,
                   "--epochs", "1"])
        err = capsys.readouterr().err
        code = errno.EXDEV if step == "replace" else errno.EACCES
        assert rc == 1
        assert err == f"error: [Errno {code}] {os.strerror(code)}: {out!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.tsv", "pretrained.txt"]


class TestClassifierCommands:
    def _finetune(self, tmp_path, pre, corpus):
        out = str(tmp_path / "tuned.txt")
        assert main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "2",
        ]) == 0
        return out

    def test_train_and_eval_exclusive(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        tuned = self._finetune(tmp_path, pre, corpus)
        model = str(tmp_path / "probe.clf")
        rc = main([
            "train-clf", "--embeddings", tuned, "--corpus", corpus,
            "--out", model,
        ])
        assert rc == 0
        assert "model\tclasses=2\tmode=exclusive" in capsys.readouterr().out
        rc = main([
            "eval", "--model", model, "--embeddings", tuned,
            "--corpus", corpus,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip("\n").split("\n")
        machine = lines[-1].split("\t")
        assert len(machine) == 10
        assert machine[0] == "exclusive"
        assert machine[1] == "20"
        assert float(machine[2]) >= 0.95  # separable training corpus
        assert machine[7:] == ["-", "-", "-"]
        assert lines[-2] == ""  # blank line between report and record
        assert any(l.startswith("accuracy") for l in lines)

    def test_train_and_eval_multilabel(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        corpus = str(tmp_path / "ml.tsv")
        _write_corpus(corpus, multilabel=True)
        model = str(tmp_path / "probe.clf")
        rc = main([
            "train-clf", "--embeddings", pre, "--corpus", corpus,
            "--out", model, "--multilabel", "--threshold", "0.5",
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "eval", "--model", model, "--embeddings", pre,
            "--corpus", corpus,
        ])
        assert rc == 0
        machine = capsys.readouterr().out.strip("\n").split("\n")[-1].split("\t")
        assert machine[0] == "multilabel"
        assert "-" not in machine
        for field in machine[2:]:
            float(field)

    def test_eval_rejects_dimension_mismatch(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        model = str(tmp_path / "probe.clf")
        assert main([
            "train-clf", "--embeddings", pre, "--corpus", corpus,
            "--out", model,
        ]) == 0
        other = str(tmp_path / "other.txt")
        with open(other, "wb") as f:
            save_text(EmbeddingSet(["spam0"], np.ones((1, 3), np.float32)), f)
        rc = main(["eval", "--model", model, "--embeddings", other,
                   "--corpus", corpus])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("multilabel", [False, True])
    def test_divergent_probe_fails_after_the_first_epoch(self, workspace, capsys,
                                                         monkeypatch, multilabel):
        tmp_path, pre, corpus = workspace
        if multilabel:
            corpus = str(tmp_path / "ml.tsv")
            _write_corpus(corpus, multilabel=True)
        model = tmp_path / "probe.clf"
        # on the kernel, then on the fallback, which warns of nothing either
        for fallback in (False, True):
            if fallback:
                disable_kernel(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["train-clf", "--embeddings", pre, "--corpus", corpus,
                           "--out", str(model), "--lr", "1e308",
                           *(["--multilabel"] if multilabel else [])])
            assert rc == 1
            err = capsys.readouterr().err
            assert "error: non-finite probe parameters after epoch 1" in err
            assert "probe done" not in err
            assert not model.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--threshold", "2"], "threshold must be in (0, 1)"),
        (["--threshold", "nan"], "threshold must be in (0, 1)"),
        (["--epochs", "0"], "epochs must be >= 1"),
        (["--lr", "nan"], "lr must be positive and finite, got nan"),
        (["--lr", "inf"], "lr must be positive and finite, got inf"),
        (["--seed", str(2**64)], f"seed must be in [0, 2**64), got {2**64}"),
    ])
    def test_settings_are_checked_before_any_file_is_read(self, tmp_path, capsys,
                                                          flags, message):
        missing = str(tmp_path / "missing.txt")
        rc = main(["train-clf", "--embeddings", missing, "--corpus", missing,
                   "--out", str(tmp_path / "probe.clf"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "no such file" not in err
        assert not (tmp_path / "probe.clf").exists()


class TestInspectionCommands:
    def test_nn_output_and_bounds(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["nn", "--embeddings", pre, "--word", "spam0", "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        sims = []
        for line in lines:
            token, sim = line.split("\t")
            assert token != "spam0"
            sims.append(float(sim))
        assert sims == sorted(sims, reverse=True)
        assert sims[0] > 0.9  # same-cluster neighbor

    def test_nn_calls_the_name_bound_in_the_cli_module(self, workspace, monkeypatch,
                                                       capsys):
        # a wrapper set on classvec.cli (a tracer, a test's patch) is what runs
        tmp_path, pre, _ = workspace
        calls = []
        block_file = cli.BlockFile

        def BlockFile(path, fmt):
            calls.append(("BlockFile", path))
            return block_file(path, fmt)

        def nearest_neighbors(emb, token, k):
            calls.append(("nearest_neighbors", len(emb), token, k))
            return [("b", 0.0)]

        monkeypatch.setattr(classvec.cli, "BlockFile", BlockFile)
        monkeypatch.setattr(classvec.cli, "nearest_neighbors", nearest_neighbors)
        assert main(["nn", "--embeddings", pre, "--word", "a", "--k", "1"]) == 0
        assert calls == [("BlockFile", pre), ("nearest_neighbors", 20, "a", 1)]
        assert capsys.readouterr().out == "b\t0.000000\n"

    def test_nn_k_too_large_is_a_usage_error(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["nn", "--embeddings", pre, "--word", "spam0", "--k", "20"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nn_k_below_one_is_a_usage_error(self, workspace, capsys, k):
        tmp_path, pre, _ = workspace
        rc = main(["nn", "--embeddings", pre, "--word", "spam0", "--k", k])
        assert rc == 2
        captured = capsys.readouterr()
        assert "usage error: --k must be at least 1" in captured.err
        assert captured.out == ""

    def test_nn_unknown_word(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["nn", "--embeddings", pre, "--word", "nope", "--k", "2"])
        assert rc == 1
        assert "unknown word 'nope'" in capsys.readouterr().err

    def test_sim_self_similarity(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["sim", "--embeddings", pre, "spam0", "spam0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_sim_unknown_word(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["sim", "--embeddings", pre, "spam0", "nope"])
        assert rc == 1
        assert "unknown word" in capsys.readouterr().err

    def test_drift_report(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        out = str(tmp_path / "tuned.txt")
        assert main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "2",
        ]) == 0
        capsys.readouterr()
        rc = main(["drift", "--before", pre, "--after", out, "--top", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("drift\tcosine[min=")
        assert lines[1] == "shared=20\tonly_before=0\tonly_after=1"
        assert lines[2].startswith("token")
        assert len(lines) == 3 + 5  # summary + counts + header + top 5


    def test_drift_negative_top_is_a_usage_error(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["drift", "--before", pre, "--after", pre, "--top", "-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "usage error: --top must be at least 0" in captured.err
        assert captured.out == ""

    def test_drift_errors_come_in_order_and_print_nothing(self, workspace, capsys):
        # the --before header, then --after, then the dimension mismatch of
        # the headers, then a --before row; each with the loader's message
        tmp_path, pre, _ = workspace
        lines = Path(pre).read_bytes().split(b"\n")
        files = {
            "bad_header": b"2 x\n",
            "bad_row": b"\n".join(lines[:5] + [lines[5].replace(b" ", b" x", 1)] + lines[6:]),
            "bad_after": b"\n".join(lines[:3] + [b"spam0 1 2 3 4 5 6"] + lines[4:]),
            "wide": b"1 7\nspam0 1 2 3 4 5 6 7\n",
        }
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        for before, after, message in (
            ("bad_header", "bad_after", "line 1: non-integer header fields"),
            ("bad_row", "bad_after", "line 4: duplicate token 'spam0'"),
            ("bad_row", "wide", "dimension mismatch: 6 vs 7"),
            ("bad_row", pre, "line 6: malformed value"),
        ):
            rc = main(["drift", "--before", str(tmp_path / before),
                       "--after", str(tmp_path / after), "--top", "3"])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (1, "")
            assert captured.err == f"error: {message}\n"

    def test_drift_top_zero_lists_no_entries(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["drift", "--before", pre, "--after", pre, "--top", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3 and lines[2].startswith("token")


def _bad_files(tmp_path, pre: str) -> dict[str, str]:
    """Faulty inputs next to the workspace's: a pretrained file with a
    malformed value on line 6, one of another dimension, and a corpus
    whose line 2 has no tab."""
    lines = Path(pre).read_bytes().split(b"\n")
    files = {
        "bad_row": b"\n".join(lines[:5] + [lines[5].replace(b" ", b" x", 1)] + lines[6:]),
        "wide": b"1 7\nspam0 1 2 3 4 5 6 7\n",
        "bad_corpus": b"spam\tok text\nbroken line without tab\n",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return {name: str(tmp_path / name) for name in files}


class TestStreamedStages:
    """finetune, train-clf, eval and sim read their embedding file as a
    stream after the corpus, yet report its errors first, as when it was
    loaded before anything else; nn and drift report their files' errors
    before any other, as a load would."""

    def _errors(self, capsys, *cases) -> None:
        for argv, message in cases:
            rc = main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n"), argv

    def test_finetune_errors_come_in_order(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        bad = _bad_files(tmp_path, pre)
        out = str(tmp_path / "tuned.txt")
        spaced = tmp_path / "spaced.tsv"
        spaced.write_text("two words\tspam0 ham0\n")
        self._errors(
            capsys,
            (["finetune", "--pretrained", bad["bad_row"], "--corpus", bad["bad_corpus"],
              "--out", out], "line 6: malformed value"),
            (["finetune", "--pretrained", bad["bad_row"], "--corpus", str(spaced),
              "--out", out, "--export-class-vectors", str(tmp_path / "cv.txt")],
             "line 6: malformed value"),
            (["finetune", "--pretrained", pre, "--corpus", bad["bad_corpus"],
              "--out", out], "line 2: no tab separator"),
        )
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["pretrained.txt", "corpus.tsv", "spaced.tsv", *bad])

    def test_train_clf_errors_come_in_order(self, workspace, capsys):
        tmp_path, pre, corpus = workspace
        bad = _bad_files(tmp_path, pre)
        out = str(tmp_path / "probe.clf")
        self._errors(
            capsys,
            (["train-clf", "--embeddings", bad["bad_row"], "--corpus", bad["bad_corpus"],
              "--out", out], "line 6: malformed value"),
            (["train-clf", "--embeddings", pre, "--corpus", bad["bad_corpus"],
              "--out", out], "line 2: no tab separator"),
        )
        assert not os.path.exists(out)

    def test_eval_errors_come_in_order(self, workspace, capsys):
        # a row of the embedding file, then the dimension mismatch, then
        # the corpus
        tmp_path, pre, corpus = workspace
        bad = _bad_files(tmp_path, pre)
        model = str(tmp_path / "probe.clf")
        assert main(["train-clf", "--embeddings", pre, "--corpus", corpus,
                     "--out", model, "--epochs", "2"]) == 0
        capsys.readouterr()
        wide_bad = tmp_path / "wide_bad"
        wide_bad.write_bytes(b"2 7\nspam0 1 2 3 4 5 6 7\nspam1 1 2 x 4 5 6 7\n")
        self._errors(
            capsys,
            (["eval", "--model", model, "--embeddings", bad["bad_row"],
              "--corpus", bad["bad_corpus"]], "line 6: malformed value"),
            (["eval", "--model", model, "--embeddings", str(wide_bad),
              "--corpus", bad["bad_corpus"]], "line 3: malformed value"),
            (["eval", "--model", model, "--embeddings", str(wide_bad),
              "--corpus", corpus], "line 3: malformed value"),
            (["eval", "--model", model, "--embeddings", bad["wide"],
              "--corpus", bad["bad_corpus"]],
             "embedding dim 7 does not match model dim 6"),
            (["eval", "--model", model, "--embeddings", pre,
              "--corpus", bad["bad_corpus"]], "line 2: no tab separator"),
        )

    def test_sim_errors_come_in_order(self, workspace, capsys):
        # a bad row anywhere in the file outranks an unknown word
        tmp_path, pre, _ = workspace
        bad = _bad_files(tmp_path, pre)
        self._errors(
            capsys,
            (["sim", "--embeddings", bad["bad_row"], "spam0", "nope"],
             "line 6: malformed value"),
            (["sim", "--embeddings", bad["bad_row"], "spam0", "spam1"],
             "line 6: malformed value"),
            (["sim", "--embeddings", pre, "spam0", "nope"], "unknown word 'nope'"),
        )

    def test_nn_errors_come_in_order(self, tmp_path, capsys):
        # nn reads its file whole, then the blocks before the query's block
        # again; a bad row past the query's block still outranks --k not
        # below the vocabulary size, an unknown word and a zero query vector
        emb = random_embedding(np.random.default_rng(97), BLOCK_ROWS + 44, 3)
        matrix = emb.matrix.copy()
        matrix[1] = 0.0
        good = tmp_path / "good"
        with open(good, "wb") as f:
            save_text(EmbeddingSet(emb.words, matrix), f)
        lines = good.read_bytes().split(b"\n")
        lines[BLOCK_ROWS + 20] = lines[BLOCK_ROWS + 20].replace(b" ", b" x", 1)
        bad = tmp_path / "bad"
        bad.write_bytes(b"\n".join(lines))
        size = str(len(emb))
        broken = f"line {BLOCK_ROWS + 21}: malformed value"
        self._errors(
            capsys,
            (["nn", "--embeddings", str(bad), "--word", "t0", "--k", "3"], broken),
            (["nn", "--embeddings", str(bad), "--word", "t0", "--k", size], broken),
            (["nn", "--embeddings", str(bad), "--word", "nope", "--k", "3"], broken),
            (["nn", "--embeddings", str(bad), "--word", "t1", "--k", "3"], broken),
            (["nn", "--embeddings", str(good), "--word", "nope", "--k", "3"],
             "unknown word 'nope'"),
            (["nn", "--embeddings", str(good), "--word", "t1", "--k", "3"],
             "cosine of a zero vector is undefined"),
        )
        assert main(["nn", "--embeddings", str(good), "--word", "nope", "--k", size]) == 2
        assert capsys.readouterr().err == (
            f"usage error: --k must be below the vocabulary size {size}\n")

    @pytest.mark.usefixtures("kernel_or_not")
    def test_drift_errors_come_in_order_when_both_files_stream(self, tmp_path, capsys):
        # drift reads a block of --before, then one of --after; an error of
        # --after still comes first, wherever the two errors are: "edge"
        # fails in the first row of its second block, while the files agree
        emb = random_embedding(np.random.default_rng(98), 2 * BLOCK_ROWS + 9, 3)
        with open(tmp_path / "good", "wb") as f:
            save_text(emb, f)
        good = (tmp_path / "good").read_bytes().split(b"\n")
        files = {}
        for name, line in (("early", 21), ("edge", BLOCK_ROWS + 2),
                           ("late", 2 * BLOCK_ROWS + 5)):
            lines = list(good)
            lines[line - 1] = lines[line - 1].replace(b" ", b" x", 1)
            files[name] = tmp_path / name
            files[name].write_bytes(b"\n".join(lines))
        files["good"] = tmp_path / "good"
        (tmp_path / "wide").write_bytes(b"1 4\nt0 1 2 3 4\n")
        files["wide"] = tmp_path / "wide"
        for before, after, message in (
            ("early", "late", f"line {2 * BLOCK_ROWS + 5}: malformed value"),
            ("late", "early", "line 21: malformed value"),
            ("edge", "late", f"line {2 * BLOCK_ROWS + 5}: malformed value"),
            ("edge", "good", f"line {BLOCK_ROWS + 2}: malformed value"),
            ("late", "good", f"line {2 * BLOCK_ROWS + 5}: malformed value"),
            ("good", "late", f"line {2 * BLOCK_ROWS + 5}: malformed value"),
            ("late", "wide", "dimension mismatch: 3 vs 4"),
            ("wide", "late", f"line {2 * BLOCK_ROWS + 5}: malformed value"),
        ):
            rc = main(["drift", "--before", str(files[before]),
                       "--after", str(files[after]), "--top", "3"])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n"), \
                (before, after)

    def test_nn_fails_when_the_file_changes_between_its_reads(self, tmp_path, capsys,
                                                            monkeypatch):
        # nn reads the file whole, then the blocks before the query's again;
        # a row changed there in between fails, and nothing is printed
        emb = random_embedding(np.random.default_rng(99), BLOCK_ROWS + 44, 3)
        path = str(tmp_path / "emb.txt")
        with open(path, "wb") as f:
            save_text(emb, f)
        matrix = emb.matrix.copy()
        matrix[5] = matrix[5][::-1]

        class Rewritten(BlockFile):
            """The file is rewritten once the first read has ended."""
            reads = 0

            def blocks(self):
                if self.reads == 1:
                    with open(path, "wb") as f:
                        save_text(EmbeddingSet(emb.words, matrix), f)
                self.reads += 1
                return super().blocks()

        monkeypatch.setattr(cli, "BlockFile", Rewritten)
        rc = main(["nn", "--embeddings", path, "--word", f"t{BLOCK_ROWS + 3}", "--k", "3"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == (
            f"error: the file changed after it was first read: rows 1 to {BLOCK_ROWS} "
            "do not hold the vectors read there before\n")

    @pytest.mark.parametrize("fmt", ["text", "bin"])
    @pytest.mark.parametrize("change, message", [
        ("corpus_row", "the file changed after it was first read: rows 1 to 20 do "
                       "not hold the vectors read there before"),
        ("frozen_row", "the file changed after it was first read: rows 1 to 21 do "
                       "not hold the vectors read there before"),
        ("token", "the file changed after it was first read: rows 1 to 20 do "
                  "not hold the tokens read there before"),
    ])
    def test_finetune_fails_when_the_pretrained_file_changes_between_its_reads(
            self, workspace, capsys, monkeypatch, fmt, change, message):
        # the file is rewritten in place, at its length, while training
        # runs: between merge's read and the export's
        tmp_path, _, corpus = workspace
        pre = str(tmp_path / f"pretrained.{fmt}")
        emb = _write_pretrained(pre, fmt)
        if change == "frozen_row":
            # every word of the file is a corpus word: add one that is not
            emb = EmbeddingSet(emb.words + ["frozen"],
                               np.vstack([emb.matrix, emb.matrix[:1] * 2]))
            with open(pre, "wb") as f:
                (save_text if fmt == "text" else save_binary)(emb, f)
        if change.endswith("_row"):
            at = 3 if change == "corpus_row" else 20
            matrix = emb.matrix.copy()
            matrix[at] = matrix[at][::-1]  # the same numerals, in another order
            changed = EmbeddingSet(emb.words, matrix)
        else:
            changed = EmbeddingSet([w.replace("ham5", "hbm5") for w in emb.words],
                                   emb.matrix)
        with io.BytesIO() as f:
            (save_text if fmt == "text" else save_binary)(changed, f)
            data = f.getvalue()
        assert len(data) == os.path.getsize(pre)
        train = cli.finetune

        def finetune_then_change(model, cfg):
            result = train(model, cfg)
            with open(pre, "r+b") as f:
                f.write(data)
            return result

        monkeypatch.setattr(cli, "finetune", finetune_then_change)
        out = tmp_path / "tuned.vec"
        rc = main(["finetune", "--pretrained", pre, "--format", fmt,
                   "--corpus", corpus, "--out", str(out), "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["pretrained.txt", "corpus.tsv", f"pretrained.{fmt}"])


    def test_finetune_fails_when_a_frozen_numeral_is_rewritten_to_its_value(
            self, workspace, capsys, monkeypatch):
        # the export copies frozen rows as the file holds them, so a rewrite
        # that parses to the same values is a change too
        tmp_path, pre, corpus = workspace
        data = Path(pre).read_bytes().replace(b"20 6\n", b"21 6\n", 1)
        data += b"frozen 0.50 1 2 3 4 5\n"
        Path(pre).write_bytes(data)
        train = cli.finetune

        def finetune_then_change(model, cfg):
            result = train(model, cfg)
            with open(pre, "r+b") as f:
                f.write(data.replace(b"frozen 0.50 ", b"frozen 5e-1 "))
            return result

        monkeypatch.setattr(cli, "finetune", finetune_then_change)
        out = tmp_path / "tuned.vec"
        rc = main(["finetune", "--pretrained", pre, "--corpus", corpus,
                   "--out", str(out), "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.endswith(
            "error: the file changed after it was first read: rows 1 to 21 do not "
            "hold the vectors read there before\n")
        assert not out.exists()

@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", ["text", "bin"])
class TestWideHeaders:
    """A header that parses but declares rows wider than this machine can
    hold, or than the file holds, fails every command with the file's own
    error and exit status 1, not a MemoryError."""

    def _errors(self, capsys, workspace, fmt: str, header: bytes, message: str) -> None:
        tmp_path, pre, corpus = workspace
        path = str(tmp_path / f"wide.{fmt}")
        with open(path, "wb") as f:
            f.write(header + (b"a 1\nb 2\n" if fmt == "text" else
                              b"a " + np.float32(1).tobytes() + b"b " + np.float32(2).tobytes()))
        other = str(tmp_path / f"other.{fmt}")  # a file of another dim
        _write_pretrained(other, fmt)
        model = str(tmp_path / "probe.clf")
        assert main(["train-clf", "--embeddings", pre, "--corpus", corpus,
                     "--out", model, "--epochs", "1"]) == 0
        capsys.readouterr()
        for argv in (
            ["nn", "--embeddings", path, "--word", "a", "--k", "1"],
            ["sim", "--embeddings", path, "a", "b"],
            ["drift", "--before", path, "--after", path],
            # drift's row type, of --after's dim, comes after the dim check
            ["drift", "--before", other, "--after", path],
            ["finetune", "--pretrained", path, "--corpus", corpus,
             "--out", str(tmp_path / "tuned")],
            ["train-clf", "--embeddings", path, "--corpus", corpus,
             "--out", str(tmp_path / "wide.clf")],
            ["eval", "--model", model, "--embeddings", path, "--corpus", corpus],
        ):
            rc = main([*argv, "--format", fmt])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (1, "", f"error: {message}\n"), argv
        assert not os.path.exists(tmp_path / "tuned")
        assert not os.path.exists(tmp_path / "wide.clf")

    def test_a_block_too_large_to_allocate_fails_as_a_load(self, workspace, capsys, fmt):
        # 2 x 5e17 float32 values (3.47 EiB): the header parses, but not
        # even the reader's block of two rows can be allocated
        what = "line 1" if fmt == "text" else "header"
        self._errors(capsys, workspace, fmt, b"2 500000000000000000\n",
                     f"{what}: 2 x 500000000000000000 values are more than memory holds")

    def test_a_header_wider_than_its_file_asks_for_no_more_than_the_file(
            self, workspace, capsys, fmt):
        # a chunk of 256 rows of 40000000 values is 41 GB (binary) or 164 GB
        # (text); the reader asks its file for a bounded amount at a time
        self._errors(capsys, workspace, fmt, b"2 40000000\n",
                     "line 2: expected 40000001 space-separated fields, got 2"
                     if fmt == "text" else
                     "byte 13: truncated stream mid-vector (word 1 of 2, got 10 of "
                     "160000000 bytes)")


class TestParser:
    def test_invalid_format_is_rejected_by_argparse(self, workspace):
        tmp_path, pre, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["nn", "--embeddings", pre, "--format", "json",
                  "--word", "spam0", "--k", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_eval_help_documents_machine_fields(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "machine-readable" in text
        assert "weighted_f1" in text


    def test_help_opens_no_library(self, monkeypatch, capsys):
        def no_library():
            raise AssertionError("--help opened the kernel library")

        def no_path():
            raise AssertionError("--help computed the kernel library's path")

        monkeypatch.setattr(_kernel, "open_library", no_library)
        monkeypatch.setattr(_kernel, "library_path", no_path)
        monkeypatch.setattr(_kernel, "_library", _kernel._UNOPENED)
        for argv in ([], ["finetune"], ["train-clf"], ["eval"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
        assert _kernel._library is _kernel._UNOPENED


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def _code_block(section: str, language: str) -> str:
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    actions = build_parser()._subparsers._group_actions
    return dict(actions[0].choices)


class TestReadme:
    """README's "Command line" and "Library use" sections against the code."""

    def test_command_lines_parse(self):
        block = _code_block(_readme_section("Command line"), "sh").replace("\\\n", " ")
        commands = [shlex.split(line) for line in block.splitlines()
                    if line.startswith("classvec ")]
        assert {argv[1] for argv in commands} == set(_subcommands())
        for argv in commands:
            build_parser().parse_args(argv[1:])  # exits 2 on a line it rejects

    def test_every_option_is_documented(self):
        text = README.read_text(encoding="utf-8")
        undocumented = [
            f"{name} {option}"
            for name, sub in _subcommands().items()
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
            and not re.search(re.escape(option) + r"(?![\w-])", text)
        ]
        assert undocumented == []

    def test_library_snippet_runs(self, tmp_path, monkeypatch, capsys):
        snippet = _code_block(_readme_section("Library use"), "python")
        imported = re.search(r"from classvec import \((.*?)\)", snippet, re.S)[1]
        assert set(imported.replace(",", " ").split()) <= set(classvec.__all__)
        monkeypatch.chdir(tmp_path)
        _write_pretrained("vectors.txt")
        _write_corpus("train.tsv")
        _write_corpus("test.tsv")
        exec(compile(snippet, "README.md", "exec"), {})
        assert 0.0 <= float(capsys.readouterr().out) <= 1.0


class TestTracer:
    """The benchmark's tracer, read from ``perfbench/tracing.py``, wraps the
    names it spans in ``classvec.cli``; a rename there breaks traced runs."""

    @staticmethod
    def _tracer(monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "tracing", tracing)  # for its dataclass
        spec.loader.exec_module(tracing)
        return tracing.Tracer(cli)

    def test_spans_the_stages_of_a_finetune(self, workspace, monkeypatch):
        tracer = self._tracer(monkeypatch)
        tmp_path, pre, corpus = workspace
        with tracer.installed():
            code, _ = tracer.run_stage("finetune", [
                "finetune", "--pretrained", pre, "--corpus", corpus,
                "--out", str(tmp_path / "tuned.txt"), "--epochs", "1",
            ])
        assert code == 0
        names = [span.name for span in tracer.spans]
        # the closing drift summary compares the corpus rows alone, not two
        # sets through analysis.drift; merge reads the pretrained file as a
        # stream, and no load_file holds its matrix
        for name in ("load_tsv", "build_vocab", "merge", "finetune",
                     "save_text", "cli"):
            assert name in names
        assert "load_file" not in names

    def test_spans_the_load_of_a_train_clf(self, workspace, monkeypatch):
        # the probe's rows are read through load_file, so the load layer
        # counts the file's bytes once
        tracer = self._tracer(monkeypatch)
        tmp_path, pre, corpus = workspace
        with tracer.installed():
            code, _ = tracer.run_stage("train-clf", [
                "train-clf", "--embeddings", pre, "--corpus", corpus,
                "--out", str(tmp_path / "probe.clf"), "--epochs", "1",
            ])
        assert code == 0
        loads = [span for span in tracer.spans if span.name == "load_file"]
        assert [(span.stage, span.count) for span in loads] == [
            ("train-clf", os.path.getsize(pre))]


class TestSubprocess:
    def test_streams_and_exit_code(self, tmp_path):
        pre = str(tmp_path / "pre.txt")
        corpus = str(tmp_path / "c.tsv")
        _write_pretrained(pre)
        _write_corpus(corpus)
        out = str(tmp_path / "tuned.txt")
        proc = subprocess.run(
            [sys.executable, "-m", "classvec.cli", "finetune",
             "--pretrained", pre, "--corpus", corpus,
             "--out", out, "--epochs", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        # results on stdout, progress on stderr
        assert "vocab\tV=20" in proc.stdout
        assert "drift\t" in proc.stdout
        assert "epoch 1/2" in proc.stderr
        assert "epoch" not in proc.stdout
        assert os.path.exists(out)

    def test_finetune_holds_one_copy_of_the_pretrained_matrix(self, tmp_path,
                                                             kernel_library):
        # the merged model shares the pretrained matrix and the export writes
        # a block of rows at a time: over the start-up of a process that has
        # imported numpy and the CLI, finetune's peak RSS grows by the loaded
        # matrix and what the corpus rows need, well under two matrices
        pre, corpus = str(tmp_path / "pre.bin"), str(tmp_path / "c.tsv")
        emb = random_embedding(np.random.default_rng(92), 20000, 100)
        with open(pre, "wb") as f:
            save_binary(emb, f)
        rng = np.random.default_rng(93)
        with open(corpus, "w") as f:
            for i in range(20):
                tokens = " ".join(f"t{j}" for j in rng.integers(0, 400, 30))
                f.write(f"{'ab'[i % 2]}\t{tokens} novel{i}\n")
        code, startup = _peak_rss_kb(sys.executable, "-c", "import numpy, classvec.cli")
        assert code == 0
        code, run = _peak_rss_kb(
            sys.executable, "-m", "classvec.cli", "finetune", "--pretrained", pre,
            "--format", "bin", "--corpus", corpus, "--out", str(tmp_path / "tuned.bin"),
            "--epochs", "1",
        )
        assert code == 0
        assert (run - startup) * 1024 < 2 * emb.matrix.nbytes, (run, startup)

    def test_drift_holds_one_set_as_nn_does(self, tmp_path, kernel_library):
        # drift streams --before against the loaded --after, so its peak RSS
        # is nn's on the same --after plus well under half a matrix; read
        # whole, --before would add a matrix
        rng = np.random.default_rng(94)
        before = random_embedding(rng, 20000, 100)
        after = EmbeddingSet(before.words, before.matrix * np.float32(1.5))
        pre, post = str(tmp_path / "pre.bin"), str(tmp_path / "post.bin")
        for emb, path in ((before, pre), (after, post)):
            with open(path, "wb") as f:
                save_binary(emb, f)
        launch = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"

        def peak_kb(*argv: str) -> int:
            proc = subprocess.run(
                [sys.executable, "-S", str(launch), "120", os.devnull, os.devnull,
                 "--", sys.executable, "-m", "classvec.cli", *argv],
                capture_output=True, text=True, timeout=180,
            )
            record = json.loads(proc.stdout)
            assert record["returncode"] == 0, proc.stderr
            return record["maxrss_kb"]

        nn = peak_kb("nn", "--embeddings", post, "--format", "bin", "--word", "t0", "--k", "10")
        held = peak_kb("drift", "--before", pre, "--after", post, "--format", "bin")
        assert (held - nn) * 1024 <= before.matrix.nbytes / 2, (held, nn)

    @pytest.fixture(scope="class")
    def published_width(self, tmp_path_factory):
        """A 20000 x 300 binary file, the width of published vectors, a
        corpus of about 300 of its tokens and 20 unseen ones, and a probe
        trained on the two."""
        tmp_path = tmp_path_factory.mktemp("published")
        files = {name: str(tmp_path / name) for name in ("pre.bin", "c.tsv", "probe.clf")}
        emb = random_embedding(np.random.default_rng(95), 20000, 300)
        with open(files["pre.bin"], "wb") as f:
            save_binary(emb, f)
        rng = np.random.default_rng(96)
        with open(files["c.tsv"], "w") as f:
            for i in range(20):
                tokens = " ".join(f"t{j}" for j in rng.integers(0, 400, 30))
                f.write(f"{'ab'[i % 2]}\t{tokens} novel{i}\n")
        assert main(["train-clf", "--embeddings", files["pre.bin"], "--format", "bin",
                     "--corpus", files["c.tsv"], "--out", files["probe.clf"],
                     "--epochs", "2"]) == 0
        # a second file of the same tokens, for drift
        files["post.bin"] = str(tmp_path / "post.bin")
        with open(files["post.bin"], "wb") as f:
            save_binary(EmbeddingSet(emb.words, emb.matrix * np.float32(1.5)), f)
        files["matrix_bytes"] = emb.matrix.nbytes
        return files

    @pytest.mark.parametrize("stage", ["finetune", "train-clf", "eval", "sim", "nn", "drift"])
    def test_streamed_stages_hold_the_rows_they_read(self, published_width, tmp_path,
                                                     kernel_library, stage):
        # each stage keeps the rows of the tokens it uses and the file's
        # token index (about 2 MB here), never the file's matrix; nn keeps
        # its top k, drift three numbers a shared token: over the
        # start-up of a process that has imported every module and opened
        # the kernel, its peak RSS grows by less than a quarter of the
        # matrix, where a load alone would add the whole matrix
        files = published_width
        pre, corpus = files["pre.bin"], files["c.tsv"]
        argv = {
            "finetune": ["finetune", "--pretrained", pre, "--corpus", corpus,
                         "--out", str(tmp_path / "tuned.bin"), "--epochs", "1"],
            "train-clf": ["train-clf", "--embeddings", pre, "--corpus", corpus,
                          "--out", str(tmp_path / "probe.clf"), "--epochs", "2"],
            "eval": ["eval", "--model", files["probe.clf"], "--embeddings", pre,
                     "--corpus", corpus],
            "sim": ["sim", "--embeddings", pre, "t1", "t19999"],
            "nn": ["nn", "--embeddings", pre, "--word", "t19000", "--k", "10"],
            "drift": ["drift", "--before", pre, "--after", files["post.bin"]],
        }[stage]
        code, startup = _peak_rss_kb(
            sys.executable, "-c",
            "import numpy, classvec.cli, classvec.analysis, classvec.classifier, "
            "classvec.metrics, classvec.trainer; classvec._kernel.library()")
        assert code == 0
        code, run = _peak_rss_kb(sys.executable, "-m", "classvec.cli", *argv,
                                 "--format", "bin")
        assert code == 0
        assert (run - startup) * 1024 < files["matrix_bytes"] / 4, (run, startup)

    def test_import_loads_no_scipy(self):
        # scipy.special alone used to be most of every command's start-up
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, classvec.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# runs the CLI in a fresh process, then writes its exit code and the
# modules it loaded to the file named by the first argument
_MODULES_AFTER = """\
import json, sys
from classvec.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as e:
    code = e.code
with open(sys.argv[1], "w") as f:
    json.dump([code, sorted(sys.modules)], f)
"""


def _modules_after(tmp_path, argv: list[str]) -> tuple[int, set[str]]:
    listing = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, str(listing), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert listing.exists(), proc.stderr
    code, modules = json.loads(listing.read_text())
    return code, set(modules)


# runs the command given as its arguments and prints its exit code and
# ru_maxrss; run under -S, it holds little memory itself
_PEAK_RSS = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(*argv: str) -> tuple[int, int]:
    """The exit code and peak RSS in KiB of a command. A child's ru_maxrss
    starts from the RSS of the process that forked it, so the command is
    started from a small launcher, not from this process."""
    proc = subprocess.run([sys.executable, "-S", "-c", _PEAK_RSS, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, kb = proc.stdout.split()
    return int(code), int(kb)


def _buffered_env() -> dict[str, str]:
    """The environment with stdout block-buffered, as by default, so that
    output the hard exit did not flush would be lost."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _classvec(*argv: str) -> subprocess.CompletedProcess:
    """The ``classvec`` command, through its hard exit."""
    return subprocess.run([sys.executable, "-m", "classvec.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=_buffered_env())


class TestStartup:
    """Each command imports only what it runs and exits without teardown."""

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["nn", "--help"], 0), (["nn"], 2), (["bogus"], 2),
    ])
    def test_help_and_usage_errors_load_no_numpy(self, tmp_path, argv, code):
        got, loaded = _modules_after(tmp_path, argv)
        assert got == code
        assert "classvec.cli" in loaded
        assert "numpy" not in loaded

    def test_import_classvec_loads_no_module_of_it(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, classvec; "
             "print(sorted(m for m in sys.modules if m.startswith(('classvec', 'numpy'))))"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.strip() == "['classvec']", proc.stderr

    def test_streamed_reads_are_exported_as_the_readme_documents_them(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, classvec; "
             "print(sorted(m for m in sys.modules if m.startswith('classvec'))); "
             "from classvec import EmbeddingChangedError, load_file; "
             "from classvec import embedding_io; "
             "print(load_file is embedding_io.load_file, "
             "EmbeddingChangedError is embedding_io.EmbeddingChangedError, "
             "{'load_file', 'EmbeddingChangedError'} <= set(classvec.__all__), "
             "{'load_rows', 'load_text', 'load_binary'} & set(classvec.__all__), "
             "hasattr(embedding_io, 'load_text') or hasattr(embedding_io, 'load_binary'))"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.splitlines() == ["['classvec']", "True True True set() False"], \
            proc.stderr

    def test_stages_load_only_their_modules(self, workspace, kernel_library):
        # the library is cached, so no stage needs the compiler's modules
        tmp_path, pre, corpus = workspace
        tuned, probe = str(tmp_path / "tuned.txt"), str(tmp_path / "probe.clf")
        stages = {
            "finetune": ["finetune", "--pretrained", pre, "--corpus", corpus,
                         "--out", tuned, "--epochs", "1"],
            "train-clf": ["train-clf", "--embeddings", tuned, "--corpus", corpus,
                          "--out", probe, "--epochs", "2"],
            "eval": ["eval", "--model", probe, "--embeddings", tuned, "--corpus", corpus],
            "drift": ["drift", "--before", pre, "--after", tuned],
            "nn": ["nn", "--embeddings", tuned, "--word", "spam0", "--k", "2"],
        }
        loaded = {}
        for stage, argv in stages.items():
            code, loaded[stage] = _modules_after(tmp_path, argv)
            assert code == 0, stage
        for stage in ("drift", "nn"):
            mine = {m for m in loaded[stage] if m.startswith("classvec.")}
            assert mine == {"classvec.cli", "classvec._names", "classvec._kernel",
                            "classvec.embedding_io", "classvec.analysis"}, stage
        # the trainer loads no probe code
        assert not {"classvec.classifier", "classvec.metrics"} & loaded["finetune"]
        for stage, modules in loaded.items():
            assert "numpy.ma" not in modules, stage
            assert "subprocess" not in modules, stage
            # every seeded draw is the package's own SplitMix64, so no stage
            # loads numpy's generators, nor the OpenSSL they pull in
            assert not {"numpy.random", "secrets", "_hashlib"} & modules, stage

    def test_exit_codes_through_the_hard_exit(self, workspace):
        tmp_path, pre, _ = workspace
        ok = _classvec("nn", "--embeddings", pre, "--word", "spam0", "--k", "2")
        assert ok.returncode == 0 and len(ok.stdout.splitlines()) == 2
        unknown = _classvec("nn", "--embeddings", pre, "--word", "nope", "--k", "2")
        assert unknown.returncode == 1
        assert "unknown word 'nope'" in unknown.stderr
        for argv in (["nn", "--embeddings", pre, "--word", "spam0", "--k", "0"],
                     ["nn", "--embeddings", pre]):
            usage = _classvec(*argv)
            assert usage.returncode == 2 and "usage" in usage.stderr
        assert _classvec("--help").returncode == 0

    def test_large_output_arrives_complete_through_a_pipe(self, tmp_path):
        rows = 20000
        rng = np.random.default_rng(5)
        words = [f"t{i}" for i in range(rows)]
        before, after = str(tmp_path / "before.txt"), str(tmp_path / "after.txt")
        matrix = rng.normal(size=(rows, 4)).astype(np.float32)
        with open(before, "wb") as f:
            save_text(EmbeddingSet(words, matrix), f)
        with open(after, "wb") as f:
            save_text(EmbeddingSet(words, matrix + np.float32(0.5)), f)
        proc = _classvec("drift", "--before", before, "--after", after,
                         "--top", str(rows))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split("\n")
        assert len(proc.stdout) > 2**16  # far more than a pipe buffer holds
        assert lines[-1] == "" and len(lines) == 3 + rows + 1
        assert sorted(line.split()[0] for line in lines[3:-1]) == sorted(words)

    def test_closed_stdout_fails_without_a_traceback(self):
        # the help text waits in stdout's buffer for the final flush
        proc = subprocess.Popen(
            [sys.executable, "-m", "classvec.cli", "--help"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env(),
        )
        proc.stdout.close()  # the help text cannot be delivered
        err = proc.communicate(timeout=120)[1].decode()
        assert proc.returncode not in (0, None)
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_no_stdout_at_start_is_no_error(self):
        # with descriptor 1 closed, sys.stdout is None and argparse writes
        # the help text to stderr
        proc = subprocess.run(
            f"{shlex.quote(sys.executable)} -m classvec.cli --help >&-",
            shell=True, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith("usage: classvec")
