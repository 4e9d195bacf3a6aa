"""End-to-end tests of the command-line driver."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from classvec.cli import main
from classvec.embedding_io import EmbeddingSet, load_file, save_file


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
    save_file(emb, path, fmt)
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
        save_file(
            EmbeddingSet(["spam0"], np.ones((1, 3), np.float32)), other, "text"
        )
        rc = main(["eval", "--model", model, "--embeddings", other,
                   "--corpus", corpus])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err


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

    def test_drift_top_zero_lists_no_entries(self, workspace, capsys):
        tmp_path, pre, _ = workspace
        rc = main(["drift", "--before", pre, "--after", pre, "--top", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3 and lines[2].startswith("token")


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
