"""Acceptance suite: one test per shipping criterion.

Every test records a PASS/FAIL verdict line through tests/_report.py (the
conftest hook prints the block after the run) and then asserts it, so the
suite both gates and documents the release bar:

1. Analytic gradients of both training losses match central finite
   differences (relative error < 1e-4, 100+ instances per loss family).
2. Pretrained vectors absent from the corpus survive fine-tuning
   bit-for-bit (50-word set, 20 used, 5 unseen, 30 frozen).
3. On a two-class corpus with near-synonymous exclusive markers the
   markers diverge and land nearest their own class vectors.
4. Fine-tuning beats frozen embeddings downstream on a solvable
   three-class task for at least 9 of 10 pipeline seeds.
5. The command-line pipeline is byte-deterministic for a fixed seed.
6. 1000 random embedding sets round-trip through both file formats.
7. Evaluation metrics match an independent recount on 1000 random label
   sets; softmax output is a distribution to 1e-12.
8. Neighbor search matches an exhaustive scan on a 1000-word vocabulary,
   and self-comparison drift is exactly zero.
"""
from __future__ import annotations

import io
import math
import os

import numpy as np
import pytest

from classvec.analysis import drift, nearest_neighbors
from classvec.classifier import (
    ClassifierConfig,
    loss_and_grads,
    predict,
    softmax,
    train_classifier,
)
from classvec.cli import main as cli_main
from classvec.corpus import Document, from_documents
from classvec.embedding_io import (
    EmbeddingSet,
    load_binary,
    load_text,
    save_binary,
    save_text,
)
from classvec.metrics import evaluate_exclusive, evaluate_multilabel
from classvec.trainer import (
    FinetuneConfig,
    TrainState,
    finetune,
    ns_loss_and_grads,
)
from classvec.vocab import build_vocab, merge

from _constructions import (
    confusable_corpus,
    cos,
    divergence_corpus,
    marker_identity_accuracy,
    random_embedding,
)
from _report import verdict

EPS = 1e-6          # central-difference step
GRAD_RTOL = 1e-4    # criterion-1 relative-error bound


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _ns_state(rng: np.random.Generator, n_out: int, m: int, k: int) -> TrainState:
    """Minimal state carrying a random output matrix for loss evaluation."""
    return TrainState(
        cfg=FinetuneConfig(negative=k),
        input_matrix=np.zeros((1, m)),
        output_matrix=rng.normal(0, 1.0, (n_out, m)),
        class_vectors=np.zeros((1, m)),
        noise_table=np.array([1.0]),
        alpha=0.025,
        key=0,
        classes=("c",),
        class_index={"c": 0},
        index={},
    )


def test_criterion_1_gradients_match_finite_differences():
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0

    # negative-sampling loss: d/dh and d/du
    for m in (4, 16):
        for k in (1, 5):
            for _ in range(26):
                state = _ns_state(rng, n_out=12, m=m, k=k)
                h = rng.normal(0, 1.0, m)
                choice = rng.choice(12, size=1 + k, replace=False)
                center, negatives = int(choice[0]), [int(j) for j in choice[1:]]
                _, grad_h, grad_u = ns_loss_and_grads(h, center, negatives, state)

                num_h = np.zeros(m)
                for i in range(m):
                    hp, hm = h.copy(), h.copy()
                    hp[i] += EPS
                    hm[i] -= EPS
                    num_h[i] = (
                        ns_loss_and_grads(hp, center, negatives, state)[0]
                        - ns_loss_and_grads(hm, center, negatives, state)[0]
                    ) / (2 * EPS)

                rows = [center, *negatives]
                num_u = np.zeros((len(rows), m))
                out = state.output_matrix
                for r_i, row in enumerate(rows):
                    for j in range(m):
                        orig = out[row, j]
                        out[row, j] = orig + EPS
                        lp = ns_loss_and_grads(h, center, negatives, state)[0]
                        out[row, j] = orig - EPS
                        lm = ns_loss_and_grads(h, center, negatives, state)[0]
                        out[row, j] = orig
                        num_u[r_i, j] = (lp - lm) / (2 * EPS)

                worst = max(worst, _rel_err(grad_h, num_h), _rel_err(grad_u, num_u))
                checked += 1
    assert checked >= 100

    # classifier loss: d/dW and d/db, both modes, with and without l2
    clf_checked = 0
    for m in (4, 16):
        for K in (2, 5):
            for mode in ("exclusive", "multilabel"):
                for i in range(13):
                    l2 = 0.01 if i % 2 else 0.0
                    x = rng.normal(0, 1.0, m)
                    w = rng.normal(0, 1.0, (m, K))
                    b = rng.normal(0, 1.0, K)
                    if mode == "exclusive":
                        target = int(rng.integers(0, K))
                    else:
                        target = (rng.random(K) < 0.5).astype(np.float64)
                    _, grad_w, grad_b = loss_and_grads(x, target, w, b, mode, l2)

                    num_w = np.zeros_like(w)
                    for r in range(m):
                        for c in range(K):
                            orig = w[r, c]
                            w[r, c] = orig + EPS
                            lp = loss_and_grads(x, target, w, b, mode, l2)[0]
                            w[r, c] = orig - EPS
                            lm = loss_and_grads(x, target, w, b, mode, l2)[0]
                            w[r, c] = orig
                            num_w[r, c] = (lp - lm) / (2 * EPS)
                    num_b = np.zeros_like(b)
                    for c in range(K):
                        orig = b[c]
                        b[c] = orig + EPS
                        lp = loss_and_grads(x, target, w, b, mode, l2)[0]
                        b[c] = orig - EPS
                        lm = loss_and_grads(x, target, w, b, mode, l2)[0]
                        b[c] = orig
                        num_b[c] = (lp - lm) / (2 * EPS)

                    worst = max(
                        worst, _rel_err(grad_w, num_w), _rel_err(grad_b, num_b)
                    )
                    clf_checked += 1
    assert clf_checked >= 100

    verdict(
        1,
        "analytic gradients vs central differences",
        worst < GRAD_RTOL,
        f"{checked} ns + {clf_checked} probe instances, "
        f"worst rel err {worst:.2e} < {GRAD_RTOL:g}",
    )


def test_criterion_2_unused_pretrained_rows_are_bit_frozen():
    rng = np.random.default_rng(1002)
    pretrained = random_embedding(rng, 50, 8, prefix="pre")
    used = [f"pre{i}" for i in range(20)]
    unseen = [f"new{i}" for i in range(5)]
    pool = used + unseen
    crng = np.random.default_rng(1003)
    docs = []
    for d in range(12):
        toks = tuple(pool[j] for j in crng.integers(0, len(pool), 8))
        docs.append(Document(toks, ("pos" if d % 2 else "neg",)))
    # every pooled token must actually occur
    missing = set(pool) - {t for doc in docs for t in doc.tokens}
    for i, t in enumerate(sorted(missing)):
        docs.append(Document((t, pool[i]), ("pos",)))

    corpus = from_documents(docs)
    model = merge(pretrained, build_vocab(corpus), seed=7)
    assert set(model.unseen) == set(unseen)
    tuned, _ = finetune(model, corpus, FinetuneConfig(epochs=10, seed=1))

    frozen = [f"pre{i}" for i in range(20, 50)]
    frozen_ok = all(
        tuned.vector(w).tobytes() == pretrained.vector(w).tobytes()
        for w in frozen
    )
    trained_moved = any(
        tuned.vector(w).tobytes() != pretrained.vector(w).tobytes() for w in used
    )
    verdict(
        2,
        "pretrained rows outside the corpus stay bit-identical",
        frozen_ok and trained_moved and len(tuned) == 55,
        f"{len(frozen)} frozen rows intact, corpus rows updated, "
        f"merged size {len(tuned)}",
    )


def test_criterion_3_exclusive_markers_diverge_toward_their_class():
    emb, corpus = divergence_corpus()
    pre = cos(emb.vector("good"), emb.vector("bad"))
    model = merge(emb, build_vocab(corpus), seed=11)
    tuned, cv = finetune(model, corpus, FinetuneConfig(seed=1))
    post = cos(tuned.vector("good"), tuned.vector("bad"))
    g_own = cos(tuned.vector("good"), cv.vector("pos"))
    g_other = cos(tuned.vector("good"), cv.vector("neg"))
    b_own = cos(tuned.vector("bad"), cv.vector("neg"))
    b_other = cos(tuned.vector("bad"), cv.vector("pos"))
    ok = (
        pre >= 0.95
        and post < pre
        and g_own > g_other
        and b_own > b_other
    )
    verdict(
        3,
        "near-synonymous class markers diverge and track their class",
        ok,
        f"cos(good,bad) {pre:.4f} -> {post:.4f}; own-vs-other margins "
        f"{g_own - g_other:+.4f} / {b_own - b_other:+.4f}",
    )


def test_criterion_4_finetuning_beats_frozen_features_downstream():
    emb, train, test, markers = confusable_corpus()
    # the corpus is solvable from token identity alone
    assert marker_identity_accuracy(test, markers) == 1.0
    model = merge(emb, build_vocab(train), seed=3)

    def accuracy(clf, embedding):
        hits = sum(predict(clf, d, embedding) == d.labels[0] for d in test.docs)
        return hits / len(test.docs)

    wins = 0
    frozen_accs, tuned_accs = [], []
    for seed in range(10):
        tuned, _ = finetune(model, train, FinetuneConfig(seed=seed))
        cfg = ClassifierConfig(seed=seed)
        a_frozen = accuracy(train_classifier(train, emb, cfg), emb)
        a_tuned = accuracy(train_classifier(train, tuned, cfg), tuned)
        frozen_accs.append(a_frozen)
        tuned_accs.append(a_tuned)
        wins += a_tuned > a_frozen
    verdict(
        4,
        "tuned embeddings beat frozen ones on a solvable 3-class task",
        wins >= 9,
        f"{wins}/10 seeds; frozen {min(frozen_accs):.3f}-{max(frozen_accs):.3f}, "
        f"tuned {min(tuned_accs):.3f}-{max(tuned_accs):.3f}",
    )


def _write_cli_inputs(tmp_path):
    rng = np.random.default_rng(1005)
    emb = random_embedding(rng, 12, 6, prefix="tok")
    pre = str(tmp_path / "pre.txt")
    with open(pre, "wb") as f:
        save_text(emb, f)
    crng = np.random.default_rng(1006)
    lines = []
    for i in range(10):
        toks = " ".join(f"tok{j}" for j in crng.integers(0, 12, 6))
        lines.append(f"{'pos' if i % 2 else 'neg'}\t{toks} extra{i % 3}")
    corpus = str(tmp_path / "corpus.tsv")
    with open(corpus, "w") as f:
        f.write("\n".join(lines) + "\n")
    return pre, corpus


def test_criterion_5_pipeline_is_byte_deterministic(tmp_path, capsys):
    pre, corpus = _write_cli_inputs(tmp_path)

    def run(tag):
        out = str(tmp_path / f"tuned_{tag}.txt")
        cv = str(tmp_path / f"cv_{tag}.txt")
        clf = str(tmp_path / f"probe_{tag}.clf")
        assert cli_main([
            "finetune", "--pretrained", pre, "--corpus", corpus,
            "--out", out, "--epochs", "3", "--seed", "9",
            "--export-class-vectors", cv,
        ]) == 0
        assert cli_main([
            "train-clf", "--embeddings", out, "--corpus", corpus,
            "--out", clf, "--seed", "9",
        ]) == 0
        return tuple(open(p, "rb").read() for p in (out, cv, clf))

    first, second = run("a"), run("b")
    capsys.readouterr()
    same = all(x == y for x, y in zip(first, second))
    verdict(
        5,
        "fixed-seed pipeline reruns produce byte-identical artifacts",
        same,
        "embeddings, class vectors and probe files compared",
    )


def test_criterion_6_file_formats_round_trip_1000_random_sets():
    rng = np.random.default_rng(1007)
    trials = 1000
    text_exact = bin_exact = 0
    for t in range(trials):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        bits = rng.integers(0, 2**32, size=(n, m), dtype=np.uint32)
        matrix = bits.view(np.float32).copy()
        matrix[~np.isfinite(matrix)] = 0.0
        words = [
            f"ξ{t}_{i}" if i % 7 == 3 else f"w{t}_{i}" for i in range(n)
        ]
        emb = EmbeddingSet(words, matrix)

        buf = io.BytesIO()
        save_text(emb, buf)
        buf.seek(0)
        back = load_text(buf)
        if back.words == emb.words and back.matrix.tobytes() == emb.matrix.tobytes():
            text_exact += 1

        buf = io.BytesIO()
        save_binary(emb, buf)
        buf.seek(0)
        back = load_binary(buf)
        if back.words == emb.words and back.matrix.tobytes() == emb.matrix.tobytes():
            bin_exact += 1

    verdict(
        6,
        "both file formats round-trip random embedding sets",
        text_exact == trials and bin_exact == trials,
        f"{trials} sets: text bit-exact {text_exact}/{trials} "
        f"(1e-6 required), binary bit-exact {bin_exact}/{trials}",
    )


def _prf_oracle(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def test_criterion_7_metrics_match_independent_recount():
    rng = np.random.default_rng(1008)
    atol = 1e-12
    mismatches = 0

    for _ in range(500):  # exclusive mode
        K = int(rng.integers(2, 7))
        n = int(rng.integers(1, 51))
        names = [f"c{j}" for j in range(K)]
        gold_i = rng.integers(0, K, n)
        pred_i = rng.integers(0, K, n)
        rep = evaluate_exclusive(
            [names[i] for i in gold_i], [names[i] for i in pred_i], classes=names
        )
        conf = np.bincount(gold_i * K + pred_i, minlength=K * K).reshape(K, K)
        ok = math.isclose(rep.accuracy, np.trace(conf) / n, abs_tol=atol)
        w_p = w_r = w_f = 0.0
        recalls = []
        for j, c in enumerate(names):
            tp = int(conf[j, j])
            fp = int(conf[:, j].sum() - tp)
            fn = int(conf[j, :].sum() - tp)
            p, r, f1 = _prf_oracle(tp, fp, fn)
            s = rep.per_class[c]
            ok = ok and math.isclose(s.precision, p, abs_tol=atol)
            ok = ok and math.isclose(s.recall, r, abs_tol=atol)
            ok = ok and math.isclose(s.f1, f1, abs_tol=atol)
            ok = ok and s.support == tp + fn
            w_p += p * (tp + fn)
            w_r += r * (tp + fn)
            w_f += f1 * (tp + fn)
            recalls.append(r)
        ok = ok and math.isclose(rep.weighted_precision, w_p / n, abs_tol=atol)
        ok = ok and math.isclose(rep.weighted_recall, w_r / n, abs_tol=atol)
        ok = ok and math.isclose(rep.weighted_f1, w_f / n, abs_tol=atol)
        ok = ok and math.isclose(rep.avg_recall, sum(recalls) / K, abs_tol=atol)
        mismatches += not ok

    for _ in range(500):  # multilabel mode
        K = int(rng.integers(1, 7))
        n = int(rng.integers(1, 51))
        names = [f"c{j}" for j in range(K)]
        gold_m = rng.random((n, K)) < 0.4
        pred_m = rng.random((n, K)) < 0.4
        gold = [{names[j] for j in range(K) if gold_m[i, j]} for i in range(n)]
        pred = [{names[j] for j in range(K) if pred_m[i, j]} for i in range(n)]
        rep = evaluate_multilabel(gold, pred, classes=names)
        exact = float(np.mean((gold_m == pred_m).all(axis=1)))
        inter = (gold_m & pred_m).sum(axis=1)
        union = (gold_m | pred_m).sum(axis=1)
        jac = float(np.mean(np.where(union == 0, 1.0, inter / np.maximum(union, 1))))
        tp_c = (gold_m & pred_m).sum(axis=0)
        fp_c = (~gold_m & pred_m).sum(axis=0)
        fn_c = (gold_m & ~pred_m).sum(axis=0)
        ok = math.isclose(rep.accuracy, exact, abs_tol=atol)
        ok = ok and math.isclose(rep.jaccard, jac, abs_tol=atol)
        f1s = []
        for j, c in enumerate(names):
            p, r, f1 = _prf_oracle(int(tp_c[j]), int(fp_c[j]), int(fn_c[j]))
            s = rep.per_class[c]
            ok = ok and math.isclose(s.f1, f1, abs_tol=atol)
            ok = ok and s.support == int(tp_c[j] + fn_c[j])
            f1s.append(f1)
        _, _, micro = _prf_oracle(
            int(tp_c.sum()), int(fp_c.sum()), int(fn_c.sum())
        )
        ok = ok and math.isclose(rep.micro_f1, micro, abs_tol=atol)
        ok = ok and math.isclose(rep.macro_f1, sum(f1s) / K, abs_tol=atol)
        mismatches += not ok

    softmax_bad = 0
    for _ in range(1000):
        z = rng.normal(0, 5.0, int(rng.integers(2, 7)))
        p = softmax(z)
        if abs(p.sum() - 1.0) > 1e-12 or np.argmax(p) != np.argmax(z):
            softmax_bad += 1

    verdict(
        7,
        "metrics and softmax match independent oracles",
        mismatches == 0 and softmax_bad == 0,
        f"1000 label sets recounted (tolerance {atol:g}), "
        f"1000 softmax distributions within 1e-12 of mass 1",
    )


def test_criterion_8_neighbor_search_matches_exhaustive_scan():
    rng = np.random.default_rng(1009)
    emb = random_embedding(rng, 1000, 16, prefix="v")
    # force exact ties: three clones of one row at scattered positions
    matrix = emb.matrix.copy()
    matrix[500] = matrix[10]
    matrix[900] = matrix[10]
    emb = EmbeddingSet(emb.words, matrix)

    matrix64 = emb.matrix.astype(np.float64)
    norms = np.linalg.norm(matrix64, axis=1)

    def exhaustive(token: str, k: int) -> list[tuple[str, float]]:
        qi = emb.index[token]
        scored = []
        for i in range(len(emb)):
            if i == qi:
                continue
            sim = float(
                np.clip(matrix64[i] @ matrix64[qi] / (norms[i] * norms[qi]), -1, 1)
            )
            scored.append((-sim, i))
        scored.sort()
        return [(emb.words[i], -negsim) for negsim, i in scored[:k]]

    ok = True
    checked = 0
    for token in ("v0", "v10", "v123", "v500", "v999", "v77"):
        for k in (1, 5, 25):
            got = nearest_neighbors(emb, token, k)
            want = exhaustive(token, k)
            if [t for t, _ in got] != [t for t, _ in want]:
                ok = False
            if not np.allclose(
                [s for _, s in got], [s for _, s in want], atol=1e-12
            ):
                ok = False
            checked += 1
    # the clones tie at cosine 1.0 and must rank in vocabulary order
    top = [t for t, _ in nearest_neighbors(emb, "v10", 2)]
    ok = ok and top == ["v500", "v900"]

    # identical rows drift by exactly zero; their cosine may round one ulp
    # below 1 (dot/norm evaluation order), so it gets a 1e-12 band
    report = drift(emb, emb)
    zero_drift = (
        all(c >= 1.0 - 1e-12 and s == 0.0 for _, c, s in report.entries)
        and report.quantiles["shift_max"] == 0.0
        and report.quantiles["cosine_min"] >= 1.0 - 1e-12
    )
    verdict(
        8,
        "neighbor search is exhaustive-exact and self-drift is zero",
        ok and zero_drift,
        f"{checked} (token, k) queries on |V|=1000 matched; "
        "tie order and zero-drift verified",
    )
