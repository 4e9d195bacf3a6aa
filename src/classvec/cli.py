"""Command-line pipeline driver.

One executable with subcommands covering the full flow: ``finetune``
(class-conditioned fine-tuning of pretrained vectors on a labeled TSV
corpus), ``train-clf`` / ``eval`` (mean-pool linear probe training and
scoring), and ``nn`` / ``sim`` / ``drift`` (embedding-space inspection).

Progress goes to standard error, results to standard output, so machine
output stays pipeable. Output files are written via a temporary file and
an atomic rename: on any failure no partial artifact is left behind, and
the exit status is 0 exactly when the requested artifact was fully
written or printed. Embedding file format is always named explicitly
with ``--format``; files are never sniffed.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from typing import Callable

from .analysis import cosine, drift, nearest_neighbors
from .classifier import (
    ClassifierConfig,
    load_classifier,
    predict,
    save_classifier,
    train_classifier,
)
from .corpus import load_tsv
from .embedding_io import (
    FORMATS,
    EmbeddingSet,
    load_file,
    save_binary,
    save_text,
)
from .metrics import MACHINE_FIELDS, evaluate_exclusive, evaluate_multilabel
from .trainer import FinetuneConfig, finetune
from .vocab import build_vocab, merge

logger = logging.getLogger("classvec")

_EVAL_EPILOG = (
    "The final output line is machine-readable: "
    + " ".join(MACHINE_FIELDS)
    + f" ({len(MACHINE_FIELDS)} tab-separated fields; fields the mode does"
    " not define hold '-')."
)


def _atomic_write(path: str, write: Callable) -> None:
    """Write through a temp file and rename, so failures leave nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-classvec-")
    try:
        with os.fdopen(fd, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_files(*paths: str) -> None:
    for p in paths:
        if not os.path.isfile(p):
            raise FileNotFoundError(f"no such file: {p}")


def _load_corpus(path: str, multilabel: bool):
    with open(path, "rb") as f:
        return load_tsv(f, multilabel=multilabel)


def _print_drift_summary(report) -> None:
    q = report.quantiles
    print(
        "drift\tcosine[min={cosine_min:.6f} p25={cosine_p25:.6f} "
        "median={cosine_median:.6f} p75={cosine_p75:.6f} "
        "max={cosine_max:.6f}]\tshift[min={shift_min:.6f} "
        "median={shift_median:.6f} max={shift_max:.6f}]".format(**q)
    )


def cmd_finetune(args: argparse.Namespace) -> int:
    _require_files(args.pretrained, args.corpus)
    pretrained = load_file(args.pretrained, args.format)
    corpus = _load_corpus(args.corpus, args.multilabel)
    if args.export_class_vectors:
        # checked before training, so that nothing is written for a class
        # that cannot become a token of the class-vector file
        for name in corpus.classes:
            if name.split() != [name]:
                raise ValueError(
                    f"class {name!r} cannot be exported: a token of the "
                    "class-vector file holds no whitespace"
                )
    vocab = build_vocab(corpus)
    model = merge(pretrained, vocab, seed=args.seed)
    print(
        f"vocab\tV={len(pretrained)}\tV_T={len(vocab)}"
        f"\tV_unseen={len(model.unseen)}"
    )
    cfg = FinetuneConfig(
        epochs=args.epochs,
        window=args.window,
        negative=args.negative,
        alpha0=args.lr,
        alpha_min=args.min_lr,
        seed=args.seed,
        shuffle=args.shuffle,
    )
    tuned, class_vectors = finetune(model, corpus, cfg)
    save = save_text if args.format == "text" else save_binary
    _atomic_write(args.out, lambda f: save(tuned, f))
    logger.info("wrote %s", args.out)
    if args.export_class_vectors:
        cv_set = EmbeddingSet(list(class_vectors.classes), class_vectors.matrix)
        _atomic_write(args.export_class_vectors, lambda f: save_text(cv_set, f))
        logger.info("wrote class vectors to %s", args.export_class_vectors)
    _print_drift_summary(drift(pretrained, tuned))
    return 0


def cmd_train_clf(args: argparse.Namespace) -> int:
    _require_files(args.embeddings, args.corpus)
    emb = load_file(args.embeddings, args.format)
    corpus = _load_corpus(args.corpus, args.multilabel)
    cfg = ClassifierConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    mode = "multilabel" if args.multilabel else "exclusive"
    model = train_classifier(corpus, emb, cfg, mode, threshold=args.threshold)
    _atomic_write(args.out, lambda f: save_classifier(model, f))
    logger.info("wrote %s", args.out)
    print(f"model\tclasses={len(model.classes)}\tmode={model.mode}\tout={args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _require_files(args.model, args.embeddings, args.corpus)
    with open(args.model, "rb") as f:
        model = load_classifier(f)
    emb = load_file(args.embeddings, args.format)
    if emb.dim != model.dim:
        raise ValueError(
            f"embedding dim {emb.dim} does not match model dim {model.dim}"
        )
    multilabel = model.mode == "multilabel"
    corpus = _load_corpus(args.corpus, multilabel)
    if multilabel:
        gold = [set(d.labels) for d in corpus.docs]
        pred = [set(predict(model, d, emb)) for d in corpus.docs]
        report = evaluate_multilabel(gold, pred, classes=model.classes)
    else:
        gold = [d.labels[0] for d in corpus.docs]
        pred = [predict(model, d, emb) for d in corpus.docs]
        report = evaluate_exclusive(gold, pred, classes=model.classes)
    print(report.human_block())
    print()
    print(report.machine_line())
    return 0


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def cmd_nn(args: argparse.Namespace) -> int:
    if args.k < 1:
        return _usage_error("--k must be at least 1")
    _require_files(args.embeddings)
    emb = load_file(args.embeddings, args.format)
    if args.k >= len(emb):
        return _usage_error(f"--k must be below the vocabulary size {len(emb)}")
    for token, sim in nearest_neighbors(emb, args.word, args.k):
        print(f"{token}\t{sim:.6f}")
    return 0


def cmd_sim(args: argparse.Namespace) -> int:
    _require_files(args.embeddings)
    emb = load_file(args.embeddings, args.format)
    for w in (args.word1, args.word2):
        if w not in emb:
            raise KeyError(w)
    print(f"{cosine(emb.vector(args.word1), emb.vector(args.word2)):.6f}")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    if args.top < 0:
        return _usage_error("--top must be at least 0")
    _require_files(args.before, args.after)
    before = load_file(args.before, args.format)
    after = load_file(args.after, args.format)
    report = drift(before, after)
    _print_drift_summary(report)
    print(
        f"shared={len(report.entries)}\tonly_before={len(report.only_before)}"
        f"\tonly_after={len(report.only_after)}"
    )
    print(f"{'token':<24}{'cosine':>10}{'shift':>12}")
    for token, cos, shift in report.entries[: args.top]:
        print(f"{token:<24}{cos:>10.6f}{shift:>12.6f}")
    return 0


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="embedding file format (never sniffed; default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classvec",
        description="Fine-tune pretrained word embeddings on a labeled "
        "corpus by class-conditioned CBOW training, then train, score and "
        "inspect with the bundled linear probe and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ft_defaults = FinetuneConfig()
    p = sub.add_parser("finetune", help="fine-tune embeddings on a labeled corpus")
    p.add_argument("--pretrained", required=True, help="input embedding file")
    _add_format(p)
    p.add_argument("--corpus", required=True, help="TSV corpus: <label>\\t<text>")
    p.add_argument("--out", required=True, help="output embedding file (same format)")
    p.add_argument("--epochs", type=int, default=ft_defaults.epochs)
    p.add_argument("--window", type=int, default=ft_defaults.window)
    p.add_argument("--negative", type=int, default=ft_defaults.negative)
    p.add_argument("--lr", type=float, default=ft_defaults.alpha0,
                   help="initial learning rate")
    p.add_argument("--min-lr", type=float, default=ft_defaults.alpha_min,
                   help="learning rate floor")
    p.add_argument("--seed", type=int, default=ft_defaults.seed)
    p.add_argument("--multilabel", action="store_true",
                   help="labels are comma-separated; one pass per label")
    p.add_argument("--export-class-vectors", metavar="PATH", default=None,
                   help="also write the trained class vectors (text format)")
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle document order each epoch (seeded)")
    p.set_defaults(func=cmd_finetune)

    clf_defaults = ClassifierConfig()
    p = sub.add_parser("train-clf", help="train the mean-pool linear probe")
    p.add_argument("--embeddings", required=True)
    _add_format(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", type=int, default=clf_defaults.epochs)
    p.add_argument("--lr", type=float, default=clf_defaults.lr)
    p.add_argument("--seed", type=int, default=clf_defaults.seed)
    p.add_argument("--multilabel", action="store_true",
                   help="sigmoid per class instead of softmax")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="multilabel decision threshold")
    p.set_defaults(func=cmd_train_clf)

    p = sub.add_parser("eval", help="score a trained probe on a corpus",
                       epilog=_EVAL_EPILOG)
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    _add_format(p)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("nn", help="nearest neighbors of a word")
    p.add_argument("--embeddings", required=True)
    _add_format(p)
    p.add_argument("--word", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_nn)

    p = sub.add_parser("sim", help="cosine similarity of two words")
    p.add_argument("--embeddings", required=True)
    _add_format(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("drift", help="compare two embedding files")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    _add_format(p)
    p.add_argument("--top", type=int, default=10,
                   help="entries to list, most-drifted first")
    p.set_defaults(func=cmd_drift)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as e:
        print(f"error: unknown word {e.args[0]!r}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
