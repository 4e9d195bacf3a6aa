"""Command-line pipeline driver.

One executable with subcommands covering the full flow: ``finetune``
(class-conditioned fine-tuning of pretrained vectors on a labeled TSV
corpus), ``train-clf`` / ``eval`` (mean-pool linear probe training and
scoring), and ``nn`` / ``sim`` / ``drift`` (embedding-space inspection).

Progress goes to standard error, results to standard output, so machine
output stays pipeable. Output files are written via a temporary file and
an atomic rename: on any failure no partial artifact is left behind, and
the exit status is 0 exactly when the requested artifact was fully
written or printed. A command checks that its outputs can be written
and would replace none of its inputs before it reads any file. Embedding file format is always named explicitly
with ``--format``; files are never sniffed. Every command reads its
embedding files a block at a time, through ``BlockFile`` or
``load_file`` with the tokens it needs, so none holds a file's matrix.
A command opens its embedding file before it reads other input, and
``errors_after`` holds an error of that input back until the file is
read to its end, so a file's errors still come first, as when it was
loaded before anything else.

Each process starts lean. Every library function and class a command
calls is bound here to a stand-in that imports its module on first call,
so ``--help`` and usage errors load no numpy, and ``drift`` and ``nn``
load only the embedding reader, the kernel binding and the analysis
module. Option defaults live in the library's config classes, not here.
``run``, the ``classvec`` entry point, ends the process with ``os._exit``
after flushing, skipping the interpreter's teardown; ``main`` returns
the exit status for in-process callers.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from importlib import import_module
from typing import Callable, NoReturn

from ._names import FORMATS, MACHINE_FIELDS


def _lazy(module: str, name: str) -> Callable:
    """``classvec.<module>.<name>``, imported on its first call, so that a
    command loads only the modules it runs. The name stays bound to this
    stand-in: a wrapper set in its place (a test's patch, a tracer) keeps
    working."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(f"{__package__}.{module}"), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# every library function and class the commands call
cosine = _lazy("analysis", "cosine")
drift = _lazy("analysis", "drift")
drift_summary = _lazy("analysis", "drift_summary")
nearest_neighbors = _lazy("analysis", "nearest_neighbors")
ClassifierConfig = _lazy("classifier", "ClassifierConfig")
check_threshold = _lazy("classifier", "check_threshold")
load_classifier = _lazy("classifier", "load_classifier")
predict = _lazy("classifier", "predict")
save_classifier = _lazy("classifier", "save_classifier")
train_classifier = _lazy("classifier", "train_classifier")
load_tsv = _lazy("corpus", "load_tsv")
BlockFile = _lazy("embedding_io", "BlockFile")
EmbeddingSet = _lazy("embedding_io", "EmbeddingSet")
errors_after = _lazy("embedding_io", "errors_after")
load_file = _lazy("embedding_io", "load_file")
save_binary = _lazy("embedding_io", "save_binary")
save_text = _lazy("embedding_io", "save_text")
token_problem = _lazy("embedding_io", "token_problem")
evaluate_exclusive = _lazy("metrics", "evaluate_exclusive")
evaluate_multilabel = _lazy("metrics", "evaluate_multilabel")
FinetuneConfig = _lazy("trainer", "FinetuneConfig")
finetune = _lazy("trainer", "finetune")
TunedEmbedding = _lazy("vocab", "TunedEmbedding")
build_vocab = _lazy("vocab", "build_vocab")
merge = _lazy("vocab", "merge")

logger = logging.getLogger("classvec")

_EVAL_EPILOG = (
    "The final output line is machine-readable: "
    + " ".join(MACHINE_FIELDS)
    + f" ({len(MACHINE_FIELDS)} tab-separated fields; fields the mode does"
    " not define hold '-')."
)


class UsageError(ValueError):
    """An argument that a command cannot run with; ``main`` reports it as
    ``usage error: ...`` with exit status 2."""


def _atomic_write(path: str, write: Callable) -> None:
    """Write through a temp file and rename, so failures leave nothing; the
    file gets the mode of a new file (0o666 less the umask), not 0o600. An
    error of the temp file or the rename names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-classvec-")
        with os.fdopen(fd, "wb") as f:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            write(f)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and (tmp is None or tmp in (e.filename, e.filename2)):
            raise OSError(e.errno, e.strerror, path) from None
        raise


def _require_files(args: argparse.Namespace, inputs: tuple[str, ...],
                   outputs: tuple[str, ...] = ()) -> None:
    """Check the files that the options ``inputs`` and ``outputs`` (their
    ``args`` fields) name, before any is read: a usage error if an output
    names an input or an earlier output (the same file, or where either is
    missing the same normalized absolute path), which writing it would
    replace; then an input that is not a regular file, and then an output
    that is a directory or whose directory is missing, each in option
    order."""
    named = [(f, getattr(args, f)) for f in inputs]
    for field in outputs:
        if (path := getattr(args, field)) is None:
            continue
        for other, other_path in named:
            try:
                same = os.path.samefile(path, other_path)
            except OSError:
                same = os.path.abspath(path) == os.path.abspath(other_path)
            if same:
                raise UsageError(f"--{field.replace('_', '-')} {path} names the "
                                 f"file of --{other.replace('_', '-')}")
        named.append((field, path))
    for _, path in named[:len(inputs)]:
        if not os.path.isfile(path):
            raise FileNotFoundError(f"no such file: {path}")
    for _, path in named[len(inputs):]:
        if os.path.isdir(path):
            raise IsADirectoryError(f"output is a directory: {path}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(f"no directory for output: {path}")


def _load_corpus(path: str, multilabel: bool):
    with open(path, "rb") as f:
        return load_tsv(f, multilabel=multilabel)


def _print_drift_summary(q: dict[str, float]) -> None:
    print(
        "drift\tcosine[min={cosine_min:.6f} p25={cosine_p25:.6f} "
        "median={cosine_median:.6f} p75={cosine_p75:.6f} "
        "max={cosine_max:.6f}]\tshift[min={shift_min:.6f} "
        "median={shift_median:.6f} max={shift_max:.6f}]".format(**q)
    )


def _given(args: argparse.Namespace, *fields: str) -> dict:
    """The config fields whose options were given; the config's own
    defaults fill in the rest."""
    return {f: getattr(args, f) for f in fields if getattr(args, f) is not None}


def _corpus_tokens(corpus) -> set[str]:
    return {t for d in corpus.docs for t in d.tokens}


def cmd_finetune(args: argparse.Namespace) -> int:
    # the settings are checked before any file is read
    cfg = FinetuneConfig(
        **_given(args, "epochs", "window", "negative", "alpha0", "alpha_min", "seed"),
        shuffle=args.shuffle,
    )
    _require_files(args, ("pretrained", "corpus"), ("out", "export_class_vectors"))
    # the pretrained file is read twice, a block at a time: merge keeps
    # the corpus tokens' rows, and the export writes the tuned ones over
    # them as it streams the file again
    with BlockFile(args.pretrained, args.format) as pretrained:
        with errors_after(pretrained.blocks()):
            corpus = _load_corpus(args.corpus, args.multilabel)
            if args.export_class_vectors:
                # checked before training, so that nothing is written for a
                # class that cannot become a token of the class-vector file
                for name in corpus.classes:
                    if problem := token_problem(name):
                        raise ValueError(f"class {name!r} cannot be exported: it {problem}")
        vocab = build_vocab(corpus)
        model = merge(pretrained, vocab, seed=cfg.seed)
        print(
            f"vocab\tV={len(pretrained)}\tV_T={len(vocab)}"
            f"\tV_unseen={len(model.unseen)}"
        )
        tuned, class_vectors = finetune(model, cfg)
        save = save_text if args.format == "text" else save_binary
        _atomic_write(args.out, lambda f: save(TunedEmbedding(model, tuned), f))
    logger.info("wrote %s", args.out)
    if args.export_class_vectors:
        cv_set = EmbeddingSet(list(class_vectors.classes), class_vectors.matrix)
        _atomic_write(args.export_class_vectors, lambda f: save_text(cv_set, f))
        logger.info("wrote class vectors to %s", args.export_class_vectors)
    # the corpus tokens with a pretrained row; the other pretrained rows
    # are unchanged, and the unseen tokens have no row before
    shared = model.rows < len(pretrained)
    _print_drift_summary(drift_summary(
        model.corpus_rows[shared], tuned[shared],
        len(pretrained) - int(shared.sum()),
    ))
    return 0


def cmd_train_clf(args: argparse.Namespace) -> int:
    # the settings are checked before any file is read
    cfg = ClassifierConfig(**_given(args, "epochs", "lr", "seed"))
    if args.threshold is not None:
        check_threshold(args.threshold)
    _require_files(args, ("embeddings", "corpus"), ("out",))
    with BlockFile(args.embeddings, args.format) as source, errors_after(source.blocks()):
        corpus = _load_corpus(args.corpus, args.multilabel)
    # the mean pool reads the rows of corpus tokens alone
    emb = load_file(args.embeddings, args.format, _corpus_tokens(corpus))
    mode = "multilabel" if args.multilabel else "exclusive"
    model = train_classifier(corpus, emb, cfg, mode, **_given(args, "threshold"))
    _atomic_write(args.out, lambda f: save_classifier(model, f))
    logger.info("wrote %s", args.out)
    print(f"model\tclasses={len(model.classes)}\tmode={model.mode}\tout={args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _require_files(args, ("model", "embeddings", "corpus"))
    with open(args.model, "rb") as f:
        model = load_classifier(f)
    multilabel = model.mode == "multilabel"
    with BlockFile(args.embeddings, args.format) as source, errors_after(source.blocks()):
        if source.dim != model.dim:
            raise ValueError(
                f"embedding dim {source.dim} does not match model dim {model.dim}"
            )
        corpus = _load_corpus(args.corpus, multilabel)
    emb = load_file(args.embeddings, args.format, _corpus_tokens(corpus))
    pred = [predict(model, d, emb) for d in corpus.docs]
    if multilabel:
        gold = [d.labels for d in corpus.docs]
        report = evaluate_multilabel(gold, pred, classes=model.classes)
    else:
        gold = [d.labels[0] for d in corpus.docs]
        report = evaluate_exclusive(gold, pred, classes=model.classes)
    print(report.human_block())
    print()
    print(report.machine_line())
    return 0


def cmd_nn(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be at least 1")
    _require_files(args, ("embeddings",))
    # the file is read as a stream, whole and then up to the query's block;
    # its errors still come before a usage error or an unknown word
    with BlockFile(args.embeddings, args.format) as emb:
        with errors_after(emb.blocks()):
            if args.k >= len(emb):
                raise UsageError(f"--k must be below the vocabulary size {len(emb)}")
        neighbors = nearest_neighbors(emb, args.word, args.k)
    for token, sim in neighbors:
        print(f"{token}\t{sim:.6f}")
    return 0


def cmd_sim(args: argparse.Namespace) -> int:
    _require_files(args, ("embeddings",))
    emb = load_file(args.embeddings, args.format, (args.word1, args.word2))
    for w in (args.word1, args.word2):
        if w not in emb:
            raise KeyError(w)
    print(f"{cosine(emb.vector(args.word1), emb.vector(args.word2)):.6f}")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise UsageError("--top must be at least 0")
    _require_files(args, ("before", "after"))
    # both files are read a block at a time, in lockstep while they list
    # the same tokens; the --before header is checked first
    with BlockFile(args.before, args.format) as before, \
            BlockFile(args.after, args.format) as after:
        report = drift(before, after)
    _print_drift_summary(report.quantiles)
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

    # the options of a config default to None: the config holds the defaults
    p = sub.add_parser("finetune", help="fine-tune embeddings on a labeled corpus")
    p.add_argument("--pretrained", required=True, help="input embedding file")
    _add_format(p)
    p.add_argument("--corpus", required=True, help="TSV corpus: <label>\\t<text>")
    p.add_argument("--out", required=True, help="output embedding file (same format)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negative", type=int)
    p.add_argument("--lr", type=float, dest="alpha0", metavar="LR",
                   help="initial learning rate")
    p.add_argument("--min-lr", type=float, dest="alpha_min", metavar="MIN_LR",
                   help="learning rate floor")
    p.add_argument("--seed", type=int)
    p.add_argument("--multilabel", action="store_true",
                   help="labels are comma-separated; one pass per label")
    p.add_argument("--export-class-vectors", metavar="PATH", default=None,
                   help="also write the trained class vectors (text format)")
    p.add_argument("--shuffle", action="store_true",
                   help="shuffle document order each epoch (seeded)")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("train-clf", help="train the mean-pool linear probe")
    p.add_argument("--embeddings", required=True)
    _add_format(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--multilabel", action="store_true",
                   help="sigmoid per class instead of softmax")
    p.add_argument("--threshold", type=float,
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
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The ``classvec`` command: ``main`` on the process's arguments, then
    an exit that skips the interpreter's teardown (about 20 ms of freeing
    modules) once the logs and the standard streams are flushed. A stream
    that cannot be flushed, such as a closed pipe, makes the exit status
    non-zero."""
    try:
        code = main()
    except SystemExit as e:  # --help and usage errors, from argparse
        code = e.code
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # started with the descriptor closed
            continue
        try:
            stream.flush()
        except (OSError, ValueError):
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
