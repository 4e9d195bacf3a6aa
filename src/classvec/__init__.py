"""Class-conditioned fine-tuning of pretrained word embeddings.

A CBOW-style Doc2Vec trainer where each document's class label supplies the
auxiliary context vector, plus the I/O, linear-probe classifier, metrics and
embedding-space analysis needed to measure its effect on text classification.

``__all__`` is the documented surface; the trainer's internals (its state,
noise table, schedule and per-document steps) live in ``classvec.trainer``.
"""
from .analysis import DriftReport, cosine, drift, nearest_neighbors
from .classifier import (
    ClassifierConfig,
    ClassifierFormatError,
    ClassifierModel,
    embed_doc,
    load_classifier,
    predict,
    save_classifier,
    softmax,
    train_classifier,
)
from .corpus import CorpusFormatError, Document, LabeledCorpus, from_documents, load_tsv, tokenize
from .embedding_io import (
    EmbeddingFormatError,
    EmbeddingSet,
    load_binary,
    load_file,
    load_text,
    save_binary,
    save_file,
    save_text,
)
from .metrics import EvalReport, evaluate_exclusive, evaluate_multilabel
from .trainer import ClassVectors, FinetuneConfig, finetune
from .vocab import MergedModel, Vocabulary, build_vocab, init_unseen, merge, unseen_words

__all__ = [
    "ClassVectors",
    "ClassifierConfig",
    "ClassifierFormatError",
    "ClassifierModel",
    "CorpusFormatError",
    "Document",
    "DriftReport",
    "EmbeddingFormatError",
    "EmbeddingSet",
    "EvalReport",
    "FinetuneConfig",
    "LabeledCorpus",
    "MergedModel",
    "Vocabulary",
    "build_vocab",
    "cosine",
    "drift",
    "embed_doc",
    "evaluate_exclusive",
    "evaluate_multilabel",
    "finetune",
    "from_documents",
    "init_unseen",
    "load_binary",
    "load_classifier",
    "load_file",
    "load_text",
    "load_tsv",
    "merge",
    "nearest_neighbors",
    "predict",
    "save_binary",
    "save_classifier",
    "save_file",
    "save_text",
    "softmax",
    "tokenize",
    "train_classifier",
    "unseen_words",
]

__version__ = "0.1.0"
