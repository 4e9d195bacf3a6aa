"""Class-conditioned fine-tuning of pretrained word embeddings.

A CBOW-style Doc2Vec trainer where each document's class label supplies the
auxiliary context vector, plus the I/O, linear-probe classifier, metrics and
embedding-space analysis needed to measure its effect on text classification.

``__all__`` is the surface the CLI and README use; the helpers behind it
(tokenizing, unseen-word initialization, the trainer's state, noise table
and schedule) live in their modules.
Each public name is imported from its module on first access (PEP 562), so
``import classvec`` loads no module of the package and no numpy, and a
program loads only the modules whose names it uses.
"""
from importlib import import_module

# every public name, with the module that defines it
_MODULE_OF = {
    "BlockFile": "embedding_io",
    "ClassVectors": "trainer",
    "ClassifierConfig": "classifier",
    "ClassifierFormatError": "classifier",
    "ClassifierModel": "classifier",
    "CorpusFormatError": "corpus",
    "Document": "corpus",
    "DriftReport": "analysis",
    "EmbeddingChangedError": "embedding_io",
    "EmbeddingFormatError": "embedding_io",
    "EmbeddingSet": "embedding_io",
    "EvalReport": "metrics",
    "FinetuneConfig": "trainer",
    "LabeledCorpus": "corpus",
    "MergedModel": "vocab",
    "TunedEmbedding": "vocab",
    "Vocabulary": "vocab",
    "build_vocab": "vocab",
    "cosine": "analysis",
    "drift": "analysis",
    "evaluate_exclusive": "metrics",
    "evaluate_multilabel": "metrics",
    "finetune": "trainer",
    "load_classifier": "classifier",
    "load_file": "embedding_io",
    "load_tsv": "corpus",
    "merge": "vocab",
    "nearest_neighbors": "analysis",
    "predict": "classifier",
    "save_binary": "embedding_io",
    "save_classifier": "classifier",
    "save_text": "embedding_io",
    "softmax": "classifier",
    "train_classifier": "classifier",
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups do not come back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
