"""Spans around the library calls that ``classvec.cli`` makes.

The traced run calls ``classvec.cli.main(argv)`` in-process after
replacing each name below in the ``classvec.cli`` namespace with a timed
wrapper. Layers are therefore timed from outside only; nothing inside
``src/classvec`` is changed, and calls the library makes internally (for
example the trainer's own ``build_vocab``) are not spanned.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import time
import traceback
from dataclasses import dataclass

# every public function classvec.cli calls, with the layer (module) it lives in
LAYER_OF = {
    "load_file": "embedding_io",
    "save_text": "embedding_io",
    "save_binary": "embedding_io",
    "load_tsv": "corpus",
    "build_vocab": "vocab",
    "merge": "vocab",
    "finetune": "trainer",
    "train_classifier": "classifier",
    "save_classifier": "classifier",
    "load_classifier": "classifier",
    "predict": "classifier",
    "evaluate_exclusive": "metrics",
    "evaluate_multilabel": "metrics",
    "drift": "analysis",
    "nearest_neighbors": "analysis",
}


@dataclass
class Span:
    name: str
    stage: str
    start: float
    end: float
    count: int = 0  # bytes moved, tokens parsed or rows compared, by name

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _count(name: str, args: tuple, result) -> int:
    """Work done by one call, measured after its span has closed."""
    if name == "load_file":
        return os.path.getsize(args[0])
    if name in ("save_text", "save_binary"):
        return args[1].tell()
    if name == "load_tsv":
        return sum(len(d.tokens) for d in result.docs)
    if name == "drift":
        return len(result.entries)
    return 0


class Tracer:
    """Collects spans in memory while installed on a ``classvec.cli`` module."""

    def __init__(self, cli_module):
        missing = [n for n in LAYER_OF if not callable(getattr(cli_module, n, None))]
        if missing:
            raise RuntimeError(
                "classvec.cli no longer imports " + ", ".join(missing)
                + "; update LAYER_OF in perfbench/tracing.py"
            )
        self.cli = cli_module
        self.spans: list[Span] = []
        self.stage = ""

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(name, self.stage, start, time.perf_counter()))
                raise
            end = time.perf_counter()
            self.spans.append(Span(name, self.stage, start, end, _count(name, args, result)))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = {n: getattr(self.cli, n) for n in LAYER_OF}
        for n, fn in originals.items():
            setattr(self.cli, n, self._wrap(n, fn))
        try:
            yield self
        finally:
            for n, fn in originals.items():
                setattr(self.cli, n, fn)

    def run_stage(self, stage: str, argv: list[str]) -> tuple[int, str]:
        """Run one CLI stage in-process under a ``cli`` span; return (exit code, stdout)."""
        self.stage = stage
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crashing stage is a failed operation, not a crashed run
            traceback.print_exc(file=sys.stderr)
            code = 1
        self.spans.append(Span("cli", stage, start, time.perf_counter()))
        return code, out.getvalue()
