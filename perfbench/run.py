"""Benchmark of the classvec command-line pipeline, end to end and per layer.

Usage, from the root of a classvec checkout:

    python3 perfbench/run.py --workload tune-text --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py).
Then one client runs a closed loop for ``--seconds``: each iteration runs
the pipeline as a user would, one ``python3 -m classvec.cli`` process per
stage (``finetune``, ``train-clf``, ``eval``, then ``drift`` and ``nn``),
and checks the outputs. Reported values are medians over iterations.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` also runs every
stage in-process through ``classvec.cli.main`` with spans around the
library calls (tracing.py) and reports the per-layer metrics.

Operations are stage processes and output checks; a failed one is counted
in ``failed`` and the run goes on. The last line of standard output is the
JSON result; the line before it records the inputs and the environment.
Progress and failures go to standard error.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
STAGES = ("finetune", "train-clf", "eval", "drift", "nn")
HELP_RUNS = 3         # `--help` processes before the loop; one more per iteration
CLF_EPOCHS = 50
NN_K = 10
BALLAST_MB = 256      # harness memory held while re-measuring an import-only stage
RUN_LIMIT_S = 170     # every stage must end this long after the run started
# field order of eval's machine-readable last line, as `classvec eval --help` documents it
EVAL_FIELDS = (
    "mode", "n", "accuracy", "weighted_precision", "weighted_recall",
    "weighted_f1", "avg_recall", "jaccard", "micro_f1", "macro_f1",
)


def pin_environment() -> dict:
    """Cap BLAS/OpenMP threads at nproc and put the checkout's src first on the path."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return {
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


class Ops:
    """Counts operations: stage processes and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok


class Launcher:
    """Starts stage processes through launch.py, which holds no memory of its own."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.count = 0

    def cli(self, argv: list[str]) -> dict:
        """Run ``python3 -m classvec.cli ARGV``; return its exit code, wall
        time, peak RSS and output."""
        argv = [sys.executable, "-m", "classvec.cli", *argv]
        self.count += 1
        out = self.work / f"{self.count:04d}.out"
        err = self.work / f"{self.count:04d}.err"
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        command = [sys.executable, "-S", str(HERE / "launch.py"), str(timeout),
                   str(out), str(err), "--", *argv]
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as launch:
            try:
                reply = launch.communicate()[0]
            except BaseException:
                launch.terminate()  # the launcher kills its stage before it exits
                raise
        if launch.returncode != 0:
            raise RuntimeError(f"launcher failed ({launch.returncode}) on {argv}")
        record = json.loads(reply)
        record["stdout"] = out.read_text(errors="replace")
        record["stderr"] = err.read_text(errors="replace")
        return record


def format_name(cli, kind: str) -> str:
    """The CLI's spelling of the text or binary format, read from its parser."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.choices and "finetune" in a.choices)
    fmt = next(a for a in sub.choices["finetune"]._actions if "--format" in a.option_strings)
    names = [c for c in fmt.choices if c == kind or (kind == "binary" and c.startswith("bin"))]
    if len(names) != 1:
        raise SystemExit(f"error: no unique {kind} format among {list(fmt.choices)}")
    return names[0]


def stage_argvs(w, fmt: str, inputs: dict, out: Path) -> dict[str, list[str]]:
    p = inputs["paths"]
    tuned, probe = str(out / "tuned.vec"), str(out / "probe.clf")
    multilabel = ["--multilabel"] if max(w.labels_per_doc) > 1 else []
    return {
        "finetune": ["finetune", "--pretrained", p["pretrained"], "--format", fmt,
                     "--corpus", p["train"], "--out", tuned,
                     "--epochs", str(w.epochs), *multilabel],
        "train-clf": ["train-clf", "--embeddings", tuned, "--format", fmt,
                      "--corpus", p["train"], "--out", probe,
                      "--epochs", str(CLF_EPOCHS), *multilabel],
        "eval": ["eval", "--model", probe, "--embeddings", tuned, "--format", fmt,
                 "--corpus", p["test"]],
        "drift": ["drift", "--before", p["pretrained"], "--after", tuned, "--format", fmt],
        "nn": ["nn", "--embeddings", tuned, "--format", fmt,
               "--word", inputs["query"], "--k", str(NN_K)],
    }


def read_vectors(path: Path, text: bool):
    """Independent reader for the two word2vec formats: (words, float32 matrix)."""
    import numpy as np

    header, _, body = path.read_bytes().partition(b"\n")
    n, m = (int(x) for x in header.split())
    if text:
        lines = body.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        fields = body.split()
        if len(lines) != n or len(fields) != n * (m + 1):
            raise ValueError(f"{len(lines)} lines / {len(fields)} fields for {n} x {m}")
        table = np.array(fields).reshape(n, m + 1)
        words = [t.decode() for t in table[:, 0]]
        return words, table[:, 1:].astype(np.float64).astype(np.float32)
    words, rows, pos = [], [], 0
    for _ in range(n):
        space = body.index(b" ", pos)
        words.append(body[pos:space].decode())
        pos = space + 1 + 4 * m
        rows.append(body[space + 1:pos])
    if pos != len(body):
        raise ValueError(f"{len(body) - pos} bytes after the last vector")
    return words, np.frombuffer(b"".join(rows), dtype="<f4").reshape(n, m)


def tuned_findings(path: Path, w, inputs: dict) -> list[tuple[str, bool, str]]:
    """Reload check and frozen-row check on one tuned embedding file."""
    import numpy as np

    try:
        words, matrix = read_vectors(path, w.fmt == "text")
    except (OSError, ValueError) as e:
        return [("tuned file reloads", False, str(e)),
                ("frozen rows are bit-identical", False, "no tuned matrix")]
    merged = set(inputs["words"]) | inputs["train_types"]
    reload_ok = (len(words) == len(merged) and set(words) == merged
                 and matrix.shape[1] == w.dim)
    index = {t: i for i, t in enumerate(words)}
    frozen = [i for i, t in enumerate(inputs["words"]) if t not in inputs["train_types"]]
    rows = [index.get(inputs["words"][i], -1) for i in frozen]
    same = -1 not in rows and np.array_equal(
        inputs["matrix"][frozen].view(np.uint32), matrix[rows].view(np.uint32)
    )
    return [
        ("tuned file reloads", reload_ok,
         f"{len(words)} rows x {matrix.shape[1]}, expected {len(merged)} x {w.dim}"),
        ("frozen rows are bit-identical", same, f"{len(frozen)} frozen rows"),
    ]


class Checker:
    """Output checks; the tuned-file checks are cached by the file's digest."""

    def __init__(self, w, inputs: dict, ops: Ops):
        self.w, self.inputs, self.ops = w, inputs, ops
        self.cache: dict[str, list] = {}

    def outputs(self, out: Path, stdout: dict[str, str]) -> float | None:
        """Check one pipeline's outputs; return the probe score if eval's line parses."""
        tuned = out / "tuned.vec"
        digest = hashlib.sha256(tuned.read_bytes()).hexdigest() if tuned.exists() else ""
        if digest not in self.cache:
            self.cache[digest] = tuned_findings(tuned, self.w, self.inputs)
        for what, ok, detail in self.cache[digest]:
            self.ops.record(what, ok, detail)

        multilabel = max(self.w.labels_per_doc) > 1
        lines = stdout.get("eval", "").strip().splitlines()
        fields = lines[-1].split("\t") if lines else []
        mode = "multilabel" if multilabel else "exclusive"
        ok = (len(fields) == len(EVAL_FIELDS) and fields[0] == mode
              and fields[1] == str(self.inputs["facts"]["test_docs"]))
        score = None
        if self.ops.record("eval machine line", ok, repr(fields)):
            score = float(fields[EVAL_FIELDS.index("micro_f1" if multilabel else "accuracy")])

        counts = [
            dict(kv.split("=", 1) for kv in line.split("\t"))
            for line in stdout.get("drift", "").splitlines() if line.startswith("shared=")
        ]
        shared = counts[0].get("shared") if counts else None
        self.ops.record("drift shares every pretrained row",
                        shared == str(self.w.vocab), f"shared={shared}, V={self.w.vocab}")
        return score


def end_to_end(walls: dict[str, float], rss_kb: dict[str, int]) -> dict[str, float]:
    return {
        "pipeline_s": walls["finetune"] + walls["train-clf"] + walls["eval"],
        "finetune_s": walls["finetune"],
        "inspect_s": walls["drift"] + walls["nn"],
        "peak_rss_mb": max(rss_kb.values()) / 1024,
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(spans, walls: dict[str, float], facts: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pipeline, plus each layer's busy time."""
    from tracing import LAYER_OF

    def busy(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def count(*names):
        return sum(s.count for s in spans if s.name in names)

    load_s, save_s = busy("load_file"), busy("save_text", "save_binary")
    train_s, predict_s, drift_s = busy("train_classifier"), busy("predict"), busy("drift")
    trainer_s = busy("finetune")
    m = {
        "embedding_io.load_s": load_s,
        "embedding_io.save_s": save_s,
        "embedding_io.load_mb_per_s": _rate(count("load_file") / 1e6, load_s),
        "embedding_io.save_mb_per_s": _rate(count("save_text", "save_binary") / 1e6, save_s),
        "embedding_io.bytes_read": count("load_file"),
        "embedding_io.bytes_written": count("save_text", "save_binary"),
        "corpus.load_s": busy("load_tsv"),
        "corpus.tokens": count("load_tsv"),
        "vocab.build_s": busy("build_vocab"),
        "vocab.merge_s": busy("merge"),
        "trainer.busy_s": trainer_s,
        "trainer.positions": facts["positions"],
        "trainer.positions_per_s": _rate(facts["positions"], trainer_s),
        "classifier.train_s": train_s,
        "classifier.sgd_steps_per_s": _rate(CLF_EPOCHS * facts["train_docs"], train_s),
        "classifier.predict_docs_per_s": _rate(
            sum(s.name == "predict" for s in spans), predict_s),
        "metrics.evaluate_s": busy("evaluate_exclusive", "evaluate_multilabel"),
        "analysis.drift_s": drift_s,
        "analysis.drift_rows_per_s": _rate(count("drift"), drift_s),
        "analysis.nn_s": busy("nearest_neighbors"),
    }
    self_s = 0.0
    for stage in STAGES:
        key = stage.replace("-", "_")
        span = sum(s.seconds for s in spans if s.name == "cli" and s.stage == stage)
        children = sum(s.seconds for s in spans if s.name != "cli" and s.stage == stage)
        m[f"cli.{key}_s"] = span
        m[f"gap.{key}_s"] = walls[stage] - span
        self_s += span - children
    m["cli.self_s"] = self_s
    layers = {}
    for s in spans:
        if s.name != "cli":
            layer = LAYER_OF[s.name]
            layers[layer] = layers.get(layer, 0.0) + s.seconds
    total = sum(layers.values())
    m["layers.trainer_share"] = _rate(layers.get("trainer", 0.0), total)
    m["layers.io_analysis_share"] = _rate(
        layers.get("embedding_io", 0.0) + layers.get("analysis", 0.0), total)
    return m, layers


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind: stop the running stage and remove the work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "classvec" / "cli.py").is_file():
        print(f"error: {SRC / 'classvec'} not found; run from a classvec checkout",
              file=sys.stderr)
        return 2
    # the metric names and units reported are the ones BENCHMARK.json declares
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    environment = pin_environment()  # before anything imports numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import classvec.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "classvec":
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    fmt = format_name(cli, w.fmt)

    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, w, fmt, cli, work, environment, started, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (ROOT / ".bench_work").is_dir() and not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()


def measure(args, w, fmt, cli, work, environment, started, declared) -> int:
    import numpy as np
    from workloads import generate

    for sub in ("in", "logs", "run", "traced"):
        (work / sub).mkdir(parents=True)
    ops = Ops()
    launcher = Launcher(work / "logs", started)
    inputs = generate(w, args.seed, str(work / "in"))
    checker = Checker(w, inputs, ops)

    # set-up: the cost every CLI call pays before doing work, sampled before
    # the loop and once in every iteration so that slow spells of the host
    # do not all land on it
    helps = []

    def sample_setup():
        rec = launcher.cli(["--help"])
        ops.record("--help exits 0", rec["returncode"] == 0, rec["stderr"][-300:])
        helps.append(rec)

    launcher.cli(["--help"])  # warm-up: writes bytecode, fills the page cache
    for _ in range(HELP_RUNS):
        sample_setup()
    lean_kb = statistics.median(h["maxrss_kb"] for h in helps)
    ballast = np.ones(BALLAST_MB * 2**20 // 8)
    held_kb = launcher.cli(["--help"])["maxrss_kb"]
    del ballast
    ops.record("stage peak RSS ignores harness memory",
               abs(held_kb - lean_kb) <= max(4096, 0.05 * lean_kb),
               f"{lean_kb} KB lean vs {held_kb} KB with {BALLAST_MB} MB held")

    argvs = stage_argvs(w, fmt, inputs, work / "run")
    traced_argvs = stage_argvs(w, fmt, inputs, work / "traced")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(cli)

    e2e_rows, layer_rows, layer_busy, scores = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        for stale in (*(work / "run").iterdir(), *(work / "traced").iterdir()):
            stale.unlink()  # a failed stage must not leave the last iteration's file to check
        sample_setup()
        walls, rss, stdout = {}, {}, {}
        for stage in STAGES:
            rec = launcher.cli(argvs[stage])
            ops.record(f"{stage} exits 0", rec["returncode"] == 0, rec["stderr"][-500:])
            walls[stage], rss[stage], stdout[stage] = rec["wall_s"], rec["maxrss_kb"], rec["stdout"]
        scores.append(checker.outputs(work / "run", stdout))
        e2e_rows.append(end_to_end(walls, rss))

        if tracer is not None:
            tracer.spans.clear()
            traced_out = {}
            with tracer.installed():
                for stage in STAGES:
                    gc.collect()
                    code, traced_out[stage] = tracer.run_stage(stage, traced_argvs[stage])
                    ops.record(f"traced {stage} exits 0", code == 0, f"exit {code}")
            checker.outputs(work / "traced", traced_out)
            metrics, busy = per_layer(tracer.spans, walls, inputs["facts"])
            layer_rows.append(metrics)
            layer_busy.append(busy)

        elapsed = time.perf_counter() - loop_start
        if elapsed * (1 + 1 / len(e2e_rows)) > args.seconds:
            break

    valid = [s for s in scores if s is not None]
    if args.trace:
        values = medians(layer_rows)
    else:
        values = medians(e2e_rows)
        values["setup_s"] = statistics.median(h["wall_s"] for h in helps)
        values["probe_score"] = statistics.median(valid) if valid else 0.0
    info = {
        "inputs": inputs["facts"],
        "environment": environment,
        "format": fmt,
        "iterations": len(e2e_rows),
        "loop_s": time.perf_counter() - loop_start,
        "setup_runs_s": [h["wall_s"] for h in helps],
        "rss_check_kb": {"lean": lean_kb, "held": held_kb},
        "stage_runs": e2e_rows,
        "layer_busy_s": layer_busy,
        "probe_scores": scores,
    }
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise SystemExit(
            f"error: BENCHMARK.json declares {sorted(set(names) - set(values))} "
            f"that are not measured; measured but undeclared: "
            f"{sorted(set(values) - set(names))}"
        )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ops.failed == 0 and len(valid) == len(scores),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
