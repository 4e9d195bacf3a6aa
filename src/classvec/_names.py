"""Names the command line shares with the library, in a module that imports
nothing, so that building the parser loads no numpy."""

# the embedding file formats, as ``--format`` and ``load_file`` spell them
FORMATS = ("text", "bin")

# the field order of an evaluation report's machine-readable line
MACHINE_FIELDS = (
    "mode",
    "n",
    "accuracy",
    "weighted_precision",
    "weighted_recall",
    "weighted_f1",
    "avg_recall",
    "jaccard",
    "micro_f1",
    "macro_f1",
)
