"""Command-line pipeline: extract, learn, eval, report.

Each subcommand declares its options once, in its table in ``OPTIONS``.
Every option can also come from a JSON config file (``--config``): an
object whose keys are the option names with underscores.  Explicit flags
win over the file.  Each value, from the file or a flag, is checked
against its option's kind: a path must be a non-empty JSON string, an
integer a JSON integer, a switch true or false, and a choice one of its
values.  Every input but the corpus is read by ``_load``, which decodes
it and names the file in any error in decoding or parsing it (UTF-8, JSON,
TSV lines); the corpus's tree errors name it too.  Every input, the corpus
included, is decoded by ``tsv.decode``, which drops a leading byte order
mark.  ``_load`` hashes the
bytes only of the inputs whose digest a run keeps: ``learn``'s
``--triples``/``--counts`` and, in ``load_taxonomy_files``, the taxonomy
and lexicon.  It imports ``hashlib`` only then, not at the top: that loads
OpenSSL, about 3.4 MB of RSS and 3-4 ms per process (Python 3.11, Linux
x86-64), which ``extract``, ``report`` and any ``--config`` read would
pay for a digest they drop.
An output that names an input of the run, or another output, is refused
before anything is written.

Each command loads only the modules it runs, since with no bytecode cached
every module a process imports is compiled again.  The top of this module
imports what every command uses: ``triples`` and ``restrictions``, with
the errors, the scorer and estimator choices and the file readers and
writers.  A name that one command uses is imported inside that command,
so ``extract`` also loads ``extract``, with the ``trees`` and ``shares``
it imports, ``learn`` ``taxonomy``, ``stats`` and ``learner``, ``eval``
``taxonomy`` and ``evaluate``, and ``report`` ``evaluate``.  Six stages
of those modules, ``read_trees``, ``extract_corpus``, ``accumulate``,
``read_counts``, ``read_gold`` and ``evaluate_gold``, are attributes of
this module all the same, bound on first access by the module
``__getattr__``, and the commands call them through the module
(``_this.extract_corpus``), so a wrapper that ``perfbench/tracer.py`` or a
test sets on this module with ``setattr`` is what runs; an import inside
the command would bypass it.  ``extract`` hands ``_this.extract_corpus``
to ``extract.extract_file``, which reads, parses and extracts the corpus
in shares, one forked process per CPU, and runs it on the first share.
No command calls ``read_trees``; it stays bound for the tracer, which
looks it up here.

Outputs carry no timestamps, and learned-restriction files embed the
SHA-256 of the bytes each input was parsed from, so identical inputs give
byte-identical results no matter how often the run is repeated; ``eval``
refuses a restrictions file whose taxonomy or lexicon digest is not that
of the files it is given.

Exit status: 0 on success, 1 on validation or format errors, 2 on I/O
errors.

``run`` pauses the cyclic garbage collector for the whole command and then
restores the state it found.  Everything the pipeline builds (trees, records
and restrictions as tuples, and the dicts and lists that hold them) is
acyclic and freed by reference counting; the only cyclic garbage is a
handful of ``argparse`` objects, the same number whatever the input.
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TextIO, TypeVar

from .restrictions import (
    EstimatorKind,
    ScoreKind,
    read_header,
    read_restrictions,
    write_restrictions,
)
from .tsv import decode
from .triples import (
    ExtractionError,
    key_names,
    percentage,
    read_triples,
    write_discards,
    write_triples,
)

if TYPE_CHECKING:
    from .taxonomy import SenseLexicon

TOOL_VERSION = "0.1.0"
T = TypeVar("T")

# The stages from modules that only some commands load, each with its
# module: attributes of this module bound on first access, which the
# commands call through ``_this`` (see the module docstring).
_STAGES = {
    "read_trees": "trees",
    "extract_corpus": "extract",
    "accumulate": "stats",
    "read_counts": "stats",
    "read_gold": "evaluate",
    "evaluate_gold": "evaluate",
}
_this = sys.modules[__name__]


def __getattr__(name: str):
    module = _STAGES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __package__), name)
    return value


# -- options -------------------------------------------------------------
# One table per subcommand; each row is (name, kind, required, help).  The
# name is the ``--config`` key and, with dashes, the flag.  A kind is PATH,
# INT, BOOL or the tuple of a choice's values.  The tables hold types only:
# the learner's defaults and ranges live in ``LearnerConfig``.

PATH, INT, BOOL = "path", "int", "bool"
_KINDS = {
    PATH: ("a path string", lambda v: isinstance(v, str) and v != ""),
    INT: ("an integer", lambda v: type(v) is int),
    BOOL: ("true or false", lambda v: type(v) is bool),
}

OPTIONS = {
    "extract": (
        ("corpus", PATH, True, "bracketed-tree corpus file"),
        ("lemmas", PATH, False, "form/POS/lemma table (TSV)"),
        ("tagset", PATH, False, "tag-set override file (JSON)"),
        ("triples", PATH, True, "output triples file"),
        ("discards", PATH, False, "discard sidecar (default: <triples>.discards)"),
    ),
    "learn": (
        ("triples", PATH, False, "triples file (one occurrence per line)"),
        ("counts", PATH, False, "pre-aggregated counts file"),
        ("taxonomy", PATH, True, "class hierarchy file"),
        ("lexicon", PATH, True, "noun sense file"),
        ("out", PATH, True, "output restrictions file"),
        ("threshold", INT, False, "min occurrences per candidate class"),
        ("scorer", tuple(k.value for k in ScoreKind), False, "association measure"),
        ("estimator", tuple(k.value for k in EstimatorKind), False, "class count estimator"),
        ("min_verb_support", INT, False, "min triples per verb position"),
        ("keep_nonpositive", BOOL, False, "keep classes whose score is <= 0"),
    ),
    "eval": (
        ("gold", PATH, True, "annotated held-out triples"),
        ("srs", PATH, True, "restrictions file to evaluate"),
        ("taxonomy", PATH, True, "class hierarchy file"),
        ("lexicon", PATH, True, "noun sense file"),
        ("labels", PATH, False, "per-class diagnostic label file"),
        ("format", ("text", "json"), False, "report format"),
    ),
    "report": (
        ("srs", PATH, True, "restrictions file"),
        ("labels", PATH, False, "per-class diagnostic label file"),
    ),
}


def _options(args: argparse.Namespace) -> dict:
    """The options in force: ``--config`` values overridden by the flags
    given.  Every value, from the file or a flag, is checked against its
    row, and every required option must be present."""
    table = {row[0]: row for row in OPTIONS[args.command]}
    config = {}
    if args.config is not None:
        import json  # here, not at the top: most runs have no --config

        config, _ = _load(args.config, json.loads)
        if not isinstance(config, dict):
            raise ExtractionError(f"config {args.config}: top level must be a JSON object")
        unknown = set(config) - set(table)
        if unknown:
            raise ExtractionError(f"config {args.config}: unknown keys {key_names(unknown)}")
    flags = {name: getattr(args, name) for name in table if getattr(args, name) is not None}
    for name, value in [*config.items(), *flags.items()]:
        kind = table[name][1]
        if isinstance(kind, tuple):
            want, ok = " or ".join(kind), value in kind
        else:
            want, check = _KINDS[kind]
            ok = check(value)
        if not ok:
            raise ExtractionError(f"option {name} must be {want}, got {value!r}")
    options = {**config, **flags}
    missing = [name for name, _, required, _ in table.values() if required and name not in options]
    if missing:
        flags_text = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ExtractionError(f"missing required option(s): {flags_text}")
    return options


@contextmanager
def _input(path: str) -> Iterator[None]:
    """Re-raise an error in reading or parsing ``path`` as one that names
    the file: any ``ValueError`` (decoding, JSON, brackets, TSV lines), or
    JSON nested too deep for the decoder."""
    try:
        yield
    except (ValueError, RecursionError) as exc:
        raise ExtractionError(f"{path}: {exc}") from None


def _load(path: str, parse: Callable[[str], T], hashed: bool = False) -> tuple[T, str | None]:
    """``parse`` applied to the file's UTF-8 text, and, if ``hashed``, the
    SHA-256 of the very bytes decoded (else None).  An error in decoding
    or parsing names the file.  Only ``learn``'s main input and the
    taxonomy and lexicon are hashed: their digests go into the ``learn``
    header and ``eval`` checks them against it.

    The readers split lines with ``str.splitlines``, so CR and CRLF line
    ends need no newline translation."""
    data = Path(path).read_bytes()
    with _input(path):
        text, sha256 = decode(data), None
        if hashed:
            import hashlib  # here, not at the top: see the module docstring

            sha256 = hashlib.sha256(data).hexdigest()
        del data  # not needed while parsing
        return parse(text), sha256


def load_taxonomy_files(taxonomy_path: str, lexicon_path: str) -> tuple[SenseLexicon, str, str]:
    """The lexicon over its taxonomy, with the SHA-256 of each file's bytes
    as parsed."""
    from .taxonomy import parse_lexicon, parse_taxonomy

    taxonomy, taxonomy_sha256 = _load(taxonomy_path, parse_taxonomy, hashed=True)
    lexicon, lexicon_sha256 = _load(
        lexicon_path, lambda text: parse_lexicon(text, taxonomy), hashed=True
    )
    return lexicon, taxonomy_sha256, lexicon_sha256


def _write_outputs(
    outputs: list[tuple[str, Callable[[TextIO], None]]], inputs: list[str | None]
) -> None:
    """Write each (path, writer) pair to a new file beside its path, then
    move all of them into place with ``os.replace``.

    An output that resolves to one of the run's ``inputs`` (None for one
    not given), or to another output, is refused first: it would replace
    that file.  No output is replaced until every one is complete, so a
    failed write leaves no partial or half-updated output behind.  An
    error names the output path, as opening that path directly would."""
    claimed = {
        os.path.realpath(p): "an output names an input file" for p in inputs if p is not None
    }
    for path, _ in outputs:
        real = os.path.realpath(path)
        if real in claimed:
            raise ExtractionError(f"{path}: {claimed[real]}")
        claimed[real] = "two outputs name the same file"
    temps: list[str] = []
    path = None
    try:
        for path, write in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            head, tail = os.path.split(path)
            temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(temp)
            with open(fd, "w", encoding="utf-8") as f:
                write(f)
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for temp in temps:
            if os.path.exists(temp):
                os.unlink(temp)


# -- subcommands ---------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    from .extract import LEMMA_FAILURE, NON_NOUN_HEAD, PENN, LemmaTable, TagSet, extract_file

    opts = _options(args)
    lemmas, tags = LemmaTable(), PENN
    if "lemmas" in opts:
        lemmas, _ = _load(opts["lemmas"], LemmaTable.from_text)
    if "tagset" in opts:
        tags, _ = _load(opts["tagset"], TagSet.from_json)
    with _input(opts["corpus"]):
        records = extract_file(opts["corpus"], lemmas, tags, _this.extract_corpus)
    kept, discards = [], []
    reasons = dict.fromkeys((NON_NOUN_HEAD, LEMMA_FAILURE), 0)
    for r in records:
        if r.discard_reason is None:
            kept.append(r)
        else:
            discards.append(r)
            reasons[r.discard_reason] += 1
    triples_path = opts["triples"]
    discards_path = opts.get("discards", triples_path + ".discards")
    _write_outputs(
        [
            (triples_path, lambda f: write_triples(kept, f)),
            (discards_path, lambda f: write_discards(discards, f)),
        ],
        [args.config, opts["corpus"], opts.get("lemmas"), opts.get("tagset")],
    )

    raw = len(records)
    non_noun, lemma_fail = reasons[NON_NOUN_HEAD], reasons[LEMMA_FAILURE]
    print(f"raw extractions  {raw}")
    print(f"non-noun heads   {non_noun} ({percentage(non_noun, raw)}%)")
    print(f"lemma failures   {lemma_fail} ({percentage(lemma_fail, raw)}%)")
    print(f"kept             {len(kept)} ({percentage(len(kept), raw)}%)")
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    from .learner import LearnerConfig, learn_all
    from .stats import Scorer

    opts = _options(args)
    if ("triples" in opts) == ("counts" in opts):
        raise ExtractionError("exactly one of --triples and --counts is required")
    # Only the options given: the defaults are LearnerConfig's own.
    cfg = LearnerConfig(**{k: v for k, v in opts.items() if k in LearnerConfig.__slots__})

    lexicon, *digests = load_taxonomy_files(opts["taxonomy"], opts["lexicon"])
    input_path = opts.get("counts") or opts["triples"]
    if "counts" in opts:
        parse = _this.read_counts
    else:
        parse = lambda text: _this.accumulate(read_triples(text))
    table, input_sha256 = _load(input_path, parse, hashed=True)

    restrictions = learn_all(Scorer(table, lexicon), cfg)
    header = {
        "tool": f"selrestr {TOOL_VERSION}",
        "scorer": cfg.scorer.value,
        "estimator": cfg.estimator.value,
        "threshold": str(cfg.threshold),
        "min_verb_support": str(cfg.min_verb_support),
        "keep_nonpositive": "true" if cfg.keep_nonpositive else "false",
        "input_sha256": input_sha256,
        "taxonomy_sha256": digests[0],
        "lexicon_sha256": digests[1],
    }
    _write_outputs(
        [(opts["out"], lambda f: write_restrictions(restrictions, f, header))],
        [args.config, input_path, opts["taxonomy"], opts["lexicon"]],
    )
    positions = {(sr.verb, sr.rel) for sr in restrictions}
    print(f"{len(restrictions)} restrictions across {len(positions)} verb positions")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import read_labels

    opts = _options(args)
    lexicon, *digests = load_taxonomy_files(opts["taxonomy"], opts["lexicon"])
    (header, restrictions), _ = _load(
        opts["srs"], lambda text: (read_header(text), read_restrictions(text))
    )
    for option, digest in zip(("taxonomy", "lexicon"), digests):
        key = f"{option}_sha256"
        if key in header and header[key] != digest:
            raise ExtractionError(
                f"restrictions file {opts['srs']}: {key} does not match --{option} {opts[option]}"
            )
    gold, _ = _load(opts["gold"], _this.read_gold)
    labels = _load(opts["labels"], read_labels)[0] if "labels" in opts else None
    report = _this.evaluate_gold(gold, restrictions, lexicon, labels)
    json_format = opts.get("format", "text") == "json"
    sys.stdout.write(report.render_json() if json_format else report.render_text())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .evaluate import aligned, read_labels

    opts = _options(args)
    restrictions, _ = _load(opts["srs"], read_restrictions)
    label_of = {}
    if "labels" in opts:
        for verb, rel, class_id, label, _count in _load(opts["labels"], read_labels)[0]:
            label_of[verb, rel, class_id] = label.value
    rows = [("verb", "rel", "class", "score", "nouns", "support", "label")]
    for sr in restrictions:
        rows.append(
            (
                sr.verb,
                sr.rel.code,
                sr.class_id,
                f"{sr.score:.6f}",
                str(sr.n_nouns),
                str(sr.support),
                label_of.get((sr.verb, sr.rel, sr.class_id), "-"),
            )
        )
    for line in aligned(rows, "lllrrrl"):
        print(line)
    return 0


# -- argument wiring -----------------------------------------------------


COMMANDS = (
    ("extract", cmd_extract, "corpus trees -> co-occurrence triples"),
    ("learn", cmd_learn, "triples -> selectional restrictions"),
    ("eval", cmd_eval, "restrictions vs. gold triples -> report"),
    ("report", cmd_report, "pretty-print a restrictions file"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selrestr",
        description="Learn class-based selectional restrictions for verbs"
        " from a parsed corpus and a noun taxonomy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for option, kind, _, option_help in OPTIONS[name]:
            flag = "--" + option.replace("_", "-")
            if kind == BOOL:
                command.add_argument(flag, action=argparse.BooleanOptionalAction, help=option_help)
            elif isinstance(kind, tuple):
                command.add_argument(flag, choices=kind, help=option_help)
            else:
                command.add_argument(flag, type=int if kind == INT else str, help=option_help)
        command.add_argument("--config", metavar="JSON", help="JSON file of option defaults")
        command.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(run())
