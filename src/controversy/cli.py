"""Command-line driver: build graphs, partition them, score controversy.

One subcommand per pipeline stage plus end-to-end ``score``, the
synthetic ``simulate`` sweep, and the ``sentiment`` variance check.
A subcommand's flags and config-file keys are the same set: the options
its ``_COMMANDS`` entry lists, each a field of :class:`PipelineConfig`,
the one config dataclass. A ``key=value`` config file overrides the
dataclass defaults and explicit flags override both.

Exit codes: 0 success, 2 input error, 3 numerical non-convergence,
4 degenerate structure (empty cut/boundary/terminations).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cache, partial

from . import _pool, graph as graphmod, measures, users
from .errors import (
    ControversyError,
    ConvergenceError,
    DegenerateStructureError,
    InputDataError,
)
from .graph import Topic, read_rows
from .measures import (
    MEASURE_NAMES,
    ControversyReport,
    bcc,
    ec,
    force_layout,
    gmck,
    mblb,
    rwc_mc,
)
from .partition import import_partition, spectral_bisection, write_partition
from .sentiment import classify_by_variance, read_sentiment, sentiment_variance
from .synthetic import DEFAULT_P1_GRID, DEFAULT_P2_GRID, rwc_sweep, write_sweep_csv
from .topics import (EXPAND_ALPHA, EXPAND_K, build_profiles, expand_topic, read_profiles,
                     write_profiles)
from .users import write_user_scores
from .walks import DAMPING, _restart_visits, default_k, top_degree

# the values each choice field of PipelineConfig takes
CHOICES = {"kind": ("retweet", "follow", "content"), "content_mode": graphmod.CONTENT_MODES,
           "partition_mode": ("spectral", "import")}


@dataclass
class PipelineConfig:
    """Every subcommand's options; each subcommand reads the options its
    ``_COMMANDS`` entry lists. ``score``'s options are the report config."""

    # graph source: exactly one of edgelist / records
    edgelist: str | None = None
    directed: bool = False
    records: str | None = None
    kind: str = "retweet"
    follows: str | None = None
    content_mode: str = "shared-hashtag"
    tau: int = 2
    topic_seed: str | None = None
    topic_tags: str | None = None  # comma-separated explicit members
    profiles: str | None = None
    expand_k: int = EXPAND_K
    expand_alpha: float = EXPAND_ALPHA
    # stages
    largest_component: bool = True
    partition_mode: str = "spectral"
    partition_file: str | None = None
    # measure parameters
    measures: str = ",".join(MEASURE_NAMES)
    k: int | None = None
    damping: float = DAMPING
    n_walks: int = 10000
    n_samples: int = 10000
    layout_iterations: int = 500
    seed: int = 0
    topic_label: str | None = None
    # outputs
    out: str | None = None
    csv_out: str | None = None
    user_scores_out: str | None = None
    layout_out: str | None = None
    force: bool = False
    # expand-topic: the hashtag to expand; where to write the derived profiles
    seed_tag: str | None = None
    write_profiles: str | None = None
    # simulate: the planted sweep's size, (p1, p2) grids (comma-separated),
    # runs per cell, and whether to re-partition spectrally
    n: int = 2000
    p1_grid: str = ",".join(str(v) for v in DEFAULT_P1_GRID)
    p2_grid: str = ",".join(str(v) for v in DEFAULT_P2_GRID)
    runs: int = 10
    redetect: bool = False
    # sentiment: a post_id,score CSV
    scores: str | None = None

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InputDataError(f"unknown {name} {getattr(self, name)!r} "
                                     f"(one of: {', '.join(allowed)})")
        wanted = self.wanted
        if unknown := [m for m in wanted if m not in MEASURE_NAMES]:
            raise InputDataError(f"unknown measures: {', '.join(unknown)}")
        if repeated := sorted({m for m in wanted if wanted.count(m) > 1}):
            raise InputDataError(f"duplicate measures: {', '.join(repeated)}")
        # check the numeric options before any input is read; the library
        # checks each again where it uses it
        for option, least in (("k", 1), ("n_walks", 1), ("n_samples", 1),
                              ("layout_iterations", 0), ("tau", 1), ("seed", 0),
                              ("expand_k", 1)):
            value = getattr(self, option)
            if value is not None and value < least:
                raise InputDataError(f"{_flag(option)} must be >= {least}")
        if not 0.0 < self.damping < 1.0:
            raise InputDataError("--damping must be in (0, 1)")
        if not 0.0 <= self.expand_alpha <= 1.0:
            raise InputDataError("--expand-alpha must be in [0, 1]")

    @property
    def wanted(self):
        """The names in ``measures``, in order."""
        return [m.strip() for m in self.measures.split(",") if m.strip()]


@contextmanager
def _stage(name):
    """Tag errors with the pipeline stage they came from."""
    try:
        yield
    except ControversyError as exc:
        exc.args = (f"{name}: {exc.args[0]}",) + exc.args[1:]
        raise
    except ValueError as exc:
        raise InputDataError(f"{name}: {exc}") from exc


def _resolve_topic(cfg: PipelineConfig) -> Topic:
    if cfg.topic_tags:
        return Topic.make(cfg.topic_seed, cfg.topic_tags.split(","))
    if cfg.profiles:
        return expand_topic(cfg.topic_seed, read_profiles(cfg.profiles),
                            alpha=cfg.expand_alpha, k=cfg.expand_k)
    return Topic.make(cfg.topic_seed)


def _build_graph(cfg: PipelineConfig):
    if (cfg.edgelist is None) == (cfg.records is None):
        raise InputDataError("exactly one graph source (edgelist or records) required")
    if cfg.edgelist is not None:
        g = graphmod.read_edgelist(cfg.edgelist, directed=cfg.directed)
        label = cfg.topic_label or os.path.splitext(os.path.basename(cfg.edgelist))[0]
        return g, label
    if cfg.kind == "follow" and not cfg.follows:
        raise InputDataError("follow graphs need --follows")
    if cfg.kind != "follow" and not cfg.topic_seed:
        raise InputDataError("a topic seed is required for record-based graphs")
    records = graphmod.read_records(cfg.records)
    if cfg.kind == "follow":
        g = graphmod.build_follow_graph(
            graphmod.read_follow_edges(cfg.follows),
            {r.author for r in records},
        )
        label = cfg.topic_label or "follow"
    else:
        topic = _resolve_topic(cfg)
        if cfg.kind == "retweet":
            g = graphmod.build_retweet_graph(records, topic, tau=cfg.tau)
        else:
            g = graphmod.build_content_graph(records, topic, mode=cfg.content_mode)
        label = cfg.topic_label or topic.seed
    if g.n_vertices == 0:
        raise InputDataError("empty graph: no qualifying edges in the records")
    return g, label


def _check_outputs(cfg):
    """Refuse an existing output without --force, and two outputs that
    name one file. An output that is not the command's option is None."""
    seen = set()
    for path in filter(None, (getattr(cfg, f) for f in _OUTPUTS)):
        real = os.path.realpath(path)
        if real in seen:
            raise InputDataError(f"two outputs name {path}")
        seen.add(real)
        if os.path.exists(path) and not cfg.force:
            raise InputDataError(f"refusing to overwrite {path} (use --force)")


def _load_graph(cfg: PipelineConfig):
    """The build and largest-component stages every graph command shares.
    The partition stage's option is checked here, before any input is read."""
    with _stage("partition"):
        if cfg.partition_mode == "import" and not cfg.partition_file:
            raise InputDataError("partition import needs --partition-file")
    with _stage("build"):
        g, label = _build_graph(cfg)
    with _stage("component"):
        if cfg.largest_component:
            g = graphmod.largest_component(g)
    return g, label


def _partition(cfg: PipelineConfig, g):
    """The partition stage: spectral bisection or an imported label file."""
    with _stage("partition"):
        if cfg.partition_mode == "import":
            return import_partition(g, cfg.partition_file)
        return spectral_bisection(g, seed=cfg.seed)


# the measure-stage tasks that go to worker processes, longest first. At n = 3000
# the others and the user scores each take at most about 20 ms, no more than a
# pool costs to start, feed and join, so they run here while the workers run.
_POOLED = ("force_layout", "rwc_mc", "bcc")


def _measure_task(name, g, part, cfg, k, visits=None):
    """(parameters, value) of one task of the measure stage. A module-level
    function, so that a worker process can run it; it calls each stage
    through this module's names; ``rwc_rwr`` reads its walk from ``visits()``."""
    if name == "force_layout":
        params = {"layout_iterations": cfg.layout_iterations}
        return params, force_layout(g, iterations=cfg.layout_iterations, seed=cfg.seed)
    if name == "rwc_mc":
        params = {"k": k, "n_walks": cfg.n_walks}
        return params, rwc_mc(g, part, **params, seed=cfg.seed)
    if name == "bcc":
        params = {"n_samples": cfg.n_samples}
        return params, bcc(g, part, **params, seed=cfg.seed)
    if name == "rwc_rwr":
        conditionals = measures._visit_conditionals(part, cfg.damping, *visits())
        return {"k": k, "damping": cfg.damping}, measures._rwc(conditionals)
    if name == "gmck":
        return {}, gmck(g, part)
    params = {"seed_fraction": 0.05, "tol": 1e-6, "max_iters": 1000}
    return params, mblb(g, part, **params)


def run_pipeline(cfg: PipelineConfig):
    """Execute build -> largest component -> partition -> measures and
    return the report with the (path, writer) pairs of the requested
    outputs. Each measure runs on exactly the parameters it reports.

    The ``_POOLED`` tasks run side by side in worker processes (see
    :func:`controversy._pool.results`), the others here; values, warnings
    and the first error are those of running them one by one in
    ``cfg.measures`` order."""
    g, label = _load_graph(cfg)
    part = _partition(cfg, g)

    k = cfg.k if cfg.k is not None else default_k(part)
    # the restart walk that rwc_rwr and the user scores read, solved on first use
    visits = cache(lambda: _restart_visits(g, *top_degree(g, part, k), cfg.damping))
    report = ControversyReport(topic=label, n_vertices=g.n_vertices, n_edges=g.n_edges,
                               config={name: getattr(cfg, name) for name in _COMMANDS["score"][1]})
    needed = {"force_layout" if m == "ec" else m for m in cfg.wanted}
    if cfg.layout_out:
        needed.add("force_layout")
    tasks = {name: (name, g, part, cfg, k) for name in _POOLED if name in needed}
    with _pool.results(_measure_task, tasks) as result:
        with _stage("measure"):
            for name in cfg.wanted:
                task = "force_layout" if name == "ec" else name
                params, value = (result(task) if task in tasks
                                 else _measure_task(task, g, part, cfg, k, visits))
                if name == "ec":
                    value = ec(value, part)
                report.add(name, value, params, seed=cfg.seed)
        if cfg.user_scores_out:
            with _stage("user-scores"):
                rho = users.hitting_score_all(g, part, k)
                scores = users._own_share(part, *visits()[:2]), rho
            unreached = [u for u, v in zip(g.ids, scores[0].tolist()) if math.isnan(v)]
            if unreached:
                print(f"warning: the restart walks of {len(unreached)} of {g.n_vertices} "
                      f"users reach no high-degree vertex (the first is {unreached[0]!r}); "
                      "their rwc_user is nan", file=sys.stderr)
        if cfg.layout_out:
            with _stage("output"):
                coords = "".join(f"{uid}\t{float(x)!r}\t{float(y)!r}\n"
                                 for uid, (x, y) in zip(g.ids, result("force_layout")[1]))
    report.timestamp = datetime.now(timezone.utc).isoformat()

    writers = []
    if cfg.out:
        writers.append((cfg.out, partial(_write_text, text=report.to_json() + "\n")))
    if cfg.csv_out:
        row = report.csv_header() + "\n" + report.to_csv_row() + "\n"
        writers.append((cfg.csv_out, partial(_write_text, text=row)))
    if cfg.user_scores_out:
        writers.append((cfg.user_scores_out, partial(write_user_scores, g, part, scores)))
    if cfg.layout_out:
        writers.append((cfg.layout_out, partial(_write_text, text=coords)))
    return report, writers


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_all(writers):
    """Run every (path, write) pair on a temp file beside its path, then
    move them all into place, so a failed write leaves no output behind.
    An error names the output path, not its temp file."""
    staged = []
    try:
        for path, write in writers:
            staged.append(f"{path}.{os.getpid()}.tmp")
            try:
                write(staged[-1])
            except OSError as exc:
                if exc.filename == staged[-1]:
                    exc.filename = path
                raise
        for tmp, (path, _) in zip(staged, writers):
            os.replace(tmp, path)
    finally:
        for tmp in staged:
            with suppress(FileNotFoundError):
                os.remove(tmp)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _read_config_file(path):
    """The ``key=value`` lines of a config file, values as written."""
    def parse(line):
        if "=" not in line:
            raise InputDataError("expected key=value")
        key, _, raw = line.partition("=")
        return key.strip().replace("-", "_"), raw.strip()

    return dict(read_rows(path, parse, comments=True))


# PipelineConfig's field types (X or X | None), shared by parser and config-file reader
_type_hints = cache(typing.get_type_hints)


def _config_value(path, key, raw, kind):
    """A config file's text for ``key`` as a value of the field type
    ``kind`` (``int``, ``float``, ``bool``, ``str``, or one of them
    ``| None``). Values are JSON (``null``, ``true``, ``"text"``); a str
    field also takes bare text."""
    options = typing.get_args(kind)
    if options:  # X | None
        if raw == "null":
            return None
        (kind,) = (t for t in options if t is not type(None))
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, too deep, or too many digits: bare text
        value = raw
    if kind is str:
        return value if isinstance(value, str) else raw
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        shown = raw if len(raw) <= 40 else raw[:40] + "..."
        raise InputDataError(f"{path}: config key {key} must be {kind.__name__}, got {shown}")
    return value


def _flag(option):
    return "--" + option.replace("_", "-")


def _resolve(ns, options, required):
    """The command's config: dataclass defaults < config file < explicit flags,
    both of which set exactly the command's options. Every flag defaults to
    ``argparse.SUPPRESS``, so ``ns`` holds only the flags actually given."""
    values = {}
    if getattr(ns, "config", None):
        file_values = _read_config_file(ns.config)
        if unknown := sorted(set(file_values) - set(options)):
            raise InputDataError(f"{ns.config}: unknown config keys: {', '.join(unknown)}")
        hints = _type_hints(PipelineConfig)
        values.update((key, _config_value(ns.config, key, raw, hints[key]))
                      for key, raw in file_values.items())
    values.update((k, v) for k, v in vars(ns).items() if k not in ("command", "config"))
    missing = [_flag(name) for name in required if values.get(name) is None]
    if missing:
        raise InputDataError(f"missing required option: {', '.join(missing)}")
    return PipelineConfig(**values)


# the help line of each option that has one
_HELP = {
    "seed_tag": "hashtag to expand",
    "edgelist": "TSV edge list (src, dst, optional weight)",
    "directed": "read the edge list as directed arcs",
    "records": "JSON-lines interaction records",
    "kind": "graph built from records",
    "follows": "TSV follower/followee pairs (kind=follow)",
    "content_mode": "what links two authors (kind=content)",
    "tau": "per-hashtag retweet threshold",
    "topic_tags": "comma-separated explicit topic members",
    "profiles": "JSON-lines hashtag profiles for expansion",
    "largest_component": "keep the full graph",
    "partition_mode": "how the two sides are found",
    "measures": f"comma list from: {','.join(MEASURE_NAMES)}",
    "k": "authorities per side (default: 5%% of smaller side)",
    "out": "output file (score, expand-topic and sentiment print to stdout without it)",
    "write_profiles": "also write the derived profiles here",
    "redetect": "re-partition spectrally instead of using ground truth",
    "scores": "CSV post_id,score",
    "force": "overwrite existing outputs",
}


def build_parser():
    """One subparser per ``_COMMANDS`` entry, one flag per option: ``--name`` typed
    by its field, or for a bool ``--name`` or (default true) ``--no-name``."""
    parser = argparse.ArgumentParser(prog="controversy", description=(
        "Quantify how controversial a topic is from its conversation graph."))
    sub = parser.add_subparsers(dest="command", required=True)
    hints = _type_hints(PipelineConfig)
    for name, (command, options, required) in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value defaults file (flags override)")
        for option in options:
            flag, kind = _flag(option), (typing.get_args(hints[option]) or (hints[option],))[0]
            if kind is not bool:
                spec = {"type": kind}
            elif getattr(PipelineConfig, option):
                flag, spec = "--no-" + flag[2:], {"action": "store_false"}
            else:
                spec = {"action": "store_true"}
            text = _HELP.get(option, "")
            if option in CHOICES:
                text += f": one of {', '.join(CHOICES[option])}"
            if option in required:
                text += " (required)"
            p.add_argument(flag, dest=option, help=text, **spec)
    return parser


# Each command returns its (path, writer) pairs and the text it prints
# when there is no --out; ``main`` guards and writes the outputs.


def _cmd_build_graph(cfg):
    """Build a conversation graph and write its edge list."""
    g, _ = _load_graph(cfg)
    return [(cfg.out, partial(graphmod.write_edgelist, g))], None


def _cmd_expand_topic(cfg):
    """Expand a seed hashtag into a topic (profiles given or derived from records)."""
    with _stage("expand"):
        if cfg.profiles:
            profiles = read_profiles(cfg.profiles)
        elif cfg.records:
            profiles = build_profiles(graphmod.read_records(cfg.records))
        else:
            raise InputDataError("need --profiles or --records")
        topic = expand_topic(cfg.seed_tag, profiles, alpha=cfg.expand_alpha, k=cfg.expand_k)
    payload = json.dumps({"seed": topic.seed, "members": list(topic.members)}, indent=2)
    writers = []
    if cfg.write_profiles:
        writers.append((cfg.write_profiles, partial(write_profiles, profiles)))
    if cfg.out:
        writers.append((cfg.out, partial(_write_text, text=payload + "\n")))
    return writers, payload


def _cmd_partition(cfg):
    """Bisect a graph (spectral) or import side labels."""
    g, _ = _load_graph(cfg)
    part = _partition(cfg, g)
    return [(cfg.out, partial(write_partition, g, part))], None


def _cmd_score(cfg):
    """Run the full pipeline and emit a report."""
    report, writers = run_pipeline(cfg)
    return writers, report.to_json()


def _cmd_user_scores(cfg):
    """Per-user controversy scores (the score pipeline without its measures)."""
    cfg = replace(cfg, out=None, user_scores_out=cfg.out, measures="")
    return run_pipeline(cfg)[1], None


def _grid(flag, text):
    """The values of a comma-separated probability grid."""
    try:
        values = [float(v) for v in str(text).split(",") if v]
    except ValueError:
        raise InputDataError(f"{flag}: not a comma-separated list of numbers: {text!r}") from None
    if not values:
        raise InputDataError(f"{flag}: empty grid")
    return values


def _cmd_simulate(cfg):
    """Planted two-community sweep over (p1, p2)."""
    with _stage("simulate"):
        p1_values, p2_values = _grid("--p1-grid", cfg.p1_grid), _grid("--p2-grid", cfg.p2_grid)
        rows = rwc_sweep(n=cfg.n, p1_values=p1_values, p2_values=p2_values, runs=cfg.runs,
                         base_seed=cfg.seed, k=cfg.k,
                         use_largest_component=cfg.largest_component, redetect=cfg.redetect)
    return [(cfg.out, partial(write_sweep_csv, rows))], None


def _cmd_sentiment(cfg):
    """Variance label for per-post sentiment scores."""
    with _stage("sentiment"):
        records = read_sentiment(cfg.scores)
        variance = sentiment_variance(records)
        label = classify_by_variance(variance)
    payload = json.dumps({"n_posts": len(records), "variance": variance, "label": label},
                         indent=2)
    writers = [(cfg.out, partial(_write_text, text=payload + "\n"))] if cfg.out else []
    return writers, payload


# the options each graph command shares
_GRAPH = ("edgelist", "directed", "records", "kind", "follows", "content_mode", "tau",
          "topic_seed", "topic_tags", "profiles", "expand_k", "expand_alpha", "largest_component")
_SIDES = ("partition_mode", "partition_file", "seed")
_WALK = ("k", "damping")
# the options that name output files
_OUTPUTS = ("out", "csv_out", "user_scores_out", "layout_out", "write_profiles")

# command -> (function, its options, the options it cannot run without).
# Its flags and config-file keys are exactly its options.
_COMMANDS = {
    "build-graph": (_cmd_build_graph, (*_GRAPH, "out", "force"), ("out",)),
    "expand-topic": (_cmd_expand_topic, ("seed_tag", "profiles", "records", "write_profiles",
                     "expand_k", "expand_alpha", "out", "force"), ("seed_tag",)),
    "partition": (_cmd_partition, (*_GRAPH, *_SIDES, "out", "force"), ("out",)),
    "score": (_cmd_score, (*_GRAPH, *_SIDES, "measures", *_WALK, "n_walks", "n_samples",
              "layout_iterations", "topic_label", "out", "csv_out", "user_scores_out",
              "layout_out", "force"), ()),
    "user-scores": (_cmd_user_scores, (*_GRAPH, *_SIDES, *_WALK, "out", "force"), ("out",)),
    "simulate": (_cmd_simulate, ("n", "p1_grid", "p2_grid", "runs", "seed", "k", "redetect",
                 "largest_component", "out", "force"), ("out",)),
    "sentiment": (_cmd_sentiment, ("scores", "out", "force"), ("scores",)),
}

# exit code per error class; the first class that matches wins
_EXIT_CODES = {InputDataError: 2, ConvergenceError: 3, DegenerateStructureError: 4,
               ValueError: 2, OSError: 2}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    command, options, required = _COMMANDS[ns.command]
    try:
        cfg = _resolve(ns, options, required)
        with _stage("output"):
            _check_outputs(cfg)
        writers, text = command(cfg)
        with _stage("output"):
            _write_all(writers)
        if not cfg.out and text is not None:
            print(text)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error [{exc}]", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
