"""Command-line driver: build graphs, partition them, score controversy.

One subcommand per pipeline stage plus end-to-end ``score``, the
synthetic ``simulate`` sweep, and the ``sentiment`` variance check.
Each subcommand's flags map 1:1 onto its config dataclass
(:class:`PipelineConfig` for the graph commands); a ``key=value`` config
file overrides the dataclass defaults and explicit flags override both.

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
from dataclasses import dataclass, asdict, replace
from datetime import datetime, timezone
from functools import cache, partial

from . import graph as graphmod
from .errors import (
    ControversyError,
    ConvergenceError,
    DegenerateStructureError,
    InputDataError,
)
from .graph import Topic, read_lines
from .measures import (
    MEASURE_NAMES,
    ControversyReport,
    bcc,
    ec,
    force_layout,
    gmck,
    mblb,
    rwc_mc,
    rwc_rwr,
)
from .partition import import_partition, spectral_bisection, write_partition
from .sentiment import classify_by_variance, read_sentiment, sentiment_variance
from .synthetic import DEFAULT_P1_GRID, DEFAULT_P2_GRID, rwc_sweep, write_sweep_csv
from .topics import ExpansionConfig, build_profiles, expand_topic, read_profiles, write_profiles
from .users import user_score_table, write_user_scores
from .walks import RestartWalkConfig, default_k, top_degree

DEFAULT_SEED = 0
GRAPH_KINDS = ("retweet", "follow", "content")


@dataclass
class PipelineConfig:
    """Everything one ``score`` run needs; doubles as the report config."""

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
    expand_k: int = ExpansionConfig.k
    expand_alpha: float = ExpansionConfig.alpha
    # stages
    largest_component: bool = True
    partition_mode: str = "spectral"
    partition_file: str | None = None
    # measure parameters
    measures: str = ",".join(MEASURE_NAMES)
    k: int | None = None
    damping: float = 0.85
    tolerance: float = 1e-10
    max_iters: int = 10000
    n_walks: int = 10000
    n_samples: int = 10000
    layout_iterations: int = 500
    seed: int = DEFAULT_SEED
    topic_label: str | None = None
    # outputs
    out: str | None = None
    csv_out: str | None = None
    user_scores_out: str | None = None
    layout_out: str | None = None
    force: bool = False


@dataclass
class ExpandTopicConfig:
    """What ``expand-topic`` reads: a seed hashtag and the profiles
    (given, or derived from records) to expand it with."""

    topic_seed: str | None = None
    profiles: str | None = None
    records: str | None = None
    write_profiles_path: str | None = None
    expand_k: int = ExpansionConfig.k
    expand_alpha: float = ExpansionConfig.alpha
    out: str | None = None
    force: bool = False


@dataclass
class SimulateConfig:
    """What ``simulate`` reads: the planted sweep's size, (p1, p2) grids
    (comma-separated) and runs per cell."""

    n: int = 2000
    p1_grid: str = ",".join(str(v) for v in DEFAULT_P1_GRID)
    p2_grid: str = ",".join(str(v) for v in DEFAULT_P2_GRID)
    runs: int = 10
    seed: int = DEFAULT_SEED
    k: int | None = None
    redetect: bool = False
    largest_component: bool = True
    out: str | None = None
    force: bool = False


@dataclass
class SentimentConfig:
    """What ``sentiment`` reads: a ``post_id,score`` CSV."""

    scores: str | None = None
    out: str | None = None
    force: bool = False


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
    if not cfg.topic_seed:
        raise InputDataError("a topic seed is required for record-based graphs")
    if cfg.topic_tags:
        return Topic.make(cfg.topic_seed, cfg.topic_tags.split(","))
    if cfg.profiles:
        return expand_topic(
            cfg.topic_seed,
            read_profiles(cfg.profiles),
            ExpansionConfig(alpha=cfg.expand_alpha, k=cfg.expand_k),
        )
    return Topic.make(cfg.topic_seed)


def _build_graph(cfg: PipelineConfig):
    if (cfg.edgelist is None) == (cfg.records is None):
        raise InputDataError("exactly one graph source (edgelist or records) required")
    if cfg.edgelist is not None:
        g = graphmod.read_edgelist(cfg.edgelist, directed=cfg.directed)
        label = cfg.topic_label or os.path.splitext(os.path.basename(cfg.edgelist))[0]
        return g, label
    records = graphmod.read_records(cfg.records)
    if cfg.kind not in GRAPH_KINDS:
        raise InputDataError(f"unknown graph kind {cfg.kind!r}")
    if cfg.kind == "follow":
        if not cfg.follows:
            raise InputDataError("follow graphs need --follows")
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


def _check_outputs(cfg, fields):
    """Refuse an existing output without --force, and two outputs that
    name one file. ``fields`` are the config fields that name outputs."""
    seen = set()
    for path in filter(None, (getattr(cfg, f) for f in fields)):
        real = os.path.realpath(path)
        if real in seen:
            raise InputDataError(f"two outputs name {path}")
        seen.add(real)
        if os.path.exists(path) and not cfg.force:
            raise InputDataError(f"refusing to overwrite {path} (use --force)")


def _load_graph(cfg: PipelineConfig):
    """The build and largest-component stages every graph command shares."""
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
            if not cfg.partition_file:
                raise InputDataError("partition import needs --partition-file")
            return import_partition(g, cfg.partition_file)
        if cfg.partition_mode == "spectral":
            return spectral_bisection(g, seed=cfg.seed)
        raise InputDataError(f"unknown partition mode {cfg.partition_mode!r}")


def run_pipeline(cfg: PipelineConfig):
    """Execute build -> largest component -> partition -> measures and
    return the report with the (path, writer) pairs of the requested
    outputs. Each measure runs on exactly the parameters it reports."""
    g, label = _load_graph(cfg)
    part = _partition(cfg, g)

    wanted = [m.strip() for m in cfg.measures.split(",") if m.strip()]
    unknown = [m for m in wanted if m not in MEASURE_NAMES]
    if unknown:
        raise InputDataError(f"unknown measures: {', '.join(unknown)}")
    k = cfg.k if cfg.k is not None else default_k(part)
    walk = {"damping": cfg.damping, "tolerance": cfg.tolerance, "max_iters": cfg.max_iters}
    walk_cfg = RestartWalkConfig(**walk)
    report = ControversyReport(topic=label, n_vertices=g.n_vertices, n_edges=g.n_edges,
                               config=asdict(cfg))
    # one layout for both ``ec`` and --layout-out
    layout = cache(lambda iterations: force_layout(g, iterations=iterations, seed=cfg.seed))
    with _stage("measure"):
        for name in wanted:
            if name == "rwc_mc":
                params = {"k": k, "n_walks": cfg.n_walks}
                value = rwc_mc(g, part, **params, seed=cfg.seed)
            elif name == "rwc_rwr":
                params = {"k": k, **walk}
                value = rwc_rwr(g, part, k=k, cfg=walk_cfg)
            elif name == "bcc":
                params = {"n_samples": cfg.n_samples}
                value = bcc(g, part, **params, seed=cfg.seed)
            elif name == "ec":
                params = {"layout_iterations": cfg.layout_iterations}
                value = ec(layout(cfg.layout_iterations), part)
            elif name == "gmck":
                params = {}
                value = gmck(g, part)
            else:
                params = {"seed_fraction": 0.05, "tol": 1e-6, "max_iters": 1000}
                value = mblb(g, part, **params)
            report.add(name, value, params, seed=cfg.seed)
    if cfg.user_scores_out:
        with _stage("user-scores"):
            hds = top_degree(g, part, k)
            user_rows = user_score_table(g, part, hds, walk_cfg)
        unreached = [r.user_id for r in user_rows if math.isnan(r.rwc_user)]
        if unreached:
            print(f"warning: the restart walks of {len(unreached)} of {len(user_rows)} users "
                  f"reach no high-degree vertex (the first is {unreached[0]!r}); "
                  "their rwc_user is nan", file=sys.stderr)
    report.timestamp = datetime.now(timezone.utc).isoformat()

    writers = []
    if cfg.out:
        writers.append((cfg.out, partial(_write_text, text=report.to_json() + "\n")))
    if cfg.csv_out:
        row = report.csv_header() + "\n" + report.to_csv_row() + "\n"
        writers.append((cfg.csv_out, partial(_write_text, text=row)))
    if cfg.user_scores_out:
        writers.append((cfg.user_scores_out, partial(write_user_scores, user_rows)))
    if cfg.layout_out:
        with _stage("output"):
            coords = "".join(f"{uid}\t{float(x)!r}\t{float(y)!r}\n"
                             for uid, (x, y) in zip(g.ids, layout(cfg.layout_iterations)))
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
    values = {}
    for lineno, line in read_lines(path, comments=True):
        if "=" not in line:
            raise InputDataError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


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
    except json.JSONDecodeError:
        value = raw
    if kind is str:
        return value if isinstance(value, str) else raw
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise InputDataError(f"{path}: config key {key} must be {kind.__name__}, got {raw}")
    return value


def _resolve(config_cls, ns):
    """The command's config: dataclass defaults < config file < explicit
    flags. Every flag defaults to ``argparse.SUPPRESS``, so ``ns`` holds
    only the flags actually given."""
    values = asdict(config_cls())
    if getattr(ns, "config", None):
        file_values = _read_config_file(ns.config)
        unknown = set(file_values) - set(values)
        if unknown:
            raise InputDataError(
                f"{ns.config}: unknown config keys: {', '.join(sorted(unknown))}"
            )
        kinds = typing.get_type_hints(config_cls)
        values.update(
            (key, _config_value(ns.config, key, raw, kinds[key]))
            for key, raw in file_values.items()
        )
    values.update((k, v) for k, v in vars(ns).items() if k not in ("command", "config"))
    return config_cls(**values)


def _add_bool(parser, name, help_text):
    dest = name.replace("-", "_")
    parser.add_argument(f"--{name}", dest=dest, action="store_true", help=help_text)


def _add_no_largest_component(parser, help_text="keep the full graph"):
    parser.add_argument("--no-largest-component", dest="largest_component",
                        action="store_false", help=help_text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="controversy",
        description="Quantify how controversial a topic is from its conversation graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new_sub(name, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value defaults file (flags override)")
        return p

    def add_source_flags(p, with_topic=True):
        p.add_argument("--edgelist", help="TSV edge list (src, dst, optional weight)")
        _add_bool(p, "directed", "read the edge list as directed arcs")
        p.add_argument("--records", help="JSON-lines interaction records")
        p.add_argument("--kind", choices=GRAPH_KINDS, help="graph built from records")
        p.add_argument("--follows", help="TSV follower/followee pairs (kind=follow)")
        p.add_argument("--content-mode", dest="content_mode",
                       choices=("shared-hashtag", "shared-url", "shared-domain"))
        p.add_argument("--tau", type=int, help="per-hashtag retweet threshold")
        if with_topic:
            p.add_argument("--topic-seed", dest="topic_seed")
            p.add_argument("--topic-tags", dest="topic_tags",
                           help="comma-separated explicit topic members")
            p.add_argument("--profiles", help="JSON-lines hashtag profiles for expansion")
            p.add_argument("--expand-k", dest="expand_k", type=int)
            p.add_argument("--expand-alpha", dest="expand_alpha", type=float)

    def add_walk_bound_flags(p):
        p.add_argument("--tolerance", type=float, help="restart-walk error tolerance")
        p.add_argument("--max-iters", dest="max_iters", type=int,
                       help="restart-walk iteration budget (exit 3 when exceeded)")

    p = new_sub("build-graph", "build a conversation graph and write its edge list")
    add_source_flags(p)
    p.add_argument("--out", required=True)
    _add_bool(p, "force", "overwrite existing outputs")
    _add_no_largest_component(p)

    p = new_sub("expand-topic", "expand a seed hashtag into a topic")
    p.add_argument("--seed-tag", dest="topic_seed", required=True)
    p.add_argument("--profiles", help="JSON-lines hashtag profiles")
    p.add_argument("--records", help="derive profiles from these records instead")
    p.add_argument("--write-profiles", dest="write_profiles_path",
                   help="also write the derived profiles here")
    p.add_argument("--expand-k", dest="expand_k", type=int)
    p.add_argument("--expand-alpha", dest="expand_alpha", type=float)
    p.add_argument("--out")
    _add_bool(p, "force", "overwrite existing outputs")

    p = new_sub("partition", "bisect a graph (spectral) or import labels")
    add_source_flags(p)
    p.add_argument("--partition-mode", dest="partition_mode", choices=("spectral", "import"))
    p.add_argument("--partition-file", dest="partition_file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_bool(p, "force", "overwrite existing outputs")
    _add_no_largest_component(p)

    p = new_sub("score", "run the full pipeline and emit a report")
    add_source_flags(p)
    p.add_argument("--partition-mode", dest="partition_mode", choices=("spectral", "import"))
    p.add_argument("--partition-file", dest="partition_file")
    p.add_argument("--measures", help=f"comma list from: {','.join(MEASURE_NAMES)}")
    p.add_argument("--k", type=int, help="authorities per side (default: 5%% of smaller side)")
    p.add_argument("--damping", type=float)
    add_walk_bound_flags(p)
    p.add_argument("--n-walks", dest="n_walks", type=int)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--layout-iterations", dest="layout_iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--topic-label", dest="topic_label")
    p.add_argument("--out", help="report JSON (stdout when omitted)")
    p.add_argument("--csv-out", dest="csv_out")
    p.add_argument("--user-scores-out", dest="user_scores_out")
    p.add_argument("--layout-out", dest="layout_out")
    _add_bool(p, "force", "overwrite existing outputs")
    _add_no_largest_component(p)

    p = new_sub("user-scores", "per-user controversy scores")
    add_source_flags(p, with_topic=True)
    p.add_argument("--partition-mode", dest="partition_mode", choices=("spectral", "import"))
    p.add_argument("--partition-file", dest="partition_file")
    p.add_argument("--k", type=int)
    p.add_argument("--damping", type=float)
    add_walk_bound_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_bool(p, "force", "overwrite existing outputs")
    _add_no_largest_component(p)

    p = new_sub("simulate", "planted two-community sweep over (p1, p2)")
    p.add_argument("--n", type=int)
    p.add_argument("--p1-grid", dest="p1_grid")
    p.add_argument("--p2-grid", dest="p2_grid")
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", type=int)
    _add_bool(p, "redetect", "re-partition spectrally instead of using ground truth")
    _add_no_largest_component(p, "score the full graph")
    p.add_argument("--out", required=True)
    _add_bool(p, "force", "overwrite existing outputs")

    p = new_sub("sentiment", "variance label for per-post sentiment scores")
    p.add_argument("--scores", required=True, help="CSV post_id,score")
    p.add_argument("--out")
    _add_bool(p, "force", "overwrite existing outputs")

    return parser


# Each command returns its (path, writer) pairs and the text it prints
# when there is no --out; ``main`` guards and writes the outputs.


def _cmd_build_graph(cfg):
    g, _ = _load_graph(cfg)
    return [(cfg.out, partial(graphmod.write_edgelist, g))], None


def _cmd_expand_topic(cfg):
    with _stage("expand"):
        if cfg.profiles:
            profiles = read_profiles(cfg.profiles)
        elif cfg.records:
            profiles = build_profiles(graphmod.read_records(cfg.records))
        else:
            raise InputDataError("need --profiles or --records")
        topic = expand_topic(
            cfg.topic_seed, profiles, ExpansionConfig(alpha=cfg.expand_alpha, k=cfg.expand_k)
        )
    payload = json.dumps({"seed": topic.seed, "members": list(topic.members)}, indent=2)
    writers = []
    if cfg.write_profiles_path:
        writers.append((cfg.write_profiles_path, partial(write_profiles, profiles)))
    if cfg.out:
        writers.append((cfg.out, partial(_write_text, text=payload + "\n")))
    return writers, payload


def _cmd_partition(cfg):
    g, _ = _load_graph(cfg)
    part = _partition(cfg, g)
    return [(cfg.out, partial(write_partition, g, part))], None


def _cmd_score(cfg):
    report, writers = run_pipeline(cfg)
    return writers, report.to_json()


def _cmd_user_scores(cfg):
    """``score`` without measures, its user-score table written to --out."""
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
    with _stage("simulate"):
        p1_values, p2_values = _grid("--p1-grid", cfg.p1_grid), _grid("--p2-grid", cfg.p2_grid)
        rows = rwc_sweep(n=cfg.n, p1_values=p1_values, p2_values=p2_values, runs=cfg.runs,
                         base_seed=cfg.seed, k=cfg.k,
                         use_largest_component=cfg.largest_component, redetect=cfg.redetect)
    return [(cfg.out, partial(write_sweep_csv, rows))], None


def _cmd_sentiment(cfg):
    with _stage("sentiment"):
        records = read_sentiment(cfg.scores)
        variance = sentiment_variance(records)
        label = classify_by_variance(variance)
    payload = json.dumps({"n_posts": len(records), "variance": variance, "label": label},
                         indent=2)
    writers = [(cfg.out, partial(_write_text, text=payload + "\n"))] if cfg.out else []
    return writers, payload


# command -> (function, config class, the config fields that name its outputs)
_COMMANDS = {
    "build-graph": (_cmd_build_graph, PipelineConfig, ("out",)),
    "expand-topic": (_cmd_expand_topic, ExpandTopicConfig, ("out", "write_profiles_path")),
    "partition": (_cmd_partition, PipelineConfig, ("out",)),
    "score": (_cmd_score, PipelineConfig, ("out", "csv_out", "user_scores_out", "layout_out")),
    "user-scores": (_cmd_user_scores, PipelineConfig, ("out", "csv_out", "layout_out")),
    "simulate": (_cmd_simulate, SimulateConfig, ("out",)),
    "sentiment": (_cmd_sentiment, SentimentConfig, ("out",)),
}

# exit code per error class; the first class that matches wins
_EXIT_CODES = {InputDataError: 2, ConvergenceError: 3, DegenerateStructureError: 4,
               ValueError: 2, OSError: 2}


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    command, config_cls, outputs = _COMMANDS[ns.command]
    try:
        cfg = _resolve(config_cls, ns)
        with _stage("output"):
            _check_outputs(cfg, outputs)
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
