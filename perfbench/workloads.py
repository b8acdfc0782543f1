"""The benchmark's workloads: inputs, one timed operation, probes, gate.

Each workload knows how to
- ``prepare`` its seeded inputs and their reference values (once per seed);
- run one ``operation``: the program's command lines, through ``call``,
  which times them; the return value is the number of graphs scored;
- list its known-defect ``probes``: (label, command line, output check
  or None), commands that fail today, run outside the timed region;
- ``check`` one operation's outputs against the reference.

Tolerances of the gate:
- EXACT_TOL for closed-form scores (rwc_rwr, rwc_user, gmck, bcc, the
  sweep means): the program iterates to 1e-10 in L1, the oracles solve
  directly;
- MBLB_TOL for the dipole score, whose propagation stops at a 1e-6
  max-change tolerance;
- rwc_mc must fall within MC_SIGMAS standard errors of its exact
  expectation;
- EC_TOL for the embedding score against the exact layout, so that an
  approximate layout passes when it keeps the score within 0.02;
- a written layout must parse and give the report's ec to EXACT_TOL.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs
import reference

EXACT_TOL = 1e-8
MBLB_TOL = 1e-6
MC_SIGMAS = 5.0
EC_TOL = 0.02
RANK_TOL = 1e-12
ALL_MEASURES = ("rwc_mc", "rwc_rwr", "bcc", "ec", "gmck", "mblb")
INGEST_MEASURES = ("rwc_mc", "rwc_rwr", "gmck", "mblb")
DEFAULT_P1_GRID = tuple(round(0.002 * i, 3) for i in range(1, 11))
DEFAULT_P2_GRID = (0.0005, 0.001, 0.002, 0.004)


def _rng(seed, name):
    return np.random.default_rng([seed, sum(map(ord, name))])


def _sides_by_id(path):
    with open(path, encoding="utf-8") as fh:
        return {a: int(b) for a, b in (line.rstrip("\n").split("\t") for line in fh)}


class ScorePlanted:
    name = "score_planted"

    def __init__(self, tiny=False):
        self.n = 40 if tiny else 200
        self.intra_degree, self.cross_degree = (6.0, 0.5) if tiny else (8.0, 0.4)

    def prepare(self, seed, data, root):
        ids, edges = inputs.planted_edges(
            _rng(seed, self.name), self.n, self.intra_degree, self.cross_degree)
        inputs.write_planted_edgelist(data / "edges.tsv", ids, edges)
        rows = reference.read_tsv_rows(data / "edges.tsv")
        g = reference.largest_component(reference.Graph(rows, directed=False))
        # the sides come from the program's own spectral partition, the one
        # every scored run uses; the scores are then checked against oracles
        from controversy.cli import main

        if main(["partition", "--edgelist", str(data / "edges.tsv"),
                 "--out", str(data / "sides.tsv"), "--force"]) != 0:
            raise RuntimeError("reference spectral partition failed")
        by_id = _sides_by_id(data / "sides.tsv")
        sides = np.array([by_id[u] for u in g.ids], dtype=np.int8)
        orc = reference.oracles(root)
        layout = reference.exact_layout(g)
        return {
            "n_vertices": g.n_vertices, "n_edges": g.n_edges,
            "sides": dict(zip(g.ids, sides.tolist())),
            "rwc_rwr": reference.rwr_score(orc, g, sides),
            "rwc_mc": reference.rwc_mc_band(orc, g, sides),
            "bcc": reference.bcc_score(g, sides),
            "ec": reference.embedding_controversy(layout, sides),
            "gmck": reference.gmck_score(g, sides),
            "mblb": reference.mblb_score(g, sides),
        }

    def operation(self, ctx, call):
        call(["score", "--edgelist", ctx.data / "edges.tsv", "--out", ctx.work / "report.json",
              "--csv-out", ctx.work / "row.csv", "--force"])
        return 1

    def probes(self, ctx):
        """Known defect: the layout file holds NumPy scalar reprs such as
        ``np.float64(0.5)`` under NumPy 2, which no reader parses as a float."""
        report, layout = ctx.work / "probe_report.json", ctx.work / "probe_layout.tsv"
        # a short layout suffices: the defect is in how coordinates are written
        return [("layout file", ["score", "--edgelist", ctx.data / "edges.tsv", "--measures", "ec",
                                 "--layout-iterations", "5", "--out", report,
                                 "--layout-out", layout, "--force"],
                 lambda ref: check_layout(ref, report, layout))]

    def check(self, ref, ctx):
        problems = check_report(ref, ctx.work / "report.json", ALL_MEASURES)
        problems += check_csv_row(ctx.work / "report.json", ctx.work / "row.csv")
        return problems


class SweepPlanted:
    name = "sweep_planted"

    def __init__(self, tiny=False):
        self.n, self.runs = (200, 1) if tiny else (2000, 1)
        # a tiny graph needs denser blocks to keep both sides connected
        self.grid = ((0.05, 0.1), (0.01,)) if tiny else (DEFAULT_P1_GRID, DEFAULT_P2_GRID)
        self.tiny = tiny

    def prepare(self, seed, data, root):
        return {"rows": reference.sweep_rows(self.n, *self.grid, self.runs, seed)}

    def operation(self, ctx, call):
        argv = ["simulate", "--n", self.n, "--runs", self.runs, "--seed", ctx.seed,
                "--out", ctx.work / "sweep.csv", "--force"]
        if self.tiny:
            argv += ["--p1-grid", ",".join(map(str, self.grid[0])),
                     "--p2-grid", ",".join(map(str, self.grid[1]))]
        call(argv)
        return len(self.grid[0]) * len(self.grid[1]) * self.runs

    def probes(self, ctx):
        return []

    def check(self, ref, ctx):
        with open(ctx.work / "sweep.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["p1", "p2", "mean_rwc", "std_rwc", "runs"]:
            return ["sweep csv: bad header"]
        if len(rows) - 1 != len(ref["rows"]):
            return [f"sweep csv: {len(rows) - 1} rows, expected {len(ref['rows'])}"]
        problems = []
        for got, want in zip(rows[1:], ref["rows"]):
            cell = f"sweep cell ({want['p1']}, {want['p2']})"
            grid = (float(got[0]), float(got[1]), int(got[4]))
            if grid != (want["p1"], want["p2"], want["runs"]):
                problems.append(f"{cell}: row {got} does not match the grid")
                continue
            for col, key in ((2, "mean_rwc"), (3, "std_rwc")):
                problems += _close(f"{cell} {key}", float(got[col]), want[key], EXACT_TOL)
        return problems


class IngestUsers:
    name = "ingest_users"

    def __init__(self, tiny=False):
        self.n_users, self.n_records = (120, 6000) if tiny else (500, 60000)

    def prepare(self, seed, data, root):
        rng = _rng(seed, self.name)
        records, camps = inputs.retweet_corpus(rng, self.n_users, self.n_records)
        profiles = inputs.hashtag_profiles(rng)
        inputs.write_jsonl(data / "records.jsonl", records)
        inputs.write_jsonl(data / "profiles.jsonl", profiles)
        (data / "camps.json").write_text(json.dumps(camps, sort_keys=True))

        topic = reference.expand_topic(inputs.SEED_TAG, profiles)
        g = reference.largest_component(reference.retweet_graph(records, topic))
        sides = np.array([camps[u] for u in g.ids], dtype=np.int8)
        orc = reference.oracles(root)
        undirected = reference.Graph(g.rows(), directed=False)
        sample = sorted(rng.choice(g.ids, size=min(8, g.n_vertices), replace=False).tolist())
        return {
            "edgelist": [f"{a}\t{b}\t{w}" for a, b, w in sorted(g.rows())],
            "n_vertices": g.n_vertices, "n_edges": g.n_edges,
            "sides": dict(zip(g.ids, sides.tolist())),
            "rwc_rwr": reference.rwr_score(orc, g, sides),
            "rwc_mc": reference.rwc_mc_band(orc, g, sides),
            "gmck": reference.gmck_score(g, sides),
            "mblb": reference.mblb_score(g, sides),
            "users": reference.user_reference(orc, undirected, sides, sample),
        }

    def _paths(self, ctx):
        return ctx.work / "edges.tsv", ctx.work / "sides.tsv"

    def operation(self, ctx, call):
        edges, sides = self._paths(ctx)
        call(["build-graph", "--records", ctx.data / "records.jsonl", "--kind", "retweet",
              "--topic-seed", inputs.SEED_TAG, "--profiles", ctx.data / "profiles.jsonl",
              "--out", edges, "--force"])
        # the external partitioner's role: label the graph's users by camp
        camps = json.loads((ctx.data / "camps.json").read_text())
        users = set()
        with open(edges, encoding="utf-8") as fh:
            for line in fh:
                users.update(line.split("\t")[:2])
        with open(sides, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{camps[u]}\n" for u in sorted(users))
        call(["score", "--edgelist", edges, "--directed", "--partition-mode", "import",
              "--partition-file", sides, "--measures", ",".join(INGEST_MEASURES),
              "--out", ctx.work / "report.json", "--force"])
        call(["user-scores", "--edgelist", edges, "--partition-mode", "import",
              "--partition-file", sides, "--out", ctx.work / "users.csv", "--force"])
        return 1

    def probes(self, ctx):
        """Known defects: the default spectral partition does not converge
        on this hub-dominated graph (exit 3), and directed user scores meet
        accounts that are only ever retweeted, whose walk has no out-arc to
        reach an authority (exit 4)."""
        edges, sides = self._paths(ctx)
        return [
            ("spectral partition", ["partition", "--edgelist", edges,
                                    "--out", ctx.work / "probe_sides.tsv", "--force"], None),
            ("directed user scores", ["user-scores", "--edgelist", edges, "--directed",
                                      "--partition-mode", "import", "--partition-file", sides,
                                      "--out", ctx.work / "probe_users.csv", "--force"], None),
        ]

    def check(self, ref, ctx):
        with open(ctx.work / "edges.tsv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        problems = []
        if lines != ref["edgelist"]:
            problems.append(f"edge list: {len(lines)} lines differ from the "
                            f"{len(ref['edgelist'])} expected")
        problems += check_report(ref, ctx.work / "report.json", INGEST_MEASURES)
        problems += check_user_scores(ref, ctx.work / "users.csv")
        return problems


WORKLOADS = {w.name: w for w in (ScorePlanted, SweepPlanted, IngestUsers)}


# -- output checks -------------------------------------------------------------


def _close(label, got, want, tol):
    if not (abs(got - want) <= tol):
        return [f"{label}: {got!r} vs reference {want!r} (tolerance {tol:g})"]
    return []


def _report_values(path):
    payload = json.loads(Path(path).read_text())
    return payload, {m["name"]: m["value"] for m in payload["measures"]}


def check_report(ref, path, measures):
    payload, values = _report_values(path)
    problems = []
    if payload["graph"] != {"vertices": ref["n_vertices"], "edges": ref["n_edges"]}:
        problems.append(f"report graph {payload['graph']} vs reference "
                        f"{ref['n_vertices']} vertices / {ref['n_edges']} edges")
    if [m["name"] for m in payload["measures"]] != list(measures):
        return problems + [f"report measures {sorted(values)} vs {list(measures)}"]
    for name in measures:
        if name == "rwc_mc":
            band = ref["rwc_mc"]
            problems += _close("rwc_mc", values[name], band["mean"], MC_SIGMAS * band["sigma"])
        elif name == "ec":
            problems += _close("ec", values[name], ref["ec"], EC_TOL)
        else:
            tol = MBLB_TOL if name == "mblb" else EXACT_TOL
            problems += _close(name, values[name], ref[name], tol)
    return problems


def check_csv_row(report_path, csv_path):
    _, values = _report_values(report_path)
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0][3:] != list(ALL_MEASURES):
        return ["csv row: bad shape or header"]
    cells = dict(zip(rows[0], rows[1]))
    return [f"csv row: {name} {cells.get(name)!r} differs from the report"
            for name in ALL_MEASURES if float(cells.get(name) or "nan") != values[name]]


def check_layout(ref, report_path, layout_path):
    _, values = _report_values(report_path)
    pos = {}
    with open(layout_path, encoding="utf-8") as fh:
        for line in fh:
            uid, x, y = line.rstrip("\n").split("\t")
            pos[uid] = (float(x), float(y))
    if set(pos) != set(ref["sides"]) or not all(map(math.isfinite, np.ravel(list(pos.values())))):
        return ["layout: vertex set differs from the graph or holds non-finite coordinates"]
    ids = sorted(pos)
    points = np.array([pos[u] for u in ids])
    sides = np.array([ref["sides"][u] for u in ids])
    return _close("ec of the written layout", reference.embedding_controversy(points, sides),
                  values["ec"], EXACT_TOL)


def check_user_scores(ref, path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["user_id", "side", "rwc_user", "rho"]:
        return ["user scores: bad header"]
    body = rows[1:]
    if len(body) != ref["n_vertices"] or {r[0] for r in body} != set(ref["sides"]):
        return [f"user scores: {len(body)} rows do not cover the {ref['n_vertices']} vertices"]
    want = ref["users"]
    problems = []
    for uid, side, rwc, rho in body:
        if side != "XY"[ref["sides"][uid]] or not 0.0 <= float(rwc) <= 1.0:
            problems.append(f"user {uid}: side {side} / rwc_user {rwc} out of place")
        problems += _close(f"user {uid} rho", float(rho), want["rho"][uid], RANK_TOL)
        if uid in want["rwc_user"]:
            problems += _close(f"user {uid} rwc_user", float(rwc), want["rwc_user"][uid],
                               EXACT_TOL)
    return problems
