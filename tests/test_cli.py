"""End-to-end command-line behavior."""
import argparse
import concurrent.futures
import csv
import dataclasses
import json
import math
import multiprocessing
import os
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import controversy as cv
import controversy.cli as cli
import controversy.graph as graph_module
import controversy.measures as measures_module
import controversy.partition as partition_module
import controversy.users as users_module
import controversy.walks as walks_module
from controversy import _pool
from controversy.cli import main

from conftest import KARATE_EDGES, KARATE_FACTIONS


def run(*argv):
    return main([str(a) for a in argv])


def use_workers(monkeypatch, count):
    monkeypatch.setattr(_pool, "workers", lambda tasks: count)


PARTITIONERS = {"spectral": "spectral_bisection", "import": "import_partition"}
# the names the pipeline calls; ``rwc_rwr`` and the user scores read one
# ``_restart_visits``
COUNTED = [*(m for m in cv.MEASURE_NAMES if m != "rwc_rwr"), "force_layout", "_restart_visits",
           "write_user_scores", *PARTITIONERS.values()]


def score_counted(tmp_path, mode, measures):
    """Run ``score`` with every output; the measures it ran and the count
    each name of COUNTED it calls should have."""
    wanted = cv.MEASURE_NAMES if measures == "all" else (measures,)
    assert run(
        "score", "--edgelist", KARATE_EDGES, "--partition-mode", mode,
        "--partition-file", KARATE_FACTIONS, "--measures", ",".join(wanted),
        "--layout-iterations", 20, "--n-walks", 500, "--n-samples", 500,
        "--out", tmp_path / "r.json", "--user-scores-out", tmp_path / "users.csv",
        "--layout-out", tmp_path / "layout.tsv",
    ) == 0
    # the layout serves both ec and --layout-out
    called = [m for m in wanted if m != "rwc_rwr"]
    return wanted, dict.fromkeys([*called, "force_layout", "_restart_visits",
                                  "write_user_scores", PARTITIONERS[mode]], 1)


def write_records(path):
    rows = [
        {"author": "u1", "endorsed": "v1", "hashtags": ["go"], "ts": 1},
        {"author": "u1", "endorsed": "v1", "hashtags": ["go"], "ts": 2},
        {"author": "u2", "endorsed": "v1", "hashtags": ["go"], "ts": 3},
        {"author": "u2", "endorsed": "v1", "hashtags": ["go"], "ts": 4},
        {"author": "u2", "endorsed": "u1", "hashtags": ["go"], "ts": 5},
        {"author": "u2", "endorsed": "u1", "hashtags": ["go"], "ts": 6},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


class TestScore:
    def test_karate_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck,mblb,rwc_rwr", "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["graph"] == {"vertices": 34, "edges": 78}
        values = {m["name"]: m["value"] for m in payload["measures"]}
        assert values["gmck"] == pytest.approx(0.0789, abs=1e-3)
        assert set(payload["config"]) >= {"seed", "damping", "n_walks"}

    def test_deterministic_modulo_timestamp(self, tmp_path):
        out = tmp_path / "report.json"
        outs = []
        for _ in range(2):
            assert run(
                "score", "--edgelist", KARATE_EDGES,
                "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
                "--measures", "gmck,rwc_rwr,bcc,ec", "--seed", 3, "--out", out,
            ) == 0
            payload = json.loads(out.read_text())
            payload.pop("timestamp")
            outs.append(json.dumps(payload, sort_keys=True))
            out.unlink()
        assert outs[0] == outs[1]

    def test_stdout_when_no_out(self, capsys):
        assert run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measures"][0]["name"] == "gmck"

    def test_csv_and_layout_and_user_scores(self, tmp_path):
        csv_out = tmp_path / "row.csv"
        users_out = tmp_path / "users.csv"
        layout_out = tmp_path / "layout.tsv"
        assert run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck", "--csv-out", csv_out,
            "--user-scores-out", users_out, "--layout-out", layout_out,
            "--out", tmp_path / "r.json",
        ) == 0
        assert csv_out.read_text().splitlines()[0].startswith("topic,")
        assert len(users_out.read_text().splitlines()) == 35
        rows = [line.split("\t") for line in layout_out.read_text().splitlines()]
        assert len(rows) == 34
        for uid, x, y in rows:
            assert math.isfinite(float(x)) and math.isfinite(float(y))

    def test_csv_outputs_quote_commas_and_quotes(self, tmp_path):
        edges = tmp_path / "g.tsv"
        edges.write_text('a,1\tb"q\t1\nb"q\tc\t1\nc\td\t1\nd\ta,1\t1\n')
        part = tmp_path / "p.tsv"
        part.write_text('a,1\t0\nb"q\t0\nc\t1\nd\t1\n')
        label = 'left, "right"'
        csv_out, users_out = tmp_path / "row.csv", tmp_path / "users.csv"
        assert run(
            "score", "--edgelist", edges, "--partition-mode", "import",
            "--partition-file", part, "--measures", "rwc_rwr,mblb",
            "--topic-label", label, "--out", tmp_path / "r.json",
            "--csv-out", csv_out, "--user-scores-out", users_out,
        ) == 0
        with csv_out.open(newline="") as fh:
            header, row = list(csv.reader(fh))
        assert len(row) == len(header) == 9
        assert row[0] == label
        with users_out.open(newline="") as fh:
            users = list(csv.reader(fh))
        assert users[0] == ["user_id", "side", "rwc_user", "rho"]
        assert all(len(r) == 4 for r in users)
        assert sorted(r[0] for r in users[1:]) == ["a,1", 'b"q', "c", "d"]

    def test_failed_output_leaves_no_files(self, tmp_path, capsys):
        out, csv_out = tmp_path / "report.json", tmp_path / "row.csv"
        code = run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck", "--out", out, "--csv-out", csv_out,
            "--user-scores-out", tmp_path / "missing" / "users.csv",
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err
        assert not out.exists() and not csv_out.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "measure, option",
        [("bcc", ("--n-samples", 0)), ("ec", ("--layout-iterations", -5))],
    )
    def test_invalid_measure_parameter_writes_no_report(self, tmp_path, capsys, measure, option):
        least = {"--n-samples": 1, "--layout-iterations": 0}[option[0]]
        out = tmp_path / "r.json"
        code = run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", measure, *option, "--out", out,
        )
        assert code == 2
        # checked before any input is read, not in the measure stage
        assert capsys.readouterr().err == f"error [{option[0]} must be >= {least}]\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_parameters_rerun_each_measure(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--seed", 3, "--k", 2, "--damping", 0.8, "--n-walks", 2000,
            "--n-samples", 2000, "--layout-iterations", 100, "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        g = cv.read_edgelist(KARATE_EDGES)
        p = cv.import_partition(g, KARATE_FACTIONS)
        # each rerun takes every argument from the report entry, none by default
        rerun = {
            "rwc_mc": lambda seed, k, n_walks: cv.rwc_mc(g, p, k=k, n_walks=n_walks, seed=seed),
            "rwc_rwr": lambda seed, k, damping: cv.rwc_rwr(g, p, k=k, damping=damping),
            "bcc": lambda seed, n_samples: cv.bcc(g, p, n_samples=n_samples, seed=seed),
            "ec": lambda seed, layout_iterations: cv.ec(
                cv.force_layout(g, iterations=layout_iterations, seed=seed), p),
            "gmck": lambda seed: cv.gmck(g, p),
            "mblb": lambda seed, seed_fraction, tol, max_iters: cv.mblb(
                g, p, seed_fraction=seed_fraction, tol=tol, max_iters=max_iters),
        }
        assert [m["name"] for m in payload["measures"]] == list(cv.MEASURE_NAMES)
        for m in payload["measures"]:
            assert m["seed"] == 3
            assert rerun[m["name"]](m["seed"], **m["parameters"]) == m["value"], m["name"]

    @pytest.mark.parametrize("mode, measures", [("spectral", "all"), ("import", "gmck")])
    def test_pipeline_calls_each_bound_name_once(self, tmp_path, monkeypatch, mode, measures):
        # counted in this process, so the measures must run here too
        use_workers(monkeypatch, 1)
        calls = Counter()
        for name in COUNTED:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        _, expected = score_counted(tmp_path, mode, measures)
        assert calls == expected

    @pytest.mark.parametrize("mode, measures", [("spectral", "all"), ("import", "gmck")])
    def test_pool_calls_each_bound_name_once(self, tmp_path, monkeypatch, mode, measures):
        """The same counts with two worker processes, counted in shared
        memory, which the forked workers write to."""
        use_workers(monkeypatch, 2)
        calls = {name: multiprocessing.Value("i", 0) for name in COUNTED}
        elsewhere = multiprocessing.Value("i", 0)  # calls made outside this process
        here = os.getpid()
        for name in COUNTED:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                with calls[_name].get_lock():
                    calls[_name].value += 1
                if os.getpid() != here:
                    with elsewhere.get_lock():
                        elsewhere.value += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        wanted, expected = score_counted(tmp_path, mode, measures)
        assert {name: c.value for name, c in calls.items() if c.value} == expected
        # the parent computes ec from the coordinates, runs the short
        # measures, partitions, solves the restart walk and writes
        in_parent = ("ec" in wanted) + sum(m in wanted for m in ("gmck", "mblb")) + 3
        assert elsewhere.value == sum(expected.values()) - in_parent

    @pytest.mark.parametrize("directed, solves", [(False, 4), (True, 5)])
    def test_one_restart_walk_for_rwc_rwr_and_user_scores(self, tmp_path, monkeypatch,
                                                           directed, solves):
        """The restart walk's systems (X+, Y+ and, on the directed graph with
        sinks, every end vertex) are solved once and shared, beside the
        two hitting-time solves, and both outputs equal the library's."""
        calls = []
        solve = walks_module._solve

        def counted(*args):
            calls.append(args[-1])
            return solve(*args)

        monkeypatch.setattr(walks_module, "_solve", counted)
        assert run("score", "--edgelist", KARATE_EDGES, *(("--directed",) if directed else ()),
                   "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
                   "--measures", "rwc_rwr", "--out", tmp_path / "r.json",
                   "--user-scores-out", tmp_path / "users.csv") == 0
        assert calls == ["restart walk"] * (solves - 2) + ["hitting times"] * 2
        g = cv.largest_component(cv.read_edgelist(KARATE_EDGES, directed=directed))
        part = cv.import_partition(g, KARATE_FACTIONS)
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["measures"][0]["value"] == cv.rwc_rwr(g, part)
        users_module.write_user_scores(g, part, cv.user_score_table(g, part),
                                       tmp_path / "library.csv")
        assert (tmp_path / "users.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_empty_graph_is_input_error(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        records.write_text(json.dumps({"author": "a", "hashtags": ["go"]}) + "\n")
        code = run(
            "score", "--records", records, "--kind", "retweet",
            "--topic-seed", "go", "--out", tmp_path / "x.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "build" in err and "empty graph" in err
        assert not (tmp_path / "x.json").exists()

    def test_no_silent_overwrite(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("{}")
        code = run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck", "--out", out,
        )
        assert code == 2
        assert "overwrite" in capsys.readouterr().err
        assert run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", "gmck", "--out", out, "--force",
        ) == 0

    def test_degenerate_structure_exit_code(self, tmp_path, capsys):
        edges = tmp_path / "two_cliques.tsv"
        rows = []
        for base in (0, 3):
            ids = [f"v{base + i}" for i in range(3)]
            rows += [f"{ids[0]}\t{ids[1]}\t1", f"{ids[0]}\t{ids[2]}\t1", f"{ids[1]}\t{ids[2]}\t1"]
        edges.write_text("\n".join(rows) + "\n")
        part = tmp_path / "p.tsv"
        part.write_text("".join(f"v{i}\t{0 if i < 3 else 1}\n" for i in range(6)))
        code = run(
            "score", "--edgelist", edges, "--no-largest-component",
            "--partition-mode", "import", "--partition-file", part,
            "--measures", "bcc", "--out", tmp_path / "r.json",
        )
        assert code == 4
        assert "degenerate" in capsys.readouterr().err

    def test_authority_free_component_exits_4(self, tmp_path, capsys):
        # k = 1 puts both authorities in the first triangle
        edges = tmp_path / "e.tsv"
        edges.write_text("a\tb\nb\tc\na\tc\nd\te\ne\tf\nd\tf\nx\ty\n")
        part = tmp_path / "p.tsv"
        part.write_text("a\t0\nb\t1\nc\t0\nd\t0\ne\t1\nf\t1\nx\t0\ny\t1\n")
        code = run(
            "score", "--edgelist", edges, "--no-largest-component",
            "--partition-mode", "import", "--partition-file", part,
            "--measures", "rwc_mc", "--n-walks", 100, "--out", tmp_path / "r.json",
        )
        assert code == 4
        assert "without an authority" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_both_sources_rejected(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        write_records(records)
        code = run(
            "score", "--edgelist", KARATE_EDGES, "--records", records,
            "--out", tmp_path / "r.json",
        )
        assert code == 2

    def test_config_file_provides_defaults(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            f"edgelist={KARATE_EDGES}\npartition_mode=import\n"
            f"partition_file={KARATE_FACTIONS}\nmeasures=gmck\nseed=9\n"
        )
        out = tmp_path / "r.json"
        assert run("score", "--config", conf, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 9
        # explicit flag wins over the file
        out2 = tmp_path / "r2.json"
        assert run("score", "--config", conf, "--seed", 4, "--out", out2) == 0
        assert json.loads(out2.read_text())["config"]["seed"] == 4

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus_key=1\n")
        assert run("score", "--config", conf, "--edgelist", KARATE_EDGES) == 2


@pytest.fixture(scope="module")
def planted_edges(tmp_path_factory):
    g, _ = cv.planted_two_community(cv.PlantedConfig(100, 0.15, 0.01, seed=1))
    path = tmp_path_factory.mktemp("planted") / "planted.tsv"
    cv.write_edgelist(g, path)
    return path


def outputs_with_workers(monkeypatch, count, argv, paths):
    """Exit code and every output's bytes (the report's JSON without its
    timestamp) of one command run with ``count`` worker processes; the
    outputs are removed again, so that runs compare on the same paths."""
    use_workers(monkeypatch, count)
    code = run(*argv)
    files = {}
    for path in filter(os.path.exists, paths):
        if path.name == "r.json":
            files[path.name] = json.loads(path.read_text())
            del files[path.name]["timestamp"]
        else:
            files[path.name] = path.read_bytes()
        path.unlink()
    assert multiprocessing.active_children() == []
    return code, files


class TestScoreProcesses:
    """The measure stage spread over worker processes against one process."""

    @pytest.mark.parametrize("source", ["factions", "spectral", "planted"])
    @pytest.mark.parametrize("measures, outputs, extra", [
        (",".join(cv.MEASURE_NAMES), ("r.json", "row.csv", "layout.tsv", "users.csv"), ()),
        ("ec", ("r.json", "row.csv", "layout.tsv"), ()),
        ("rwc_mc,bcc", ("r.json", "row.csv", "users.csv"), ()),
        ("", ("r.json", "layout.tsv"), ()),
        ("rwc_mc,rwc_rwr,gmck,mblb", ("r.json", "row.csv", "users.csv"), ("--directed",)),
    ], ids=["all", "ec", "rwc_mc,bcc", "layout-only", "directed"])
    def test_same_outputs_as_one_process(self, source, measures, outputs, extra, tmp_path,
                                         monkeypatch, planted_edges):
        flags = {"r.json": "--out", "row.csv": "--csv-out", "layout.tsv": "--layout-out",
                 "users.csv": "--user-scores-out"}
        edges = planted_edges if source == "planted" else KARATE_EDGES
        argv = ["score", "--edgelist", edges, "--measures", measures, *extra,
                "--layout-iterations", 50, "--n-walks", 2000, "--n-samples", 2000]
        if source == "factions":
            argv += ["--partition-mode", "import", "--partition-file", KARATE_FACTIONS]
        for name in outputs:
            argv += [flags[name], tmp_path / name]
        paths = [tmp_path / name for name in outputs]
        serial = outputs_with_workers(monkeypatch, 1, argv, paths)
        pooled = outputs_with_workers(monkeypatch, 2, argv, paths)
        assert serial[0] == 0 and set(serial[1]) == set(outputs)
        assert pooled == serial

    @pytest.mark.parametrize("source", ["factions", "spectral", "planted"])
    def test_same_user_scores_as_one_process(self, source, tmp_path, monkeypatch,
                                             planted_edges):
        edges = planted_edges if source == "planted" else KARATE_EDGES
        argv = ["user-scores", "--edgelist", edges, "--out", tmp_path / "users.csv"]
        if source == "factions":
            argv += ["--partition-mode", "import", "--partition-file", KARATE_FACTIONS]
        serial = outputs_with_workers(monkeypatch, 1, argv, [tmp_path / "users.csv"])
        pooled = outputs_with_workers(monkeypatch, 2, argv, [tmp_path / "users.csv"])
        assert serial[0] == 0 and pooled == serial

    @pytest.mark.parametrize("measures, first", [("rwc_mc,ec", "rwc_mc"),
                                                 ("ec,rwc_mc", "force_layout")])
    def test_first_failure_in_measures_order(self, measures, first, tmp_path, monkeypatch,
                                             capsys):
        def failing(name):
            def fail(*args, **kwargs):
                raise ValueError(f"{name} failed")
            return fail

        # forked workers inherit the patched names
        for name in ("rwc_mc", "force_layout"):
            monkeypatch.setattr(cli, name, failing(name))
        results = []
        for count in (1, 2):
            use_workers(monkeypatch, count)
            code = run("score", "--edgelist", KARATE_EDGES, "--measures", measures,
                       "--out", tmp_path / "r.json")
            results.append((code, capsys.readouterr().err))
            assert multiprocessing.active_children() == []
        assert results[0] == results[1] == (2, f"error [measure: {first} failed]\n")
        assert list(tmp_path.iterdir()) == []

    def test_same_convergence_error(self, monkeypatch):
        monkeypatch.setattr(walks_module, "RESTART_MAX_ITERS", 1)
        cfg = cli.PipelineConfig(edgelist=str(KARATE_EDGES), measures="gmck,rwc_rwr,mblb")
        errors = []
        for count in (1, 2):
            use_workers(monkeypatch, count)
            with pytest.raises(cv.ConvergenceError) as info:
                cli.run_pipeline(cfg)
            errors.append((str(info.value), info.value.residual))
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1]
        assert errors[0][0].startswith("measure: ") and errors[0][1] > 0

    def test_worker_error_keeps_its_traceback(self, monkeypatch):
        # a pooled task that fails inside the library; forked workers
        # inherit the patched name and budget
        monkeypatch.setattr(walks_module, "RESTART_MAX_ITERS", 1)
        monkeypatch.setattr(cli, "bcc", lambda g, part, **kwargs: cv.rwc_user(g, part))
        cfg = cli.PipelineConfig(edgelist=str(KARATE_EDGES), measures="rwc_mc,bcc",
                                 n_walks=500)
        errors = []
        for count in (1, 2):
            use_workers(monkeypatch, count)
            with pytest.raises(cv.ConvergenceError, match="^measure: restart walk ") as info:
                cli.run_pipeline(cfg)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].residual == errors[1].residual > 0
        # the worker's traceback, as text, names where the error was raised
        assert "walks.py" in str(errors[1].__cause__)

    @pytest.mark.parametrize("source", ["factions", "spectral", "planted", "directed"])
    def test_no_pooled_task_warns(self, source, planted_edges):
        """A worker's warnings are not raised in the caller, so no task that
        goes to a worker may raise one."""
        edges = planted_edges if source == "planted" else KARATE_EDGES
        sides = {"partition_mode": "import", "partition_file": str(KARATE_FACTIONS)}
        cfg = cli.PipelineConfig(edgelist=str(edges), directed=source == "directed",
                                 layout_iterations=50, n_walks=2000, n_samples=2000,
                                 **(sides if source == "factions" else {}))
        g, _ = cli._load_graph(cfg)
        part = cli._partition(cfg, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in cli._POOLED:
                cli._measure_task(name, g, part, cfg, cv.default_k(part))

    def test_layout_only_for_output_fails_before_any_stage(self, tmp_path, monkeypatch, capsys):
        results = []
        for count in (1, 2):
            use_workers(monkeypatch, count)
            code = run("score", "--edgelist", KARATE_EDGES, "--measures", "gmck,rwc_rwr",
                       "--layout-iterations", -5, "--layout-out", tmp_path / "layout.tsv",
                       "--out", tmp_path / "r.json")
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0] == (2, "error [--layout-iterations must be >= 0]\n")
        assert list(tmp_path.iterdir()) == []

    def test_worker_warning_reaches_the_caller(self, monkeypatch):
        # a one-sided propagation: every vertex on the + side
        monkeypatch.setattr(measures_module, "propagate_polarity",
                            lambda g, *args: np.ones(g.n_vertices))
        cfg = cli.PipelineConfig(edgelist=str(KARATE_EDGES), measures="gmck,mblb,rwc_rwr")
        seen = []
        for count in (1, 2):
            use_workers(monkeypatch, count)
            with pytest.warns(UserWarning, match="one-sided") as caught:
                report, _ = cli.run_pipeline(cfg)
            assert report.value_of("mblb") == 0.0
            seen.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
            # the default filter shows a warning once per location
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("default")
                cli.run_pipeline(cfg)
                cli.run_pipeline(cfg)
            seen.append([str(w.message) for w in shown])
        assert seen[0] == seen[2] and seen[1] == seen[3]
        assert len(seen[0]) == len(seen[1]) == 1
        assert seen[0][0][2] == cli.__file__

    def test_no_process_left(self, tmp_path, monkeypatch):
        use_workers(monkeypatch, 2)
        cfg = cli.PipelineConfig(edgelist=str(KARATE_EDGES), layout_iterations=20,
                                 n_walks=500, n_samples=500)
        cli.run_pipeline(cfg)
        assert multiprocessing.active_children() == []
        with pytest.raises(cv.InputDataError):
            cli.run_pipeline(cli.PipelineConfig(edgelist=str(KARATE_EDGES), n_samples=0))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("argv", [
        ("score", "--measures", "gmck"),
        ("score", "--measures", "ec", "--layout-out", "layout.tsv", "--layout-iterations", 20),
        ("user-scores",),
        ("score", "--directed", "--measures", "rwc_mc,rwc_rwr,gmck,mblb"),
    ], ids=["one-measure", "layout", "user-scores", "directed"])
    def test_one_task_builds_no_pool(self, argv, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--edgelist", KARATE_EDGES, "--out", "out.txt") == 0


class TestGraphCommands:
    def test_build_graph_from_records(self, tmp_path):
        records = tmp_path / "r.jsonl"
        write_records(records)
        out = tmp_path / "g.tsv"
        assert run(
            "build-graph", "--records", records, "--kind", "retweet",
            "--topic-seed", "go", "--out", out,
        ) == 0
        g = cv.read_edgelist(out, directed=True)
        assert g.n_vertices == 3 and g.n_edges == 3

    def test_score_from_records_spectral(self, tmp_path):
        records = tmp_path / "r.jsonl"
        write_records(records)
        out = tmp_path / "report.json"
        assert run(
            "score", "--records", records, "--kind", "retweet",
            "--topic-seed", "go", "--measures", "rwc_rwr", "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["topic"] == "go"
        assert payload["graph"]["vertices"] == 3

    def test_build_follow_graph(self, tmp_path):
        records = tmp_path / "r.jsonl"
        write_records(records)
        follows = tmp_path / "f.tsv"
        follows.write_text("u1\tu2\nu1\tstranger\n")
        out = tmp_path / "g.tsv"
        assert run(
            "build-graph", "--records", records, "--kind", "follow",
            "--follows", follows, "--out", out,
        ) == 0
        g = cv.read_edgelist(out)
        assert set(g.ids) == {"u1", "u2"}

    def test_build_content_graph(self, tmp_path):
        records = tmp_path / "r.jsonl"
        rows = [
            {"author": "a", "hashtags": ["go", "extra"], "ts": 1},
            {"author": "b", "hashtags": ["go", "extra"], "ts": 2},
        ]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "g.tsv"
        assert run(
            "build-graph", "--records", records, "--kind", "content",
            "--content-mode", "shared-hashtag", "--topic-seed", "go", "--out", out,
        ) == 0
        assert cv.read_edgelist(out).n_edges == 1

    def test_topic_tags_name_the_topic_members(self, tmp_path):
        rng = np.random.default_rng(5)
        users = [f"u{i}" for i in range(12)]
        rows = [{"author": str(rng.choice(users)), "endorsed": str(rng.choice(users)),
                 "hashtags": rng.choice(["go", "a", "#B", "c"], size=2).tolist(), "ts": t}
                for t in range(300)]
        records = tmp_path / "r.jsonl"
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        flags, config, conf = tmp_path / "flags.tsv", tmp_path / "config.tsv", tmp_path / "g.conf"
        assert run("build-graph", "--records", records, "--topic-seed", "go",
                   "--topic-tags", "a,b", "--out", flags) == 0
        conf.write_text(f"records={records}\ntopic_seed=go\ntopic_tags=a,b\nout={config}\n")
        assert run("build-graph", "--config", conf) == 0
        expected, seed_only = tmp_path / "expected.tsv", tmp_path / "seed_only.tsv"
        parsed = cv.read_records(records)
        for topic, path in ((cv.Topic.make("go", ["a", "b"]), expected),
                            (cv.Topic.make("go"), seed_only)):
            cv.write_edgelist(cv.largest_component(cv.build_retweet_graph(parsed, topic)), path)
        assert flags.read_bytes() == config.read_bytes() == expected.read_bytes()
        # the members changed the graph
        assert expected.read_bytes() != seed_only.read_bytes()

    def test_partition_spectral(self, tmp_path):
        out = tmp_path / "p.tsv"
        assert run(
            "partition", "--edgelist", KARATE_EDGES, "--partition-mode",
            "spectral", "--seed", 0, "--out", out,
        ) == 0
        g = cv.read_edgelist(KARATE_EDGES)
        p = cv.import_partition(g, out)
        assert abs(len(p.x) - len(p.y)) <= 2

    def test_partition_import_without_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "p.tsv"
        code = run("partition", "--edgelist", KARATE_EDGES, "--partition-mode", "import",
                   "--out", out)
        assert code == 2
        assert "partition import needs --partition-file" in capsys.readouterr().err
        assert not out.exists()

    def test_partition_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(partition_module, "eigsh", no_convergence)
        out = tmp_path / "p.tsv"
        assert run("partition", "--edgelist", KARATE_EDGES, "--out", out) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_hitting_time_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(apply, b, atol, max_iters):
            return np.zeros_like(b), max_iters

        monkeypatch.setattr(walks_module, "_bicgstab", no_convergence)
        with pytest.raises(cv.ConvergenceError, match="^hitting times did not converge in "
                           r"\d+ iterations \(last relative residual ") as info:
            cv.expected_hitting_times(cv.read_edgelist(KARATE_EDGES), [0])
        assert math.isfinite(info.value.residual) and info.value.residual > 0
        out = tmp_path / "users.csv"
        assert run("user-scores", "--edgelist", KARATE_EDGES, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [user-scores: ") and "did not converge" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("info", [10000, -1])
    def test_restart_walk_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch, info):
        def failing(apply, b, atol, max_iters):
            return np.zeros_like(b), info

        monkeypatch.setattr(walks_module, "_bicgstab", failing)
        out = tmp_path / "r.json"
        assert run("score", "--edgelist", KARATE_EDGES, "--measures", "rwc_rwr",
                   "--out", out, "--csv-out", tmp_path / "r.csv") == 3
        err = capsys.readouterr().err
        assert err.startswith("error [measure: restart walk ") and "relative residual" in err
        assert list(tmp_path.iterdir()) == []

    def test_build_graph_rejects_tab_in_user_id(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        rows = [{"author": "a\tx", "endorsed": "b", "hashtags": ["go"], "ts": t}
                for t in (1, 2)]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "g.tsv"
        assert run("build-graph", "--records", records, "--kind", "retweet",
                   "--topic-seed", "go", "--out", out) == 2
        assert "r.jsonl:1" in capsys.readouterr().err
        assert not out.exists()

    def test_user_scores_command(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run(
            "user-scores", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--out", out,
        ) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "user_id,side,rwc_user,rho"
        assert len(rows) == 35

    def test_user_scores_k_reaches_the_table(self, tmp_path):
        g = cv.read_edgelist(KARATE_EDGES, directed=False)
        part = cv.import_partition(g, KARATE_FACTIONS)
        tables = {}
        for k in (1, 3):
            out = tmp_path / f"u{k}.csv"
            assert run("user-scores", "--edgelist", KARATE_EDGES, "--partition-mode", "import",
                       "--partition-file", KARATE_FACTIONS, "--k", k, "--out", out) == 0
            with out.open(encoding="utf-8", newline="") as fh:
                tables[k] = [tuple(r) for r in csv.reader(fh)][1:]
        rwc, rho = cv.user_score_table(g, part, 3)
        assert tables[3] == [(uid, part.side_of(v), repr(float(rwc[v])), repr(float(rho[v])))
                             for v, uid in enumerate(g.ids)]
        assert tables[3] != tables[1]

    def test_user_scores_iteration_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(walks_module, "RESTART_MAX_ITERS", 1)
        out = tmp_path / "u.csv"
        assert run(
            "user-scores", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS, "--out", out,
        ) == 3
        assert capsys.readouterr().err.startswith(
            "error [user-scores: restart walk did not converge in 1 iterations")
        assert list(tmp_path.iterdir()) == []

    def test_directed_user_scores_name_unreached_account(self, tmp_path, capsys):
        # carol is only ever retweeted: without an out-arc her restart walk
        # never leaves her and reaches no authority
        arcs = [("a1", "a2"), ("a2", "a1"), ("a3", "a1"), ("b1", "b2"), ("b2", "b1"),
                ("b3", "b2"), ("a1", "b1"), ("a3", "carol"), ("b3", "carol")]
        edges, sides = tmp_path / "rt.tsv", tmp_path / "sides.tsv"
        edges.write_text("".join(f"{a}\t{b}\t1\n" for a, b in arcs))
        sides.write_text("".join(f"{u}\t{0 if u[0] in 'ac' else 1}\n"
                                 for u in ("a1", "a2", "a3", "b1", "b2", "b3", "carol")))
        out = tmp_path / "u.csv"
        code = run(
            "user-scores", "--edgelist", edges, "--directed",
            "--partition-mode", "import", "--partition-file", sides, "--out", out,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert ("the restart walks of 1 of 7 users reach no high-degree vertex "
                "(the first is 'carol'); their rwc_user is nan") in err
        with out.open(encoding="utf-8", newline="") as fh:
            rows = {r["user_id"]: r for r in csv.DictReader(fh)}
        assert rows["carol"]["rwc_user"] == "nan"
        assert not math.isnan(float(rows["carol"]["rho"]))
        # every other row is the library's table, unchanged
        g = cv.read_edgelist(edges, directed=True)
        part = cv.import_partition(g, sides)
        rwc, rho = cv.user_score_table(g, part)
        for v, uid in enumerate(g.ids):
            if uid != "carol":
                assert rows[uid] == {"user_id": uid, "side": part.side_of(v),
                                     "rwc_user": repr(float(rwc[v])), "rho": repr(float(rho[v]))}


class TestOtherCommands:
    def test_expand_topic_from_records(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        # "go" and "fast" both co-occur with "zoom", so their profiles overlap
        rows = [
            {"author": "a", "hashtags": ["go", "zoom"], "ts": 1},
            {"author": "b", "hashtags": ["fast", "zoom"], "ts": 2},
            {"author": "c", "hashtags": ["go", "slow"], "ts": 3},
        ]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run("expand-topic", "--seed-tag", "go", "--records", records) == 0
        topic = json.loads(capsys.readouterr().out)
        assert topic["seed"] == "go"
        assert "fast" in topic["members"]
        assert "slow" not in topic["members"]

    def test_expand_topic_config_file(self, tmp_path, capsys):
        records, conf = tmp_path / "r.jsonl", tmp_path / "run.conf"
        # "fast" and "quick" both share "zoom" with "go": two candidates
        rows = [{"author": "a", "hashtags": [tag, "zoom"], "ts": 1}
                for tag in ("go", "fast", "quick")]
        records.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        conf.write_text(f"records={records}\nexpand_k=1\n")
        assert run("expand-topic", "--config", conf, "--seed-tag", "go") == 0
        assert len(json.loads(capsys.readouterr().out)["members"]) == 2
        # an explicit flag wins over the file
        assert run("expand-topic", "--config", conf, "--seed-tag", "go", "--expand-k", 5) == 0
        assert len(json.loads(capsys.readouterr().out)["members"]) == 3

    def test_expand_topic_repeated_profile_tag_exits_2(self, tmp_path, capsys):
        profiles, out = tmp_path / "p.jsonl", tmp_path / "topic.json"
        profiles.write_text('{"tag": "go", "df": 1, "tags": {"fast": 1}}\n'
                            '{"tag": "#GO", "df": 2}\n{"tag": "fast", "df": 1}\n')
        assert run("expand-topic", "--seed-tag", "go", "--profiles", profiles,
                   "--out", out) == 2
        assert capsys.readouterr().err == (
            f"error [expand: {profiles}:2: bad profile (repeated tag 'go')]\n")
        assert not out.exists()

    def test_simulate_config_file(self, tmp_path):
        conf, out = tmp_path / "run.conf", tmp_path / "sweep.csv"
        conf.write_text('n=20\np1_grid="0.3"\np2_grid="0.05"\nruns=1\n')
        assert run("simulate", "--config", conf, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[:2] == ["0.3", "0.05"]
        assert lines[1].split(",")[4] == "1"

    def test_simulate_unknown_config_key_writes_nothing(self, tmp_path, capsys):
        conf, out = tmp_path / "run.conf", tmp_path / "sweep.csv"
        conf.write_text('n=20\np1_grid="0.3"\np2_grid="0.05"\nruns=1\nbogus_key=5\n')
        assert run("simulate", "--config", conf, "--out", out) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("line, key", [
        ("runs=x", "runs"), ("n=2.5", "n"), ("seed=null", "seed"),
        ("redetect=1", "redetect"), ("largest_component=\"no\"", "largest_component"),
        ("runs=true", "runs"),
    ])
    def test_simulate_ill_typed_config_value_writes_nothing(self, line, key, tmp_path, capsys):
        conf, out = tmp_path / "run.conf", tmp_path / "sweep.csv"
        conf.write_text(f'n=20\np1_grid="0.3"\np2_grid="0.05"\nruns=1\n{line}\n')
        assert run("simulate", "--config", conf, "--out", out) == 2
        assert f"config key {key} must be" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    def test_partition_ill_typed_seed_writes_nothing(self, tmp_path, capsys):
        conf, out = tmp_path / "run.conf", tmp_path / "sides.tsv"
        conf.write_text("seed=abc\n")
        assert run("partition", "--config", conf, "--edgelist", KARATE_EDGES, "--out", out) == 2
        assert "config key seed must be int" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_take_their_field_types(self, tmp_path):
        conf, out = tmp_path / "run.conf", tmp_path / "r.json"
        conf.write_text(
            f"edgelist={KARATE_EDGES}\npartition_mode=import\n"
            f"partition_file={KARATE_FACTIONS}\nmeasures=gmck\n"
            "expand_alpha=1\ndamping=0.5\nk=null\ntopic_label=2024\nforce=true\n"
        )
        assert run("score", "--config", conf, "--out", out) == 0
        config = json.loads(out.read_text())["config"]
        # an int in a float field is a float; a number in a str field is its text
        assert config["expand_alpha"] == 1.0 and isinstance(config["expand_alpha"], float)
        assert config["damping"] == 0.5
        assert config["k"] is None
        assert config["topic_label"] == "2024"
        assert config["force"] is True

    def test_simulate_smoke(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            "simulate", "--n", 100, "--p1-grid", "0.3", "--p2-grid", "0.0,0.2",
            "--runs", 1, "--seed", 0, "--out", out,
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p1,p2,mean_rwc,std_rwc,runs"
        first = lines[1].split(",")
        assert float(first[2]) == 1.0  # p2 = 0 row

    @pytest.mark.parametrize("flag, grid, fault", [
        ("--p1-grid", "x", "not a comma-separated list of numbers: 'x'"),
        ("--p2-grid", "0.1,y", "not a comma-separated list of numbers: '0.1,y'"),
        ("--p1-grid", ",", "empty grid"),
        ("--p2-grid", "", "empty grid"),
    ])
    def test_simulate_bad_grid_names_its_flag(self, tmp_path, capsys, flag, grid, fault):
        out = tmp_path / "sweep.csv"
        assert run("simulate", "--n", 20, "--runs", 1, flag, grid, "--out", out) == 2
        assert f"simulate: {flag}: {fault}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sentiment_command(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("p1,-3\np2,3\np3,0\n")
        assert run("sentiment", "--scores", scores) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "controversial"
        assert payload["variance"] == pytest.approx(6.0)

    def test_sentiment_missing_file(self, tmp_path, capsys):
        code = run("sentiment", "--scores", tmp_path / "nope.csv")
        assert code == 2


class TestOptions:
    """Each subcommand's flags and config-file keys are its ``_COMMANDS`` options."""

    def test_flags_are_exactly_the_command_options(self):
        subparsers = next(action.choices for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert sorted(subparsers) == sorted(cli._COMMANDS)
        fields = {f.name for f in dataclasses.fields(cli.PipelineConfig)}
        covered = set()
        for name, (_, options, required) in cli._COMMANDS.items():
            dests = [a.dest for a in subparsers[name]._actions if a.dest not in ("help", "config")]
            assert sorted(dests) == sorted(options)
            assert set(options) <= fields
            assert set(required) <= set(options)
            covered.update(options)
        # every field is some command's option
        assert covered == fields

    def test_report_config_is_the_score_options(self, tmp_path):
        subparsers = next(action.choices for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = [a.dest for a in subparsers["score"]._actions if a.dest not in ("help", "config")]
        out = tmp_path / "r.json"
        assert run("score", "--edgelist", KARATE_EDGES, "--partition-mode", "import",
                   "--partition-file", KARATE_FACTIONS, "--measures", "gmck", "--seed", 4,
                   "--out", out) == 0
        config = json.loads(out.read_text())["config"]
        assert sorted(config) == sorted(options) and len(config) == 28
        assert (config["seed"], config["out"], config["damping"]) == (4, str(out), 0.85)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_build_graph_takes_out_from_config(self, tmp_path):
        conf, out, expected = tmp_path / "run.conf", tmp_path / "g.tsv", tmp_path / "flags.tsv"
        conf.write_text(f"edgelist={KARATE_EDGES}\nout={out}\n")
        assert run("build-graph", "--config", conf) == 0
        assert run("build-graph", "--edgelist", KARATE_EDGES, "--out", expected) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_expand_topic_takes_renamed_keys_from_config(self, tmp_path, capsys):
        records, conf, profiles = tmp_path / "r.jsonl", tmp_path / "run.conf", tmp_path / "p.jsonl"
        write_records(records)
        conf.write_text(f"records={records}\nseed_tag=go\nwrite_profiles={profiles}\n")
        assert run("expand-topic", "--config", conf) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == "go"
        assert profiles.exists()

    @pytest.mark.parametrize("command, lines, unknown", [
        ("user-scores", "csv_out=row.csv\n", "csv_out"),
        ("user-scores", "layout_out=l.tsv\ncsv_out=row.csv\n", "csv_out, layout_out"),
        ("partition", "n_walks=5\nmeasures=bogus\nlayout_out=l2.tsv\n",
         "layout_out, measures, n_walks"),
        # fields of the one config class that are other commands' options
        ("score", "n=5\nscores=s.csv\nseed_tag=x\n", "n, scores, seed_tag"),
    ])
    def test_keys_of_other_commands_are_unknown(self, command, lines, unknown, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.conf").write_text(
            f"edgelist={KARATE_EDGES}\npartition_mode=import\n"
            f"partition_file={KARATE_FACTIONS}\n{lines}"
        )
        assert run(command, "--config", "run.conf", "--out", "out") == 2
        assert f"run.conf: unknown config keys: {unknown}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("given", ["file", "flag"])
    @pytest.mark.parametrize("field", sorted(cli.CHOICES))
    def test_unknown_choice_exits_before_any_stage(self, field, given, tmp_path, monkeypatch,
                                                   capsys):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(graph_module, "read_records", unread)
        monkeypatch.setattr(graph_module, "read_edgelist", unread)
        records, conf, out = tmp_path / "r.jsonl", tmp_path / "run.conf", tmp_path / "r.json"
        write_records(records)
        conf.write_text(f"{field}=bogus\n" if given == "file" else "")
        argv = ["score", "--config", conf, "--records", records, "--topic-seed", "go",
                "--out", out]
        if given == "flag":
            argv += [cli._flag(field), "bogus"]
        assert run(*argv) == 2
        allowed = ", ".join(cli.CHOICES[field])
        assert f"unknown {field} 'bogus' (one of: {allowed})" in capsys.readouterr().err
        assert not out.exists()
        # library callers meet the same check
        with pytest.raises(cv.InputDataError, match=f"unknown {field}"):
            cli.PipelineConfig(**{field: "bogus"})

    @pytest.mark.parametrize("option, value, message", [
        ("damping", 2, "--damping must be in (0, 1)"),
        ("damping", "nan", "--damping must be in (0, 1)"),
        ("expand_alpha", 2, "--expand-alpha must be in [0, 1]"),
        ("expand_alpha", "nan", "--expand-alpha must be in [0, 1]"),
        ("expand_k", 0, "--expand-k must be >= 1"),
        ("k", 0, "--k must be >= 1"),
        ("k", -3, "--k must be >= 1"),
        ("n_walks", 0, "--n-walks must be >= 1"),
        ("n_samples", -2, "--n-samples must be >= 1"),
        ("layout_iterations", -1, "--layout-iterations must be >= 0"),
        ("tau", 0, "--tau must be >= 1"),
        ("seed", -1, "--seed must be >= 0"),
    ])
    def test_bad_restart_walk_option_exits_before_any_stage(self, option, value, message,
                                                            tmp_path, monkeypatch, capsys):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(graph_module, "read_edgelist", unread)
        out = tmp_path / "r.json"
        assert run("score", "--edgelist", KARATE_EDGES, "--partition-mode", "import",
                   "--partition-file", tmp_path / "missing.tsv", "--measures", "gmck",
                   cli._flag(option), value, "--out", out) == 2
        assert capsys.readouterr().err == f"error [{message}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["records", "profiles"])
    def test_bad_expansion_option_exits_before_expand_topic_reads(self, source, tmp_path,
                                                                  monkeypatch, capsys):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(graph_module, "read_records", unread)
        monkeypatch.setattr(cli, "read_profiles", unread)
        records, out = tmp_path / "r.jsonl", tmp_path / "topic.json"
        write_records(records)
        inputs = [f"--{source}", records if source == "records" else tmp_path / "missing.jsonl"]
        assert run("expand-topic", "--seed-tag", "go", *inputs, "--expand-alpha", 2,
                   "--out", out) == 2
        assert capsys.readouterr().err == "error [--expand-alpha must be in [0, 1]]\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--k", 0, "--k must be >= 1"),
        ("--seed", -1, "--seed must be >= 0"),
    ])
    def test_simulate_bad_option_exits_before_the_sweep(self, option, value, message,
                                                        tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli, "rwc_sweep", no_sweep)
        out = tmp_path / "sweep.csv"
        assert run("simulate", option, value, "--out", out) == 2
        assert capsys.readouterr().err == f"error [{message}]\n"
        assert not out.exists()

    def test_unknown_measure_exits_before_any_stage(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "missing.tsv"
        assert run("score", "--edgelist", KARATE_EDGES, "--partition-mode", "import",
                   "--partition-file", missing, "--measures", "gmck,bogus") == 2
        err = capsys.readouterr().err
        assert "unknown measures: bogus" in err and "missing.tsv" not in err

        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(graph_module, "read_records", unread)
        records, out = tmp_path / "r.jsonl", tmp_path / "r.json"
        write_records(records)
        assert run("score", "--records", records, "--topic-seed", "go", "--measures", "bogus",
                   "--out", out) == 2
        assert "unknown measures: bogus" in capsys.readouterr().err
        assert not out.exists()
        # library callers meet the same check; user-scores asks for no measure
        with pytest.raises(cv.InputDataError, match="unknown measures: bogus, x"):
            cli.PipelineConfig(measures="gmck, bogus,x")
        assert cli.PipelineConfig(measures="").wanted == []

    def test_repeated_measure_exits_before_any_stage(self, tmp_path, capsys):
        missing, out = tmp_path / "missing.tsv", tmp_path / "r.json"
        assert run("score", "--edgelist", missing, "--measures", "gmck,gmck,ec",
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert "duplicate measures: gmck" in err and "missing.tsv" not in err
        assert not out.exists()
        with pytest.raises(cv.InputDataError, match="duplicate measures: ec, gmck"):
            cli.PipelineConfig(measures="gmck, ec,gmck,ec,mblb")

    @pytest.mark.parametrize("argv, message", [
        (["build-graph", "--kind", "follow"], "build: follow graphs need --follows"),
        (["build-graph"], "build: a topic seed is required for record-based graphs"),
        (["score", "--kind", "content"], "build: a topic seed is required for record-based graphs"),
        (["partition", "--topic-seed", "go", "--partition-mode", "import"],
         "partition: partition import needs --partition-file"),
        (["user-scores", "--topic-seed", "go", "--partition-mode", "import"],
         "partition: partition import needs --partition-file"),
    ], ids=["follows", "topic-seed", "topic-seed-score", "partition-file", "partition-file-users"])
    def test_usage_error_exits_before_any_input_is_read(self, argv, message, tmp_path,
                                                        monkeypatch, capsys):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("read_records", "read_edgelist", "read_follow_edges"):
            monkeypatch.setattr(graph_module, name, unread)
        monkeypatch.setattr(cli, "read_profiles", unread)
        records, out = tmp_path / "r.jsonl", tmp_path / "out"
        write_records(records)
        assert run(*argv, "--records", records, "--out", out) == 2
        assert capsys.readouterr().err == f"error [{message}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "file"])
    @pytest.mark.parametrize("option, value", [("tolerance", "1e-9"), ("max_iters", "5000")])
    @pytest.mark.parametrize("command", ["score", "user-scores"])
    def test_restart_walk_stop_is_no_option(self, command, option, value, given, tmp_path,
                                            monkeypatch, capsys):
        # the restart walk stops at walks.RESTART_TOL within walks.RESTART_MAX_ITERS
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(graph_module, "read_edgelist", unread)
        conf, out = tmp_path / "run.conf", tmp_path / "out"
        conf.write_text(f"{option}={value}\n" if given == "file" else "")
        argv = [command, "--config", conf, "--edgelist", KARATE_EDGES, "--out", out]
        if given == "flag":
            with pytest.raises(SystemExit) as exit_:
                run(*argv, cli._flag(option), value)
            assert exit_.value.code == 2
            assert (f"unrecognized arguments: {cli._flag(option)} {value}"
                    in capsys.readouterr().err)
        else:
            assert run(*argv) == 2
            assert f"run.conf: unknown config keys: {option}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("command, flag", [
        ("build-graph", "--out"), ("partition", "--out"), ("user-scores", "--out"),
        ("simulate", "--out"), ("expand-topic", "--seed-tag"), ("sentiment", "--scores"),
    ])
    def test_missing_required_option_names_its_flag(self, command, flag, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.conf").write_text("out=null\n" if flag == "--out" else "")
        assert run(command, "--config", "run.conf") == 2
        assert f"missing required option: {flag}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]


class TestAtomicOutputs:
    def test_expand_topic_missing_out_dir_writes_no_profiles(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        write_records(records)
        code = run(
            "expand-topic", "--seed-tag", "go", "--records", records,
            "--write-profiles", tmp_path / "p.jsonl", "--out", tmp_path / "missing" / "t.json",
        )
        assert code == 2
        assert "missing" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

    @pytest.mark.parametrize("option", ["--csv-out", "--user-scores-out", "--layout-out"])
    def test_score_outputs_sharing_a_path_are_rejected(self, tmp_path, capsys, option):
        # the edge list does not exist: the check runs before any stage
        path = tmp_path / "x"
        code = run("score", "--edgelist", tmp_path / "missing.tsv",
                   "--out", path, option, path, "--force")
        assert code == 2
        assert f"output: two outputs name {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_expand_topic_outputs_sharing_a_path_are_rejected(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        write_records(records)
        path, same = tmp_path / "p", f"{tmp_path}/./p"
        code = run("expand-topic", "--seed-tag", "go", "--records", records,
                   "--out", path, "--write-profiles", same)
        assert code == 2
        assert f"two outputs name {same}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

    def test_failed_write_names_the_output_path(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        code = run("simulate", "--n", 20, "--p1-grid", "0.3", "--p2-grid", "0.1", "--runs", 1,
                   "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert f"No such file or directory: '{out}'" in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, writer",
        [
            ("build-graph", "controversy.graph.write_edgelist"),
            ("partition", "controversy.cli.write_partition"),
            ("expand-topic", "controversy.cli._write_text"),
            ("simulate", "controversy.cli.write_sweep_csv"),
            ("sentiment", "controversy.cli._write_text"),
        ],
    )
    def test_failed_write_keeps_old_target(self, tmp_path, capsys, monkeypatch, command, writer):
        records, scores = tmp_path / "r.jsonl", tmp_path / "s.csv"
        write_records(records)
        scores.write_text("p1,-3\np2,3\n")
        out = tmp_path / "out"
        argv = {
            "build-graph": ("--edgelist", KARATE_EDGES),
            "partition": ("--edgelist", KARATE_EDGES, "--partition-mode", "import",
                          "--partition-file", KARATE_FACTIONS),
            "expand-topic": ("--seed-tag", "go", "--records", records),
            "simulate": ("--n", 40, "--p1-grid", "0.3", "--p2-grid", "0.1", "--runs", 1),
            "sentiment": ("--scores", scores),
        }[command]
        old = b"old contents\n"
        out.write_bytes(old)
        before = sorted(p.name for p in tmp_path.iterdir())

        assert run(command, *argv, "--out", out) == 2
        assert "refusing to overwrite" in capsys.readouterr().err

        def broken(*args, **kwargs):
            # every writer takes its target path last
            with open(args[-1], "w", encoding="utf-8") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(writer, broken)
            assert run(command, *argv, "--out", out, "--force") == 2
        assert "disk full" in capsys.readouterr().err
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == before

        assert run(command, *argv, "--out", out, "--force") == 0
        assert out.read_bytes() != old
        assert sorted(p.name for p in tmp_path.iterdir()) == before
