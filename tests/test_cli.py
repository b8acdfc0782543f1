"""End-to-end command-line behavior."""
import csv
import json
import math
from collections import Counter

import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import controversy as cv
import controversy.cli as cli
import controversy.partition as partition_module
from controversy.cli import main

from conftest import KARATE_EDGES, KARATE_FACTIONS


def run(*argv):
    return main([str(a) for a in argv])


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
        out = tmp_path / "r.json"
        code = run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--measures", measure, *option, "--out", out,
        )
        assert code == 2
        assert "measure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_parameters_rerun_each_measure(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(
            "score", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--seed", 3, "--k", 2, "--damping", 0.8, "--max-iters", 5000, "--n-walks", 2000,
            "--n-samples", 2000, "--layout-iterations", 100, "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        g = cv.read_edgelist(KARATE_EDGES)
        p = cv.import_partition(g, KARATE_FACTIONS)
        # each rerun takes every argument from the report entry, none by default
        rerun = {
            "rwc_mc": lambda seed, k, n_walks: cv.rwc_mc(g, p, k=k, n_walks=n_walks, seed=seed),
            "rwc_rwr": lambda seed, k, damping, tolerance, max_iters: cv.rwc_rwr(
                g, p, k=k, cfg=cv.RestartWalkConfig(damping, tolerance, max_iters)),
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
        partitioners = {"spectral": "spectral_bisection", "import": "import_partition"}
        names = [*cv.MEASURE_NAMES, "force_layout", "user_score_table", "write_user_scores",
                 *partitioners.values()]
        calls = Counter()
        for name in names:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        wanted = cv.MEASURE_NAMES if measures == "all" else (measures,)
        assert run(
            "score", "--edgelist", KARATE_EDGES, "--partition-mode", mode,
            "--partition-file", KARATE_FACTIONS, "--measures", ",".join(wanted),
            "--layout-iterations", 20, "--n-walks", 500, "--n-samples", 500,
            "--out", tmp_path / "r.json", "--user-scores-out", tmp_path / "users.csv",
            "--layout-out", tmp_path / "layout.tsv",
        ) == 0
        # the layout serves both ec and --layout-out
        expected = dict.fromkeys([*wanted, "force_layout", "user_score_table",
                                  "write_user_scores", partitioners[mode]], 1)
        assert calls == expected

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

    @pytest.mark.parametrize("option, value, code", [
        pytest.param("max_iters", 1, 3, id="1-3"),
        pytest.param("max_iters", 0, 2, id="0-2"),
        *(pytest.param("tolerance", v, 2, id=f"tolerance={v}") for v in ("0", "-1", "nan")),
    ])
    def test_user_scores_iteration_budget(self, tmp_path, capsys, option, value, code):
        out = tmp_path / "u.csv"
        assert run(
            "user-scores", "--edgelist", KARATE_EDGES,
            "--partition-mode", "import", "--partition-file", KARATE_FACTIONS,
            "--" + option.replace("_", "-"), value, "--out", out,
        ) == code
        assert ("iterations" if code == 3 else option) in capsys.readouterr().err
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
        hds = cv.top_degree(g, part, cv.default_k(part))
        for row in cv.user_score_table(g, part, hds):
            if row.user_id != "carol":
                assert rows[row.user_id] == {"user_id": row.user_id, "side": row.side,
                                             "rwc_user": repr(row.rwc_user), "rho": repr(row.rho)}


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
            "expand_alpha=1\ntolerance=1e-9\nk=null\ntopic_label=2024\nforce=true\n"
        )
        assert run("score", "--config", conf, "--out", out) == 0
        config = json.loads(out.read_text())["config"]
        # an int in a float field is a float; a number in a str field is its text
        assert config["expand_alpha"] == 1.0 and isinstance(config["expand_alpha"], float)
        assert config["tolerance"] == 1e-9
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
