"""Every input format is read through one line reader and every user id
through one normaliser: undecodable bytes, byte-order marks, '#' ids,
lone surrogates, line breaks, over-deep JSON and the per-format line
checks."""
import codecs
import json

import pytest

import controversy as cv
from controversy import graph
from controversy.cli import _config_value, _read_config_file, main

from conftest import make_graph

PAIR = make_graph(2, [(0, 1)])  # ids "0" and "1"

# name -> (file name, a valid first line, reader)
READERS = {
    "records": ("r.jsonl", '{"author": "a", "endorsed": "b", "hashtags": ["go"]}',
                cv.read_records),
    "edgelist": ("e.tsv", "a\tb\t2", cv.read_edgelist),
    "follows": ("f.tsv", "a\tb", cv.read_follow_edges),
    "profiles": ("p.jsonl", '{"tag": "go", "df": 3, "tags": {"fast": 1}}', cv.read_profiles),
    "partition": ("s.tsv", "0\t0", lambda path: cv.import_partition(PAIR, path)),
    "sentiment": ("m.csv", "p1,0.5", cv.read_sentiment),
    "config": ("c.cfg", "seed=1", _read_config_file),
}
SECOND_LINE = {
    "records": '{"author": "c", "endorsed": "a", "hashtags": ["go"]}',
    "edgelist": "b\tc",
    "follows": "c\ta",
    "profiles": '{"tag": "fast", "df": 1}',
    "partition": "1\t1",
    "sentiment": "p2,-1",
    "config": "tau=3",
}


DEEP = "[" * 100000  # nested too deep for the JSON decoder: RecursionError


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("name", ["records", "profiles"])
def test_over_deep_json_line_names_the_line(tmp_path, name):
    file_name, first, read = READERS[name]
    path = tmp_path / file_name
    path.write_text(f"{first}\n{DEEP}\n")
    with pytest.raises(cv.InputDataError, match="maximum recursion depth") as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}:2: bad {name[:-1]} (")


@pytest.mark.parametrize("value", [DEEP, "1" * 5000], ids=["deep", "5000-digits"])
def test_config_value_json_cannot_read_is_text(tmp_path, value):
    # the message shows the value's first 40 characters, as records cut a bad line
    path = tmp_path / "c.cfg"
    with pytest.raises(cv.InputDataError) as exc:
        _config_value(path, "n", value, int)
    assert str(exc.value) == f"{path}: config key n must be int, got {value[:40]}..."
    assert _config_value(path, "label", value, str) == value


@pytest.mark.parametrize("value", ["[1]", '"' + "x" * 38 + '"'], ids=["short", "40-chars"])
def test_config_value_up_to_40_characters_is_shown_whole(tmp_path, value):
    path = tmp_path / "c.cfg"
    with pytest.raises(cv.InputDataError) as exc:
        _config_value(path, "n", value, int)
    assert str(exc.value) == f"{path}: config key n must be int, got {value}"


@pytest.mark.parametrize("name", ["profiles", "config"])
def test_over_deep_json_exits_2_naming_the_file(tmp_path, capsys, name):
    path = tmp_path / READERS[name][0]
    if name == "profiles":
        path.write_text(f"{READERS[name][1]}\n{DEEP}\n")
        argv, where = ["--seed-tag", "go", "--profiles", path], f"{path}:2: bad profile ("
    else:
        path.write_text(f"seed_tag=go\nexpand_k={DEEP}\n")
        argv, where = ["--config", path], f"{path}: config key expand_k must be int"
    assert run("expand-topic", *argv) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("name", READERS)
def test_byte_order_mark_is_ignored(tmp_path, name):
    file_name, first, read = READERS[name]
    text = f"{first}\n{SECOND_LINE[name]}\n".encode()
    results = []
    for prefix in (b"", codecs.BOM_UTF8):
        path = tmp_path / str(len(prefix)) / file_name
        path.parent.mkdir()
        path.write_bytes(prefix + text)
        results.append(read(path))
    assert results[1] == results[0]


@pytest.mark.parametrize("name", READERS)
def test_undecodable_byte_names_the_line(tmp_path, name):
    file_name, first, read = READERS[name]
    path = tmp_path / file_name
    path.write_bytes(first.encode() + b"\n\xff" + SECOND_LINE[name].encode() + b"\n")
    with pytest.raises(cv.InputDataError, match="can't decode byte 0xff") as exc:
        read(path)
    assert f"{path}:2:" in str(exc.value)


@pytest.mark.parametrize("name", READERS)
def test_line_breaks_and_blank_lines_read_the_same(tmp_path, name):
    file_name, first, read = READERS[name]
    results = []
    for i, text in enumerate([f"{first}\n{SECOND_LINE[name]}\n",
                              f"\r\n{first}\r\n  \r\n{SECOND_LINE[name]}",
                              f"{first}\r\t\r{SECOND_LINE[name]}\r"]):
        path = tmp_path / str(i) / file_name
        path.parent.mkdir()
        path.write_bytes(text.encode())
        results.append(read(path))
    assert results[1] == results[0] and results[2] == results[0]


def test_undecodable_byte_deep_in_a_file(tmp_path):
    path = tmp_path / "e.tsv"
    lines = [f"u{i}\tv{i}\n".encode() for i in range(3000)]
    lines[2499] = b"u\xe9\tv\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(cv.InputDataError, match=r"e\.tsv:2500: .* decode byte 0xe9"):
        cv.read_edgelist(path)


def test_non_ascii_lines_read_as_text(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("zoë\tÅsa\n", encoding="utf-8")
    assert cv.read_edgelist(path).ids == ("zoë", "åsa")


def test_undecodable_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"seed=1\nlabel=caf\xe9\n")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "s.csv") == 2
    assert f"{cfg}:2:" in capsys.readouterr().err


class TestHashIds:
    def test_user_id_rejects_a_leading_hash(self):
        for raw in ("#zed", "  #zed"):
            with pytest.raises(cv.InputDataError, match="starts with '#'"):
                graph._user_id(raw)
        assert graph._user_id(" Z#ed ") == "z#ed"

    def test_build_graph_rejects_a_hash_author(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        rows = [{"author": "bob", "endorsed": "zed", "hashtags": ["go"]},
                {"author": "#zed", "endorsed": "bob", "hashtags": ["go"]}]
        records.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "g.tsv"
        assert run("build-graph", "--records", records, "--kind", "retweet",
                   "--topic-seed", "go", "--tau", 1, "--out", out) == 2
        assert f"{records}:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_edgelist_rejects_a_hash_vertex(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        edges.write_text("# a comment\na\t#b\n")
        assert run("partition", "--edgelist", edges, "--out", tmp_path / "p.tsv") == 2
        assert f"{edges}:2: user id '#b' starts with '#'" in capsys.readouterr().err

    def test_user_id_rejects_a_lone_surrogate(self):
        with pytest.raises(cv.InputDataError, match="is not valid Unicode text"):
            graph._user_id("a\ud800")
        with pytest.raises(cv.InputDataError, match="is not valid Unicode text"):
            cv.ConversationGraph(["a\udfff", "b"], [(0, 1, 1)], False)
        assert graph._user_id("Zoë") == "zoë"

    def test_build_graph_rejects_a_surrogate_author(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        records.write_text('{"author": "a\\ud800", "endorsed": "b", "hashtags": ["go"]}\n')
        message = r"r\.jsonl:1: bad record \(user id 'a\\ud800' is not valid Unicode text\)"
        with pytest.raises(cv.InputDataError, match=message):
            cv.read_records(records)
        out = tmp_path / "g.tsv"
        assert run("build-graph", "--records", records, "--topic-seed", "go", "--tau", 1,
                   "--out", out) == 2
        assert f"{records}:1:" in capsys.readouterr().err
        assert not out.exists()

    def test_graph_builders_reject_a_hash_id(self):
        with pytest.raises(cv.InputDataError, match="starts with '#'"):
            cv.graph_from_weighted_pairs([("a", "#b", 1)], directed=False)
        with pytest.raises(cv.InputDataError, match="starts with '#'"):
            cv.build_follow_graph([("a", "b")], ["a", "b", "#c"])
        with pytest.raises(cv.InputDataError, match="starts with '#'"):
            PAIR.index_of("#0")
        assert PAIR.index_of(" 1 ") == 1

    def test_constructor_applies_the_id_rule(self, tmp_path):
        # '#a' would be written as a line the edge-list reader skips
        with pytest.raises(cv.InputDataError, match="user id '#a' starts with '#'"):
            cv.ConversationGraph(["#a", "b", "c"], [(0, 1, 1), (1, 2, 1)], False)
        g = cv.ConversationGraph([" A", "b", "c"], [(0, 1, 1), (1, 2, 1)], False)
        assert g.ids == ("a", "b", "c")
        assert g.index_of("A") == 0
        path = tmp_path / "e.tsv"
        cv.write_edgelist(g, path)
        assert cv.read_edgelist(path) == g


class TestLineChecks:
    def test_non_positive_edge_weight_names_the_line(self, tmp_path):
        path = tmp_path / "e.tsv"
        for weight in (0, -3):
            path.write_text(f"a\tb\t2\na\tb\t{weight}\n")
            with pytest.raises(cv.InputDataError, match=rf"e\.tsv:2: non-positive weight {weight}"):
                cv.read_edgelist(path)

    def test_partition_vertex_labeled_twice(self, tmp_path, capsys):
        edges, sides = tmp_path / "e.tsv", tmp_path / "s.tsv"
        edges.write_text("a\tb\nb\tc\nc\ta\nc\td\n")
        sides.write_text("a\t0\nb\t0\nc\t1\nd\t1\nA\t1\n")
        assert run("score", "--edgelist", edges, "--partition-mode", "import",
                   "--partition-file", sides, "--measures", "gmck",
                   "--out", tmp_path / "r.json") == 2
        assert "line 5: vertex 'a' labeled 1, but 0 on line 1" in capsys.readouterr().err

    def test_partition_vertex_repeated_with_its_label(self, tmp_path):
        sides = tmp_path / "s.tsv"
        sides.write_text("0\t0\n1\t1\n0\t0\n")
        assert cv.import_partition(PAIR, sides) == cv.Partition([0, 1])

    def test_out_of_range_sentiment_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("post_id,score\np1,1\np2,9\n")
        with pytest.raises(cv.InputDataError, match=r"m\.csv:3: sentiment score 9\.0 outside"):
            cv.read_sentiment(path)

    def test_follow_edges_normalise_ids(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text(" Ann \tBOB\n")
        assert cv.read_follow_edges(path) == [("ann", "bob")]
        path.write_text("ann\t#bob\n")
        with pytest.raises(cv.InputDataError, match=r"f\.tsv:1: user id '#bob'"):
            cv.read_follow_edges(path)
