"""Record ingest: the reader and graph builder against their loop
references, ill-typed fields, and corrupted lines."""
import json
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import controversy as cv
from controversy import graph
from controversy.cli import main

from oracles import loop_build_content_graph, loop_build_retweet_graph, loop_read_records
from test_graph import assert_sliced_like_rebuilt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# ids that normalize alike only after case folding and stripping, and
# JSON values that are equal as dict keys but normalize apart
# (1 == True == 1.0 -> "1", "true", "1.0"; -0.0 == 0.0 -> "-0.0", "0.0")
IDS = ["Alice", "alice", " ALICE ", "bob", "Bob", "carol", "dave",
       1, True, 1.0, -0.0, 0.0, 0, False, "1", "true", "1.0", None, ["x"]]
TAGS = ["#Go", "go", "GO ", "#", "  ", "fast", "#FAST", "slow", "Zoom", "#zoom"]
URLS = [" x.org/1 ", "x.org/1", "", "  ", "y.org", "\tz.org/a b\n"]
TOPIC = cv.Topic.make("go", ["fast", "zoom"])


def random_rows(rng, n_rows):
    rows = []
    for _ in range(n_rows):
        author = rng.choice(IDS)
        row = {"author": author}
        draw = rng.random()
        if draw < 0.15:
            row["endorsed"] = author  # self-endorsement
        elif draw < 0.25:
            row["endorsed"] = None
        elif draw < 0.9:
            row["endorsed"] = rng.choice(IDS[:12])
        for key, pool in (("hashtags", TAGS), ("urls", URLS)):
            draw = rng.random()
            if draw < 0.1:
                row[key] = None
            elif draw < 0.9:
                row[key] = rng.sample(pool, rng.randrange(4))
        if rng.random() < 0.9:
            row["ts"] = rng.choice([None, 0, 1, 2, 3])
        rows.append(row)
        if rng.random() < 0.1:
            rows.append(dict(row))  # exact duplicate
    return rows


def write_rows(path, rows, rng=None):
    lines = [json.dumps(r) for r in rows]
    if rng is not None:  # blank and padded lines are skipped
        lines = [" " * rng.randrange(2) + line if rng.random() < 0.9 else line + "\n"
                 for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bad_line_number(path, exc_info):
    found = re.search(rf"{re.escape(str(path))}:(\d+): ", str(exc_info.value))
    assert found, str(exc_info.value)
    return int(found.group(1))


class TestDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_files_match_the_loop_reader(self, seed, tmp_path):
        rng = random.Random(seed)
        path = tmp_path / "r.jsonl"
        write_rows(path, random_rows(rng, 150), rng)
        records = cv.read_records(path)
        assert records == loop_read_records(path)
        # the file exercised what it is meant to
        authors = {r.author for r in records}
        assert {"1", "true", "1.0", "alice"} <= authors
        for tau in (1, 2, 3):
            assert cv.build_retweet_graph(records, TOPIC, tau) == loop_build_retweet_graph(
                records, TOPIC, tau
            )
        assert cv.build_retweet_graph(records, TOPIC, 1).n_edges > 0

    def test_equal_keys_normalize_apart(self):
        raw_ids = (1, True, 1.0, -0.0, 0.0, 0, False)
        expected = ["1", "true", "1.0", "-0.0", "0.0", "0", "false"]
        assert [cv.InteractionRecord.make(raw).author for raw in raw_ids] == expected

    @pytest.mark.parametrize("varied", [False, True])
    def test_memos(self, varied, tmp_path, monkeypatch):
        """Records repeating an id or a tag list share one object, unless
        the first ``PROBE`` records mostly carried distinct values."""
        monkeypatch.setattr(graph._Memo, "PROBE", 32)
        path = tmp_path / "r.jsonl"
        write_rows(path, [{"author": f"U{i}" if varied and i < 32 else "A", "endorsed": "Hub",
                           "hashtags": [f"#T{i}" if varied and i < 32 else "#Go"],
                           "urls": [f"x.org/{i}" if varied and i < 32 else "x.org"], "ts": i}
                          for i in range(100)])
        records = cv.read_records(path)
        assert records == loop_read_records(path)
        for field in ("author", "endorsed", "hashtags", "urls"):
            objects = {id(getattr(r, field)) for r in records[32:]}
            assert len(objects) == (68 if varied else 1), field

    @pytest.mark.parametrize("field", ["hashtags", "urls"])
    @pytest.mark.parametrize("value, alike", [
        ([["x"]], ["x"]),
        ([{"a": 1}], ["a"]),
        ([1], ["1"]),
        ("abc", ["a", "b", "c"]),
        ({}, []),
    ], ids=repr)
    @pytest.mark.parametrize("memoised", [False, True])
    def test_memo_miss_is_checked(self, field, value, alike, memoised, tmp_path):
        """A list with a non-str item, or a value that is not a list, raises
        naming its line, also after an all-str list that compares equal to
        it in part (its items, its tuple or its str form) was memoised."""
        path = tmp_path / "r.jsonl"
        first = {"author": "a", field: alike if memoised else None}
        write_rows(path, [first, {"author": "b", field: ["go", "x"]}, {"author": "c", field: value}])
        message = f"r.jsonl:3: bad record ({field} must be a list of strings, got {value!r})"
        with pytest.raises(cv.InputDataError, match=re.escape(message)) as exc:
            cv.read_records(path)
        assert bad_line_number(path, exc) == 3

    def test_empty_url_sets_are_shared(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_rows(path, [{"author": "a", "ts": 1}, {"author": "b", "urls": ["  "], "ts": 2},
                          {"author": "c", "urls": None, "hashtags": ["go"], "ts": 3}])
        a, b, c = cv.read_records(path)
        assert a.urls is b.urls is c.urls == frozenset()

    def test_records_have_no_instance_dict(self):
        rec = cv.InteractionRecord.make("a", "b", ["go"])
        assert not hasattr(rec, "__dict__")
        fields = ("a", "b", frozenset({"go"}), frozenset(), 0)
        assert rec == fields and hash(rec) == hash(fields)
        with pytest.raises(AttributeError):
            rec.author = "c"


@pytest.fixture(scope="module")
def ingest_users_seed1(tmp_path_factory):
    """The benchmark's ``ingest_users`` inputs of seed 1, written by its own
    generator (a pure function of the seed)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    rng = np.random.default_rng([1, sum(map(ord, "ingest_users"))])
    records, _ = inputs.retweet_corpus(rng, 500, 60000)
    profiles = inputs.hashtag_profiles(rng)
    data = tmp_path_factory.mktemp("ingest_users")
    inputs.write_jsonl(data / "records.jsonl", records)
    inputs.write_jsonl(data / "profiles.jsonl", profiles)
    topic = cv.expand_topic(inputs.SEED_TAG, cv.read_profiles(data / "profiles.jsonl"))
    return data / "records.jsonl", topic


def test_ingest_users_records_match_the_loop_reader(ingest_users_seed1):
    path, topic = ingest_users_seed1
    records = cv.read_records(path)
    assert len(records) == 59823
    assert records == loop_read_records(path)
    for tau in (1, 2, 3):
        g = cv.build_retweet_graph(records, topic, tau)
        assert g == loop_build_retweet_graph(records, topic, tau)
        assert g.n_edges > 0


def test_ingest_users_content_graph_matches_the_loop(ingest_users_seed1):
    path, topic = ingest_users_seed1
    records = cv.read_records(path)
    g = cv.build_content_graph(records, topic, "shared-hashtag")
    assert (g.n_vertices, g.n_edges) == (423, 89253)
    assert g == loop_build_content_graph(records, topic, "shared-hashtag")


def test_ingest_users_component_slices_like_rebuilt(ingest_users_seed1):
    path, topic = ingest_users_seed1
    # at tau = 4 the graph falls apart: its largest component holds 193 of 385 users
    g = cv.build_retweet_graph(cv.read_records(path), topic, 4)
    sub = cv.largest_component(g)
    assert g.directed and sub.n_vertices < g.n_vertices
    keep = [g.index_of(u) for u in sub.ids]
    assert sub == assert_sliced_like_rebuilt(g, keep)
    rng = np.random.default_rng(2)
    assert_sliced_like_rebuilt(g, rng.choice(g.n_vertices, g.n_vertices // 3, replace=False))


# lines with two faults each, and the message of the one reported first
TWO_FAULTS = [
    ('{"author": " ", "ts": true}', "record with empty author"),
    ('{"author": "", "hashtags": [1]}', "record with empty author"),
    ('{"author": "#a", "hashtags": [1]}',
     "user id '#a' starts with '#' or holds a tab or line break"),
    ('{"author": "a", "endorsed": "b\\tc", "urls": [2]}',
     "user id 'b\\tc' starts with '#' or holds a tab or line break"),
    ('{"author": "a", "endorsed": "", "ts": 0.5}', "ts must be an integer, got 0.5"),
    ('{"endorsed": "b", "ts": true}', "'author'"),
    ('{"author": "a", "hashtags": [1], "urls": "x.org"}',
     "hashtags must be a list of strings, got [1]"),
    ('{"author": "a", "hashtags": {"go": 1}, "ts": "3"}',
     "hashtags must be a list of strings, got {'go': 1}"),
    ('{"author": 5, "hashtags": [[]], "ts": "1"}', "hashtags must be a list of strings, got [[]]"),
    ('{"author": "a", "urls": null, "hashtags": "go", "ts": false}',
     "hashtags must be a list of strings, got 'go'"),
    ('{"author": "a", "urls": [2], "ts": 1.5}', "urls must be a list of strings, got [2]"),
    ('[{"author": "", "ts": true}]', """not a JSON object: '[{"author": "", "ts": true}]'"""),
    ('{"author": "a", "ts": 1.5} {"author": ""}', "Extra data: line 1 column 27 (char 26)"),
    ('{"author": "", "ts": 1.5', "Expecting ',' delimiter: line 1 column 25 (char 24)"),
    ('nul {"author": ""}', "Expecting value: line 1 column 1 (char 0)"),
]


@pytest.mark.parametrize("line, message", TWO_FAULTS, ids=[line for line, _ in TWO_FAULTS])
@pytest.mark.parametrize("dropped", [False, True], ids=["memos-on", "memos-dropped"])
def test_first_fault_of_a_line_is_reported(line, message, dropped, tmp_path, monkeypatch):
    """Each field is checked in order (the JSON text, author, endorsed,
    hashtags, urls, ts), whether the memos are in use or were dropped
    because the first ``PROBE`` records held distinct values."""
    makers = []

    def spy(*memos):
        makers.append(memos)
        return record_maker(*memos)

    record_maker = graph._record_maker
    monkeypatch.setattr(graph, "_record_maker", spy)
    monkeypatch.setattr(graph._Memo, "PROBE", 8)
    rows = [{"author": f"u{i}" if dropped else "u", "endorsed": "v", "ts": i,
             "hashtags": [f"t{i}" if dropped else "t"], "urls": [f"x.org/{i}" if dropped else "x"]}
            for i in range(12)]
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows) + line + "\n")
    with pytest.raises(cv.InputDataError) as exc:
        cv.read_records(path)
    assert str(exc.value) == f"{path}:13: bad record ({message})"
    assert len(makers) == 2
    assert all((memo is None) == dropped for memo in makers[-1])


def test_make_and_read_records_agree(tmp_path):
    """``InteractionRecord.make`` (memos off) and ``read_records`` (memos on,
    then dropped) build equal records with fields of the same types."""
    rows = random_rows(random.Random(3), 300) + [
        {"author": f"u{i}", "endorsed": f"v{i}", "hashtags": [f"t{i}"], "urls": [f"x.org/{i}"],
         "ts": i} for i in range(3 * graph._Memo.PROBE)]
    path = tmp_path / "r.jsonl"
    write_rows(path, rows)
    made = list(dict.fromkeys(
        cv.InteractionRecord.make(row["author"], row.get("endorsed"), row.get("hashtags"),
                                  row.get("urls"), row.get("ts")) for row in rows))
    read = cv.read_records(path)
    assert read == made
    assert [[type(f) for f in (rec, *rec)] for rec in read] == [
        [type(f) for f in (rec, *rec)] for rec in made]


def test_retweet_tag_memo_drops_on_distinct_tag_sets(monkeypatch):
    """The retweet build's memo of topic tags per tag set stops storing
    after ``PROBE`` records whose tag sets mostly differ, and keeps
    storing while they repeat; the graph is the loop build's either way."""
    monkeypatch.setattr(graph._Memo, "PROBE", 32)
    stored = []

    class Spy(graph._Memo):
        def __missing__(self, raw):
            if isinstance(raw, frozenset):
                stored.append(raw)
            return super().__missing__(raw)

    monkeypatch.setattr(graph, "_Memo", Spy)
    for distinct, expected in ((True, 32), (False, 5)):
        stored.clear()
        records = [cv.InteractionRecord.make(f"u{i % 7}", f"v{i % 5}",
                                             ["go", f"t{i}" if distinct else f"t{i % 5}"])
                   for i in range(100)]
        g = cv.build_retweet_graph(records, TOPIC, 1)
        assert len(stored) == expected
        assert g == loop_build_retweet_graph(records, TOPIC, 1)


class TestIllTypedFields:
    @pytest.mark.parametrize("field, value", [
        ("hashtags", [1]),
        ("hashtags", "gridvote"),
        ("hashtags", {"go": 1}),
        ("hashtags", [["go"]]),
        ("hashtags", ""),
        ("urls", "x.org"),
        ("urls", [2]),
        ("urls", False),
        ("ts", 1.5),
        ("ts", "3"),
        ("ts", True),
        ("ts", [1]),
    ])
    def test_rejected_naming_the_line(self, field, value, tmp_path):
        path = tmp_path / "r.jsonl"
        write_rows(path, [{"author": "a", "endorsed": "b", "hashtags": ["go"]},
                          {"author": "a", "endorsed": "b", field: value}])
        with pytest.raises(cv.InputDataError, match=rf"r\.jsonl:2: bad record \({field}") as exc:
            cv.read_records(path)
        assert bad_line_number(path, exc) == 2

    @pytest.mark.parametrize("field, value", [
        ("hashtags", ""),
        ("hashtags", {}),
        ("hashtags", "go"),
        ("hashtags", [1]),
        ("urls", [1]),
        ("urls", ""),
        ("urls", [None]),
        ("ts", False),
        ("ts", 1.0),
        ("ts", "1"),
    ], ids=repr)
    @pytest.mark.parametrize("line", [1, 3])
    def test_loop_reader_rejects_the_same_line(self, field, value, line, tmp_path):
        rows = [{"author": f"a{i}", "endorsed": "b", "hashtags": ["go"]} for i in range(4)]
        rows[line - 1][field] = value
        path = tmp_path / "r.jsonl"
        write_rows(path, rows)
        for reader in (cv.read_records, loop_read_records):
            with pytest.raises(cv.InputDataError, match=rf"r\.jsonl:{line}: bad record \({field}"):
                reader(path)

    def test_null_fields_count_as_absent(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_rows(path, [{"author": "a", "endorsed": None, "hashtags": None,
                           "urls": None, "ts": None}])
        assert cv.read_records(path) == [cv.InteractionRecord.make("a")]

    @pytest.mark.parametrize("line", ['["a"]', '"a"', "5", "null",
                                      pytest.param("[" * 100000, id="deeply-nested"),
                                      pytest.param('{"author": "a", "ts": 1' + "0" * 5000 + "}",
                                                   id="5000-digit-ts")])
    def test_non_object_line_rejected(self, line, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"author": "a"}\n' + line + "\n")
        with pytest.raises(cv.InputDataError, match=r"r\.jsonl:2: "):
            cv.read_records(path)

    def test_value_split_across_lines_names_its_first_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"author": "a"}\n{"author":"c","x":[1\n2]}\n')
        with pytest.raises(cv.InputDataError, match=r"r\.jsonl:2: "):
            cv.read_records(path)

    def test_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"author": "a"} {"author": "b"}\n')
        with pytest.raises(cv.InputDataError, match=r"r\.jsonl:1: .*Extra data"):
            cv.read_records(path)

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        write_rows(path, [{"author": "a", "endorsed": "b", "hashtags": [1]}])
        code = main(["build-graph", "--records", str(path), "--topic-seed", "go",
                     "--out", str(tmp_path / "g.tsv")])
        assert code == 2
        assert "r.jsonl:1:" in capsys.readouterr().err
        assert not (tmp_path / "g.tsv").exists()

    @pytest.mark.parametrize("profile, message", [
        ({"tag": "a", "df": 1, "words": ["x"]}, "words must be an object"),
        ({"tag": "a", "df": 1, "tags": "b"}, "tags must be an object"),
        ({"tag": 5, "df": 1}, "tag must be a string"),
        ({"tag": None, "df": 1}, "tag must be a string"),
        ({"tag": "a", "df": 2.5}, "df must be an integer"),
        ({"tag": "a", "df": "2"}, "df must be an integer"),
        ({"tag": "a", "df": 1, "tags": {"b": 1.7}}, "count of 'b' must be an integer"),
        ({"tag": "a", "df": 1, "words": {"x": True}}, "count of 'x' must be an integer"),
    ])
    def test_ill_typed_profile_rejected(self, profile, message, tmp_path, capsys):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"tag": "b", "df": 1}) + "\n" + json.dumps(profile) + "\n")
        with pytest.raises(cv.InputDataError, match=rf"p\.jsonl:2: bad profile \({message}"):
            cv.read_profiles(path)
        assert main(["expand-topic", "--seed-tag", "b", "--profiles", str(path)]) == 2
        assert "p.jsonl:2:" in capsys.readouterr().err


def retyped(line, rng):
    obj = json.loads(line)
    field, value = rng.choice([
        ("hashtags", "go"), ("hashtags", 7), ("hashtags", [3]), ("hashtags", {"go": 1}),
        ("urls", "x.org"), ("urls", [None]), ("urls", True),
        ("ts", "1"), ("ts", 0.5), ("ts", False), ("ts", {}),
    ])
    obj[field] = value
    return json.dumps(obj)


@pytest.mark.parametrize("seed", range(12))
def test_corrupted_lines_name_their_own_line(seed, tmp_path):
    rng = random.Random(1000 + seed)
    valid = [json.dumps(r) for r in random_rows(rng, 40)]
    path = tmp_path / "r.jsonl"
    for _ in range(25):
        lines = list(valid)
        i = rng.randrange(len(lines) - 1)
        kind = rng.choice(["truncate", "join", "wrap", "retype"])
        if kind == "truncate":
            lines[i] = lines[i][: rng.randrange(1, len(lines[i]))]
        elif kind == "join":
            lines[i : i + 2] = [lines[i] + rng.choice(["", " "]) + lines[i + 1]]
        elif kind == "wrap":
            lines[i] = f"[{lines[i]}]"
        else:
            lines[i] = retyped(lines[i], rng)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(cv.InputDataError) as exc:
            cv.read_records(path)
        assert bad_line_number(path, exc) == i + 1, (kind, lines[i])
