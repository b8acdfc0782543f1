"""Graph construction, normalization, and file formats."""
import json
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import controversy as cv
from controversy.graph import CONTENT_MODES, CSR, url_domain

from conftest import make_graph, path
from oracles import (
    connected_components, lexsort_csr_arrays, loop_build_content_graph, loop_write_edgelist,
    rebuilt_induced_subgraph, tuple_graph,
)


def rec(author, endorsed=None, hashtags=(), urls=(), ts=0):
    return cv.InteractionRecord.make(
        author, endorsed=endorsed, hashtags=hashtags, urls=urls, timestamp=ts
    )


TOPIC_A = cv.Topic.make("a", ["b"])


class TestInteractionRecord:
    def test_normalizes_case_and_hash_prefix(self):
        r = rec("Alice", "BOB", hashtags=["#Tag", "other", " #TAG ", "#", "  "])
        assert r.author == "alice"
        assert r.endorsed == "bob"
        assert r.hashtags == frozenset({"tag", "other"})

    def test_self_endorsement_dropped(self):
        assert rec("alice", "ALICE").endorsed is None

    def test_empty_author_rejected(self):
        with pytest.raises(cv.InputDataError):
            rec("   ")

    @pytest.mark.parametrize("uid", ["a\tx", "a\rx", "a\nx"])
    def test_tab_or_line_break_in_id_rejected(self, uid, tmp_path):
        for author, endorsed in ((uid, "b"), ("b", uid)):
            with pytest.raises(cv.InputDataError, match="tab or line break"):
                rec(author, endorsed)
        # in a records file the error names the line
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps({"author": "b", "endorsed": "c"}) + "\n"
                        + json.dumps({"author": uid, "endorsed": "b"}) + "\n")
        with pytest.raises(cv.InputDataError, match=r"r\.jsonl:2: .*tab or line break"):
            cv.read_records(path)


class TestRetweetGraph:
    def test_single_retweet_below_threshold(self):
        g = cv.build_retweet_graph([rec("u", "v", ["a"])], TOPIC_A, tau=2)
        assert g.n_edges == 0

    def test_two_retweets_make_a_directed_edge(self):
        records = [rec("u", "v", ["a"], ts=1), rec("u", "v", ["a"], ts=2)]
        g = cv.build_retweet_graph(records, TOPIC_A, tau=2)
        assert g.n_edges == 1
        assert g.directed
        u, v = g.index_of("u"), g.index_of("v")
        assert tuple_graph(g).arcs == ((u, v, 2),)

    def test_threshold_is_per_hashtag_before_union(self):
        records = [rec("u", "v", ["a"], ts=1), rec("u", "v", ["b"], ts=2)]
        g = cv.build_retweet_graph(records, TOPIC_A, tau=2)
        assert g.n_edges == 0

    def test_directions_pool_for_the_threshold(self):
        records = [rec("u", "v", ["a"], ts=1), rec("v", "u", ["a"], ts=2)]
        g = cv.build_retweet_graph(records, TOPIC_A, tau=2)
        assert g.n_edges == 1
        assert len(g.arc_array) == 2  # one event stored per direction

    def test_order_invariance(self):
        records = [
            rec("u", "v", ["a"], ts=1),
            rec("u", "v", ["a"], ts=2),
            rec("w", "v", ["b"], ts=3),
            rec("w", "v", ["b"], ts=4),
            rec("x", "u", ["a"], ts=5),
        ]
        g1 = cv.build_retweet_graph(records, TOPIC_A, tau=2)
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        g2 = cv.build_retweet_graph(shuffled, TOPIC_A, tau=2)
        assert g1 == g2

    def test_larger_tau_gives_edge_subset(self):
        rng = random.Random(3)
        users = [f"u{i}" for i in range(8)]
        records = [
            rec(rng.choice(users), rng.choice(users), [rng.choice("ab")], ts=i)
            for i in range(120)
        ]
        records = [r for r in records if r.endorsed is not None]
        g2 = cv.build_retweet_graph(records, TOPIC_A, tau=2)
        g3 = cv.build_retweet_graph(records, TOPIC_A, tau=3)
        edges2 = {(u, v) for u, v, _ in tuple_graph(g2).undirected_edges}
        pairs3 = {
            (g3.ids[u], g3.ids[v]) for u, v, _ in tuple_graph(g3).undirected_edges
        }
        pairs2 = {(g2.ids[u], g2.ids[v]) for u, v in edges2}
        assert pairs3 <= pairs2

    def test_empty_records_give_empty_graph(self):
        g = cv.build_retweet_graph([], TOPIC_A, tau=2)
        assert g.n_vertices == 0 and g.n_edges == 0

    def test_records_without_endorsement_contribute_nothing(self):
        g = cv.build_retweet_graph([rec("u", None, ["a"])] * 3, TOPIC_A, tau=1)
        assert g.n_vertices == 0

    def test_off_topic_hashtags_ignored(self):
        records = [rec("u", "v", ["zzz"], ts=1), rec("u", "v", ["zzz"], ts=2)]
        assert cv.build_retweet_graph(records, TOPIC_A, tau=1).n_edges == 0


class TestFollowGraph:
    def test_basic_edge(self):
        g = cv.build_follow_graph([("a", "b")], {"a", "b"})
        assert g.n_edges == 1 and not g.directed

    def test_restricted_to_active_users(self):
        g = cv.build_follow_graph([("a", "b")], {"a"})
        assert g.n_vertices == 0

    def test_mutual_follows_weigh_two(self):
        g = cv.build_follow_graph([("a", "b"), ("b", "a")], {"a", "b"})
        assert tuple_graph(g).undirected_edges == ((0, 1, 2),)

    def test_duplicate_relations_deduplicated(self):
        g = cv.build_follow_graph([("a", "b"), ("a", "b")], {"a", "b"})
        assert tuple_graph(g).undirected_edges == ((0, 1, 1),)


class TestContentGraph:
    def test_shared_offtopic_hashtag(self):
        records = [rec("u", hashtags=["x"]), rec("v", hashtags=["x"])]
        g = cv.build_content_graph(records, TOPIC_A, "shared-hashtag")
        assert g.n_edges == 1

    def test_topic_tags_do_not_count(self):
        records = [rec("u", hashtags=["a"]), rec("v", hashtags=["a"])]
        g = cv.build_content_graph(records, TOPIC_A, "shared-hashtag")
        assert g.n_vertices == 0

    def test_domain_vs_url_modes(self):
        records = [
            rec("u", urls=["http://cnn.com/p1"]),
            rec("v", urls=["http://cnn.com/p2"]),
        ]
        by_domain = cv.build_content_graph(records, TOPIC_A, "shared-domain")
        by_url = cv.build_content_graph(records, TOPIC_A, "shared-url")
        assert by_domain.n_edges == 1
        assert by_url.n_edges == 0

    def test_unparseable_urls_warn_and_skip(self):
        records = [rec("u", urls=["::::"]), rec("v", urls=["::::"])]
        with pytest.warns(UserWarning, match="unparseable"):
            g = cv.build_content_graph(records, TOPIC_A, "shared-domain")
        assert g.n_vertices == 0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", CONTENT_MODES)
    def test_random_corpus_matches_the_loop(self, mode, seed):
        """Repeated posts, items only one user posted, and unparseable URLs
        (the same warning, with the same count)."""
        rng = random.Random(seed)
        urls = ["http://x.org/1", "x.org/2", "https://www.y.net/a", "z.com", "::::", "not a url",
                "http://x.org/1"]
        tags = ["a", "b", "c", "d", "e", "f"]
        records = [rec(f"u{rng.randrange(30)}", hashtags=rng.sample(tags, rng.randrange(4)),
                       urls=rng.sample(urls, rng.randrange(3)))
                   for _ in range(80)]
        records += records[:10]
        records.append(rec("loner", hashtags=["only-mine"], urls=["http://loner.io/x"]))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            g = cv.build_content_graph(records, TOPIC_A, mode)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            expected = loop_build_content_graph(records, TOPIC_A, mode)
        assert g == expected and g.n_edges > 0
        assert "loner" not in g.ids
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        assert bool(got) == (mode == "shared-domain")

    def test_no_shared_item_gives_an_empty_graph(self):
        records = [rec("u", hashtags=["x"], urls=["http://x.org/1"]),
                   rec("v", hashtags=["y"], urls=["http://y.org/1"])]
        for mode in CONTENT_MODES:
            g = cv.build_content_graph(records, TOPIC_A, mode)
            assert g.n_vertices == 0 and g == loop_build_content_graph(records, TOPIC_A, mode)
        assert cv.build_content_graph([], TOPIC_A, "shared-url").n_vertices == 0

    def test_domain_helper(self):
        assert url_domain("http://www.cnn.com/p1") == "cnn.com"
        assert url_domain("cnn.com/p1") == "cnn.com"
        assert url_domain("https://news.bbc.co.uk:8080/x") == "news.bbc.co.uk"
        assert url_domain("not a url") is None


class TestGraphStructure:
    def test_no_self_loops_or_duplicates(self):
        g = cv.ConversationGraph(["a", "b"], [(0, 0, 1), (0, 1, 1), (0, 1, 2)], False)
        assert tuple_graph(g).undirected_edges == ((0, 1, 3),)

    def test_undirected_view_merges_directions(self):
        g = cv.ConversationGraph(["a", "b"], [(0, 1, 2), (1, 0, 3)], True)
        tg = tuple_graph(g)
        assert tg.undirected_edges == ((0, 1, 5),)
        assert list(tg.neighbors(0)) == [1]
        assert list(tg.out_neighbors(1)) == [0]

    def test_undirected_view_is_symmetric(self):
        rng = np.random.default_rng(5)
        edges = [(int(a), int(b), 1) for a, b in rng.integers(0, 12, (40, 2)) if a != b]
        g = cv.ConversationGraph([str(i) for i in range(12)], edges, True)
        tg = tuple_graph(g)
        for u in range(12):
            for v in tg.neighbors(u):
                assert u in tg.neighbors(int(v))

    @pytest.mark.parametrize("directed", [True, False])
    def test_csr_key_sort_matches_lexsort(self, directed):
        # 600 arcs in random order over 30 vertices: many parallel duplicates
        rng = np.random.default_rng(11)
        src, dst = rng.integers(0, 30, (2, 600))
        w = rng.integers(1, 5, 600)
        if not directed:
            src, dst, w = np.concatenate((src, dst)), np.concatenate((dst, src)), np.tile(w, 2)
        csr = CSR.from_arcs(30, src, dst, w)
        assert len(csr.indices) < len(src)
        for got, want in zip(csr, lexsort_csr_arrays(30, src, dst, w)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_constructor_memory_per_edge(self):
        g = cv.planted_two_community(cv.PlantedConfig(4000, 0.01, 0.001, seed=1))[0]
        arcs = np.array(g.edge_array)
        tracemalloc.start()
        try:
            cv.ConversationGraph(g.ids, arcs, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * len(arcs)


class TestConstructorChecks:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(cv.InputDataError, match="duplicate user ids"):
            cv.ConversationGraph(["a", "b", "a"], [(0, 1, 1)], False)

    @pytest.mark.parametrize("directed", [False, True])
    def test_out_of_range_arc_rejected(self, directed):
        with pytest.raises(cv.InputDataError, match=r"arc \(1,2\) out of vertex range"):
            cv.ConversationGraph(["a", "b"], [(0, 1, 1), (1, 2, 1)], directed)
        with pytest.raises(cv.InputDataError, match="out of vertex range"):
            cv.ConversationGraph(["a", "b"], [(-1, 0, 1)], directed)

    def test_weighted_pairs_keep_their_weights(self):
        # the constructor's integer check applies; nothing is truncated first
        with pytest.raises(cv.InputDataError, match=r"non-integral entry in arc .*1\.5\)"):
            cv.graph_from_weighted_pairs([("a", "b", 1.5), ("b", "c", 2.9)], False)
        g = cv.graph_from_weighted_pairs([("a", "b", 2.0)], False)
        assert g.edge_array.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("weight", [0, -2])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(cv.InputDataError, match=r"non-positive weight on arc \(0,1\)"):
            cv.ConversationGraph(["a", "b"], [(0, 1, weight)], True)

    @pytest.mark.parametrize(
        "arc, shown",
        [
            ((0, 1, 1.5), r"\(0\.0,1\.0,1\.5\)"),  # once truncated to weight 1
            ((0.7, 1, 1), r"\(0\.7,1\.0,1\.0\)"),  # once read as vertex 0
            ((0, 1, 0.5), r"\(0\.0,1\.0,0\.5\)"),  # once reported as non-positive
            ((0, 1, float("nan")), r"\(0\.0,1\.0,nan\)"),  # once a bare ValueError
            ((0, 1, float("inf")), r"\(0\.0,1\.0,inf\)"),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_non_integral_arc_rejected(self, arc, shown, as_array):
        arcs = [(0, 1, 1), arc, (1, 0, 0.25)]
        with pytest.raises(cv.InputDataError, match="non-integral entry in arc " + shown):
            cv.ConversationGraph(["a", "b"], np.array(arcs) if as_array else arcs, True)

    @pytest.mark.parametrize(
        "arc, shown",
        [
            ((0, 1, 1e30), r"\(0\.0,1\.0,1e\+30\)"),  # once a non-positive weight
            ((1e30, 1, 1), r"\(1e\+30,1\.0,1\.0\)"),  # once vertex -2**63
            ((0, -1e30, 1), r"\(0\.0,-1e\+30,1\.0\)"),
            ((0, 1, 2.0**63), r"\(0\.0,1\.0,9\.223372036854776e\+18\)"),
            # unsigned: once weight -1 and vertex -2**63, with no warning
            (np.uint64([0, 1, 2**64 - 1]), r"\(0,1,18446744073709551615\)"),
            (np.uint64([0, 2**63, 1]), r"\(0,9223372036854775808,1\)"),
        ],
    )
    @pytest.mark.parametrize("as_array", [False, True])
    def test_out_of_int64_range_arc_rejected(self, arc, shown, as_array):
        # the valid row takes the bad row's dtype, so uint64 input stays uint64
        arcs = [np.asarray((0, 1, 1), dtype=np.asarray(arc).dtype), arc]
        with pytest.raises(cv.InputDataError, match="out-of-int64-range entry in arc " + shown):
            cv.ConversationGraph(["a", "b"], np.array(arcs) if as_array else arcs, True)

    def test_integral_floats_accepted(self):
        ids = ["a", "b", "c"]
        want = cv.ConversationGraph(ids, [(0, 1, 2), (2, 1, 1)], True)
        assert cv.ConversationGraph(ids, [(0.0, 1, 2.0), (2, 1.0, 1)], True) == want
        assert cv.ConversationGraph(ids, np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 1.0]]), True) == want

    def test_first_bad_arc_is_reported(self):
        with pytest.raises(cv.InputDataError, match="non-positive weight"):
            cv.ConversationGraph(["a", "b"], [(0, 1, 0), (0, 5, 1)], False)
        # a self-loop is dropped before it is checked
        g = cv.ConversationGraph(["a", "b"], [(7, 7, 1), (1, 1, -1), (0, 1, 1)], False)
        assert tuple_graph(g).arcs == ((0, 1, 1),)

    def test_self_loops_dropped_and_parallel_arcs_sum_directed(self):
        g = cv.ConversationGraph(
            ["a", "b", "c"], [(1, 1, 4), (0, 1, 1), (0, 1, 2), (1, 0, 5), (2, 1, 1)], True
        )
        tg = tuple_graph(g)
        assert tg.arcs == ((0, 1, 3), (1, 0, 5), (2, 1, 1))
        assert tg.undirected_edges == ((0, 1, 8), (1, 2, 1))
        assert list(tg.out_neighbors(0)) == [1] and list(tg.out_neighbors(2)) == [1]
        assert list(g.degrees) == [1, 2, 1]

    def test_self_loops_dropped_and_parallel_arcs_sum_undirected(self):
        g = cv.ConversationGraph(["a", "b", "c"], [(2, 2, 1), (1, 0, 2), (0, 1, 3), (2, 0, 1)], False)
        tg = tuple_graph(g)
        assert tg.arcs == tg.undirected_edges == ((0, 1, 5), (0, 2, 1))
        assert list(tg.neighbors(0)) == [1, 2]
        assert list(tg.out_neighbors(0)) == [1, 2]

    @pytest.mark.parametrize("directed", [False, True])
    def test_array_input_builds_the_same_graph(self, directed):
        rng = np.random.default_rng(3)
        triples = [
            (int(a), int(b), int(w))
            for a, b, w in zip(rng.integers(0, 9, 40), rng.integers(0, 9, 40), rng.integers(1, 4, 40))
        ]
        ids = [f"u{i}" for i in range(9)]
        from_list = cv.ConversationGraph(ids, triples, directed)
        from_array = cv.ConversationGraph(ids, np.array(triples, dtype=np.int64), directed)
        assert from_array == from_list
        assert hash(from_array) == hash(from_list)
        assert tuple_graph(from_array).arcs == tuple_graph(from_list).arcs
        empty = cv.ConversationGraph(ids, np.empty((0, 3), dtype=np.int64), directed)
        assert empty == cv.ConversationGraph(ids, [], directed)


class TestLargestComponent:
    def test_picks_the_biggest(self):
        # two triangles and a pentagon
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                 (6, 7), (7, 8), (8, 9), (9, 10), (10, 6)]
        g = make_graph(11, edges)
        sub = cv.largest_component(g)
        assert sub.n_vertices == 5
        assert set(sub.ids) == {"6", "7", "8", "9", "10"}

    def test_connected_graph_unchanged(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert cv.largest_component(g) == g

    def test_tie_broken_by_smallest_vertex_index(self):
        edges = [(0, 1), (1, 2), (3, 4), (4, 5)]
        g = make_graph(6, edges)
        sub = cv.largest_component(g)
        assert set(sub.ids) == {"0", "1", "2"}
        # the winner need not hold vertex 0, and the component listed
        # first loses to a larger one
        g = make_graph(8, [(5, 6), (6, 7), (1, 4), (4, 2), (0, 3)])
        assert cv.largest_component(g).ids == ("1", "2", "4")
        g = make_graph(7, [(0, 1), (2, 3), (3, 4)])
        assert cv.largest_component(g).ids == ("2", "3", "4")

    def test_empty_graph(self):
        g = cv.ConversationGraph([], [], False)
        assert cv.largest_component(g).n_vertices == 0

    @pytest.mark.parametrize("directed", [False, True])
    def test_component_labels_match_networkx(self, directed):
        import networkx as nx

        rng = np.random.default_rng(5)
        n = 400
        arcs = [(int(a), int(b), 1) for a, b in rng.integers(0, n, (300, 2)) if a != b]
        g = cv.ConversationGraph([str(i) for i in range(n)], arcs, directed)
        labels = g.component_labels
        ours = {frozenset(np.flatnonzero(labels == label).tolist()) for label in set(labels)}
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(n))
        nx_graph.add_edges_from((a, b) for a, b, _ in arcs)
        theirs = set(map(frozenset, nx.connected_components(nx_graph)))
        assert len(theirs) > 50 and ours == theirs

    def test_result_is_connected_and_maximal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            edges = {
                (int(a), int(b))
                for a, b in rng.integers(0, n, (n, 2))
                if a != b
            }
            g = make_graph(n, sorted(edges))
            sub = cv.largest_component(g)
            comps = connected_components(g)
            assert sub.n_vertices == max(len(c) for c in comps)
            assert len(connected_components(sub)) <= 1


class TestFileFormats:
    def test_edgelist_round_trip_bit_exact(self, tmp_path):
        g = make_graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        cv.write_edgelist(g, first)
        g2 = cv.read_edgelist(first)
        cv.write_edgelist(g2, second)
        assert first.read_bytes() == second.read_bytes()
        assert g2 == g

    @pytest.mark.parametrize(
        "ids, arcs, directed",
        [
            # ids in index order, but "10" < "2" as strings
            ([str(i) for i in range(12)], [(i, (3 * i + 1) % 12, 1 + i % 3) for i in range(12)], False),
            ([str(i) for i in range(12)], [(i, (3 * i + 1) % 12, 1 + i % 3) for i in range(12)], True),
            # ids passed out of sorted order
            (["m", "b", "z", "a", "k"], [(0, 1, 1), (2, 3, 2), (4, 0, 1), (3, 1, 5), (1, 2, 1)], False),
            (["m", "b", "z", "a", "k"], [(0, 1, 1), (2, 3, 2), (4, 0, 1), (3, 1, 5), (1, 2, 1)], True),
            # reciprocal arcs stay two rows in a directed graph
            (["b", "a", "c"], [(0, 1, 2), (1, 0, 3), (2, 0, 1), (0, 2, 1)], True),
            # non-ASCII ids sort by code point
            (["é", "z", "日本", "Zoë", "ß", "a"], [(0, 1, 1), (2, 3, 1), (4, 5, 2), (5, 0, 1), (3, 4, 1)], False),
            (["é", "z", "日本", "Zoë", "ß", "a"], [(0, 1, 1), (2, 3, 1), (4, 5, 2), (5, 0, 1), (3, 4, 1)], True),
            (["x", "y"], [], False),
        ],
    )
    def test_edgelist_matches_tuple_loop_oracle(self, tmp_path, ids, arcs, directed):
        g = cv.ConversationGraph(ids, arcs, directed)
        cv.write_edgelist(g, tmp_path / "fast.tsv")
        loop_write_edgelist(g, tmp_path / "loop.tsv")
        assert (tmp_path / "fast.tsv").read_bytes() == (tmp_path / "loop.tsv").read_bytes()

    def test_directed_round_trip(self, tmp_path):
        g = cv.ConversationGraph(["a", "b", "c"], [(0, 1, 2), (1, 0, 1), (2, 1, 1)], True)
        path = tmp_path / "d.tsv"
        cv.write_edgelist(g, path)
        assert cv.read_edgelist(path, directed=True) == g

    def test_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("# header\na\tb\nb\tc\t4\n")
        g = cv.read_edgelist(path)
        assert g.n_edges == 2
        assert ("a", "b", 1) in [(g.ids[u], g.ids[v], w) for u, v, w in g.edge_array.tolist()]

    def test_bad_edgelist_rows(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\n")
        with pytest.raises(cv.InputDataError, match="columns"):
            cv.read_edgelist(path)
        path.write_text("a\tb\tx\n")
        with pytest.raises(cv.InputDataError, match="weight"):
            cv.read_edgelist(path)

    def test_records_jsonl(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rows = [
            {"author": "U", "endorsed": "v", "hashtags": ["#A"], "urls": [], "ts": 1},
            {"author": "u", "endorsed": "v", "hashtags": ["a"], "urls": [], "ts": 1},
            {"author": "w", "endorsed": None, "hashtags": [], "urls": ["x.org/1"], "ts": 2},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = cv.read_records(path)
        assert len(records) == 2  # normalized duplicate dropped
        assert records[0].author == "u"

    def test_records_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"author": "u"}\nnot json\n')
        with pytest.raises(cv.InputDataError, match=":2"):
            cv.read_records(path)

    def test_follow_edges_reader(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("# who follows whom\na\tb\nc\td\n")
        assert cv.read_follow_edges(path) == [("a", "b"), ("c", "d")]


def assert_sliced_like_rebuilt(g, vertices):
    """``induced_subgraph`` against the rebuilt form: equal graphs with
    equal CSR arrays and dtypes in both views."""
    sub, ref = cv.induced_subgraph(g, vertices), rebuilt_induced_subgraph(g, vertices)
    assert sub == ref and sub.ids == ref.ids and sub.directed == ref.directed
    for view in ("csr", "out_csr"):
        for got, want in zip(getattr(sub, view), getattr(ref, view)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
    assert (sub.out_csr is sub.csr) == (not sub.directed)
    assert [sub.index_of(u) for u in sub.ids] == list(range(sub.n_vertices))
    return sub


class TestInducedSubgraph:
    def test_karate_subsets(self, karate):
        g = karate[0]
        rng = np.random.default_rng(3)
        # vertex 0 and a vertex it does not touch: two isolated vertices
        apart = [0, int(np.setdiff1d(np.arange(1, g.n_vertices), g.csr.indices[: g.csr.indptr[1]])[0])]
        subsets = [[], [5], range(g.n_vertices), apart, apart + [1, 2, 33]]
        subsets += [rng.choice(g.n_vertices, size, replace=False) for size in (3, 10, 20, 30)]
        for vertices in subsets:
            assert_sliced_like_rebuilt(g, vertices)
        assert assert_sliced_like_rebuilt(g, apart).n_edges == 0

    @pytest.mark.parametrize("directed", [False, True])
    def test_random_subsets(self, directed):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            arcs = np.column_stack((rng.integers(0, n, (3 * n, 2)), rng.integers(1, 4, 3 * n)))
            g = cv.ConversationGraph([f"v{i}" for i in range(n)], arcs, directed)
            for size in (0, 1, n // 2, n):
                assert_sliced_like_rebuilt(g, rng.choice(n, size, replace=False))

    @pytest.mark.parametrize("vertices, bad", [([-1, -2], -1), ([0, 34], 34),
                                               (np.array([3, 40, -5]), 40)])
    def test_index_outside_the_graph_rejected(self, karate, vertices, bad):
        with pytest.raises(ValueError, match=rf"^vertex index {bad} out of range \[0, 34\)$"):
            cv.induced_subgraph(karate[0], vertices)

    def test_largest_component_is_the_slice(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        g = make_graph(7, edges, directed=True)
        sub = cv.largest_component(g)
        assert sub == assert_sliced_like_rebuilt(g, [3, 4, 5, 6])
        assert sub.directed and sub.ids == ("3", "4", "5", "6")
