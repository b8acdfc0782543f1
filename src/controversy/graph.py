"""Conversation graphs: build, load and normalize interaction networks.

A conversation graph has one vertex per user active on a topic and one
edge per endorsement-style relation (repeated retweets, follow links,
shared content). Directed arc records are kept alongside an undirected
view so that both walk flavours can be computed from the same object.
"""
from __future__ import annotations

import csv
import json
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple
from urllib.parse import urlparse

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import InputDataError


def normalize_tag(tag: str) -> str:
    """Lowercase a hashtag and strip one leading '#'."""
    tag = tag.strip().lower()
    return tag[1:] if tag.startswith("#") else tag


def _user_id(raw) -> str:
    """Strip and lowercase a user id; reject one that no edge list or
    partition file could carry: a leading '#' (that line is a comment
    there), a tab, a line break or a lone surrogate (no UTF-8 text)."""
    uid = str(raw).strip().lower()
    if uid.startswith("#") or "\t" in uid or "\r" in uid or "\n" in uid:
        raise InputDataError(f"user id {uid!r} starts with '#' or holds a tab or line break")
    if not uid.isascii() and uid.encode("utf-8", "ignore").decode() != uid:
        raise InputDataError(f"user id {uid!r} is not valid Unicode text")
    return uid


def read_lines(path, comments=False):
    """Yield ``(lineno, line)`` for every non-blank line of the UTF-8 file
    ``path``, without its line break (LF, CRLF or CR) or a leading BOM.
    With ``comments``, lines whose first non-blank character is '#' are
    skipped too. A byte that is not UTF-8 raises ``InputDataError("path:lineno: ...")``."""
    # decoding never fails here: a bad byte becomes a lone surrogate,
    # which no valid line holds, so only non-ASCII lines need a check
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InputDataError(f"{path}:{lineno}: {exc}") from None
            line = line.rstrip("\n")
            if not line or line.isspace() or comments and line.lstrip().startswith("#"):
                continue
            yield lineno, line


def read_rows(path, parse, comments=False, what=None):
    """Yield ``parse(line)`` for every line :func:`read_lines` yields. The
    one place a bad line becomes ``InputDataError("path:lineno: ...")``,
    its text wrapped as ``what (...)`` when ``what`` is given."""
    for lineno, line in read_lines(path, comments):
        try:
            row = parse(line)
        except (InputDataError, ValueError, KeyError, TypeError, RecursionError, csv.Error) as exc:
            text = f"{what} ({exc})" if what else exc
            raise InputDataError(f"{path}:{lineno}: {text}") from exc
        yield row


def _json_object(line, scan=json.JSONDecoder().scan_once) -> dict:
    """The one JSON object that fills the stripped ``line`` (``raw_decode``'s scanner and text)."""
    line = line.strip()
    try:
        obj, end = scan(line, 0)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if type(obj) is not dict:
        raise InputDataError(f"not a JSON object: {line[:40]!r}")
    return obj


def _number(text, kind, what):
    """``kind(text)`` (int or float); a ValueError names ``what`` and ``text``."""
    try:
        return kind(text)
    except ValueError:
        raise InputDataError(f"bad {what} {text!r}") from None


_NO_URLS = frozenset()


def _strings(values, field) -> tuple:
    """A list (or tuple) of strings as a tuple; None counts as empty."""
    if isinstance(values, (list, tuple)):
        if all(isinstance(v, str) for v in values):
            return tuple(values)
    elif values is None:
        return ()
    raise InputDataError(f"{field} must be a list of strings, got {values!r}")


def _tag_set(tags: tuple) -> frozenset:
    """The normalized, non-empty tags of one post."""
    return frozenset(filter(None, map(normalize_tag, tags)))


def _url_set(urls: tuple) -> frozenset:
    """The stripped, non-empty URLs of one post (one shared empty set)."""
    return frozenset(filter(None, map(str.strip, urls))) or _NO_URLS


class _Memo(dict):
    """Normalized values of one file, pair list or record list keyed by
    raw value, so that repeats share one object and are normalized once:
    an id is hashed and compared as one string, and shared tag sets are
    fewer objects for the garbage collector to walk. A miss costs more than
    normalizing afresh, so where a memo :attr:`mostly_misses` after
    ``PROBE`` records, :func:`read_records` and :func:`build_retweet_graph`
    stop using it: they normalize afresh and store nothing."""

    PROBE = 2048

    def __init__(self, normalize):
        super().__init__()
        self.normalize = normalize

    def __missing__(self, raw):
        found = self[raw] = self.normalize(raw)
        return found

    @property
    def mostly_misses(self):
        return len(self) > self.PROBE // 2


def _id(raw, ids):
    """``_user_id`` through the memo ``ids``, for str ids only: 1, True and
    1.0 are equal keys but the ids "1", "true" and "1.0"."""
    return ids[raw] if type(raw) is str else _user_id(raw)


def _record_maker(ids=None, tag_sets=None, url_sets=None):
    """:meth:`InteractionRecord.make`, checking author, endorsed, hashtags,
    urls and ts in turn, through the memos given (None: normalize afresh).
    Only str ids (see :func:`_id`) and all-str lists, keyed by their tuple,
    fill a memo; no other JSON value equals one, so only a miss needs
    :func:`_strings`' check."""
    new, cls = tuple.__new__, InteractionRecord

    def record(author, endorsed, hashtags, urls, ts):
        author = ids[author] if type(author) is str and ids is not None else _user_id(author)
        if not author:
            raise InputDataError("record with empty author")
        if endorsed is not None:
            endorsed = (ids[endorsed] if type(endorsed) is str and ids is not None
                        else _user_id(endorsed))
            if not endorsed or endorsed == author:
                endorsed = None
        if tag_sets is None:
            tags = _tag_set(_strings(hashtags, "hashtags"))
        else:
            try:
                tags = tag_sets.get(tuple(hashtags) if type(hashtags) is list else hashtags)
            except TypeError:
                tags = None
            if tags is None:
                tags = tag_sets[_strings(hashtags, "hashtags")]
        if url_sets is None:
            links = _url_set(_strings(urls, "urls"))
        else:
            try:
                links = url_sets.get(tuple(urls) if type(urls) is list else urls)
            except TypeError:
                links = None
            if links is None:
                links = url_sets[_strings(urls, "urls")]
        if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)):
            raise InputDataError(f"ts must be an integer, got {ts!r}")
        return new(cls, (author, endorsed, tags, links, ts or 0))

    return record


class InteractionRecord(NamedTuple):
    """One post event: who wrote it, whom it endorsed, and its metadata.
    A tuple, so it compares equal to the plain 5-tuple of its fields."""

    author: str
    endorsed: str | None
    hashtags: frozenset[str]
    urls: frozenset[str]
    timestamp: int

    @classmethod
    def make(cls, author, endorsed=None, hashtags=(), urls=(), timestamp=0):
        """Build a normalized record.

        User ids are lowercased, hashtags lose their leading '#', and a
        self-endorsement is dropped (treated as no endorsement at all).
        ``hashtags`` and ``urls`` are lists of strings and ``timestamp``
        an integer; None stands for an absent field.
        """
        return _record_maker()(author, endorsed, hashtags, urls, timestamp)


@dataclass(frozen=True)
class Topic:
    """A seed hashtag plus the related hashtags that define a discussion."""

    seed: str
    members: tuple[str, ...]

    @classmethod
    def make(cls, seed, members=()):
        seed = normalize_tag(seed)
        if not seed:
            raise InputDataError("topic seed is empty")
        ordered = [seed]
        for tag in members:
            tag = normalize_tag(tag)
            if tag and tag not in ordered:
                ordered.append(tag)
        return cls(seed=seed, members=tuple(ordered))


class CSR(NamedTuple):
    """Compressed sparse rows: the neighbours of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]`` (ascending), with arc weights
    ``weights`` in the same slots."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_arcs(cls, n, src, dst, w):
        """Sort the arcs by (src, dst) and sum the weights of parallel arcs,
        through scipy's COO -> CSR conversion (the integer weight sums do
        not see the order among parallel arcs)."""
        m = sp.coo_matrix((w, (src, dst)), shape=(n, n)).tocsr()
        return cls(*map(_frozen, (m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data)))

    @property
    def rows(self):
        """Source vertex of every stored arc."""
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    def matrix(self, weighted=True):
        """The n x n scipy matrix (unit entries when not ``weighted``)."""
        n = len(self.indptr) - 1
        data = self.weights.astype(float) if weighted else np.ones(len(self.indices))
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


class ConversationGraph:
    """Immutable graph over dense vertex indices 0..n-1.

    ``ids[i]`` is the user id of vertex ``i``, under the rule every reader
    applies (stripped and lowercased; a leading '#', a tab or a line break
    is rejected), so that every id can be written and read back. ``arcs``
    may be a list of (src, dst, weight) triples or an (m, 3) array; every
    entry must be integral (2.0 is accepted, 1.5 and NaN are not). Self-loops are
    dropped and parallel arcs sum. The graph is stored once as CSR:
    ``out_csr`` holds the directed view and ``csr`` the undirected view,
    which merges both arc directions and sums their weights (for an
    undirected graph the two are the same object). Instances never
    mutate after construction and are safe to share across threads.
    """

    def __init__(self, ids, arcs, directed):
        ids = tuple(map(_user_id, ids))
        if len(set(ids)) != len(ids):
            raise InputDataError("duplicate user ids in vertex list")
        n = len(ids)
        arcs = np.asarray(arcs if isinstance(arcs, np.ndarray) else list(arcs)).reshape(-1, 3)
        if arcs.dtype.kind != "i":
            # |x| >= 2**63 would wrap in the int64 cast below
            if arcs.dtype.kind == "u":
                huge = (arcs >= np.uint64(2**63)).any(axis=1)
                fractional = np.zeros_like(huge)
            else:
                arcs = arcs.astype(float)
                with np.errstate(invalid="ignore"):
                    fractional = (arcs % 1.0 != 0.0).any(axis=1)
                huge = (np.abs(arcs) >= 2.0**63).any(axis=1)
            bad = np.flatnonzero(fractional | huge)
            if len(bad):
                i = bad[0]
                shown = ",".join(map(str, arcs[i].tolist()))
                fault = "non-integral" if fractional[i] else "out-of-int64-range"
                raise InputDataError(f"{fault} entry in arc ({shown})")
        src, dst, w = arcs.astype(np.int64, copy=False).T
        kept = src != dst
        src, dst, w = src[kept], dst[kept], w[kept]
        out_of_range = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        bad = np.flatnonzero(out_of_range | (w <= 0))
        if len(bad):
            i = bad[0]
            if out_of_range[i]:
                raise InputDataError(f"arc ({src[i]},{dst[i]}) out of vertex range")
            raise InputDataError(f"non-positive weight on arc ({src[i]},{dst[i]})")
        both = np.concatenate((src, dst)), np.concatenate((dst, src)), np.concatenate((w, w))
        csr = CSR.from_arcs(n, *both)
        directed = bool(directed)
        self._assign(ids, directed, csr, CSR.from_arcs(n, src, dst, w) if directed else csr)

    def _assign(self, ids, directed, csr, out_csr):
        """Set every field from checked ids and CSR arrays (``out_csr`` is
        ``csr`` for an undirected graph); the one place a graph gets them."""
        self._ids = ids
        self.directed = directed
        self.csr = csr
        self.out_csr = out_csr
        return self

    # -- basic accessors ------------------------------------------------

    @property
    def ids(self):
        return self._ids

    @property
    def n_vertices(self):
        return len(self._ids)

    @cached_property
    def arc_array(self):
        """(m, 3) array of the stored (src, dst, weight) arcs, sorted; an
        undirected graph stores each edge once with src < dst."""
        if not self.directed:
            return self.edge_array
        csr = self.out_csr
        return _frozen(np.column_stack((csr.rows, csr.indices, csr.weights)))

    @cached_property
    def _index(self):
        """Vertex index of every id, built on the first :meth:`index_of`."""
        return {u: i for i, u in enumerate(self._ids)}

    def index_of(self, user_id):
        try:
            return self._index[_user_id(user_id)]
        except KeyError:
            raise InputDataError(f"unknown user id: {user_id!r}") from None

    def __eq__(self, other):
        if not isinstance(other, ConversationGraph):
            return NotImplemented
        return (
            self._ids == other._ids
            and self.directed == other.directed
            and np.array_equal(self.arc_array, other.arc_array)
        )

    def __hash__(self):
        return hash((self._ids, self.directed, self.arc_array.tobytes()))

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return (
            f"ConversationGraph({self.n_vertices} vertices, "
            f"{self.n_edges} edges, {kind})"
        )

    # -- undirected view --------------------------------------------------

    @cached_property
    def edge_array(self):
        """(m, 3) array of the undirected (u, v, weight) edges with u < v,
        sorted; weight sums both arc directions."""
        csr = self.csr
        rows = csr.rows
        upper = csr.indices > rows
        return _frozen(np.column_stack((rows[upper], csr.indices[upper], csr.weights[upper])))

    @property
    def n_edges(self):
        return len(self.csr.indices) // 2

    @cached_property
    def degrees(self):
        """Undirected degree (neighbor count) per vertex."""
        return _frozen(np.diff(self.csr.indptr))

    @cached_property
    def component_labels(self):
        """Connected-component label of every vertex (undirected view)."""
        # strong components of the symmetric CSR are its components, and
        # directed=False would build the transpose again on every call
        return csgraph.connected_components(self.csr.matrix(), connection="strong")[1]


def _frozen(a):
    a.setflags(write=False)
    return a


# -- construction helpers ----------------------------------------------


def graph_from_weighted_pairs(pairs, directed):
    """Build a graph from (src_id, dst_id, weight) triples.

    Vertex indices follow the lexicographic order of the user ids, so the
    same edge set always produces the same graph no matter the input order.
    """
    memo = _Memo(_user_id)
    pairs = [(_id(a, memo), _id(b, memo), w) for a, b, w in pairs]
    pairs = [(a, b, w) for a, b, w in pairs if a != b]
    ids = sorted({a for a, _, _ in pairs} | {b for _, b, _ in pairs})
    index = {u: i for i, u in enumerate(ids)}
    return ConversationGraph(
        ids, [(index[a], index[b], w) for a, b, w in pairs], directed
    )


def build_retweet_graph(records, topic, tau=2):
    """Endorsement graph from retweet events, thresholded per hashtag.

    A pair of users becomes an edge only if, for at least one single
    hashtag of the topic, they exchanged >= tau retweets (pooling both
    directions). Arc weights count the events per direction across all
    topic hashtags, one count per record. Users with no qualifying edge
    are omitted.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    from itertools import islice
    members = set(topic.members)
    # once per distinct tag set (read_records shares repeated ones), unless they mostly differ
    on_topic = _Memo(lambda tags: tuple(tags & members))
    records, events = iter(records), []
    for part in (islice(records, _Memo.PROBE), records):
        fresh = on_topic.mostly_misses
        events += [(src, dst, topical) for src, dst, tags, _, _ in part if dst is not None and
                   (topical := on_topic.normalize(tags) if fresh else on_topic[tags])]
    directed_counts = Counter((src, dst) for src, dst, _ in events)
    per_tag = Counter((tag, (src, dst) if src < dst else (dst, src))
                      for src, dst, topical in events for tag in topical)
    qualifying = {pair for (_, pair), c in per_tag.items() if c >= tau}
    pairs = [
        (src, dst, w)
        for (src, dst), w in directed_counts.items()
        if ((src, dst) if src < dst else (dst, src)) in qualifying
    ]
    return graph_from_weighted_pairs(pairs, directed=True)


def build_follow_graph(follow_edges, active_users):
    """Undirected follow graph restricted to users active on the topic.

    Edge weight is the number of directed follow relations between the
    pair (1 or 2 after deduplication)."""
    active = set(map(_user_id, active_users))
    relations = {(a, b) for a, b in (map(_user_id, edge) for edge in follow_edges)
                 if a != b and a in active and b in active}
    return graph_from_weighted_pairs([(a, b, 1) for a, b in relations], directed=False)


def url_domain(url):
    """Host part of a URL with a leading 'www.' stripped; None if unparseable."""
    url = url.strip()
    if not url:
        return None
    if "//" not in url:
        url = "http://" + url
    host = urlparse(url).netloc.split("@")[-1].split(":")[0].lower()
    if not host or "." not in host:
        return None
    return host[4:] if host.startswith("www.") else host


CONTENT_MODES = ("shared-hashtag", "shared-url", "shared-domain")


def build_content_graph(records, topic, mode):
    """Connect users who posted at least one identical content item.

    ``mode`` selects the item kind: a hashtag outside the topic, an exact
    URL, or a URL domain. Edge weight counts distinct shared items: the
    strict upper triangle of B B^T for the users x items 0/1 incidence
    matrix B. Users who share no item are omitted.
    """
    if mode not in CONTENT_MODES:
        raise ValueError(f"mode must be one of {CONTENT_MODES}")
    members = set(topic.members)
    posted = set()  # distinct (author, item) pairs
    skipped = 0
    for rec in records:
        if mode == "shared-hashtag":
            items = rec.hashtags - members
        elif mode == "shared-url":
            items = rec.urls
        else:
            items = list(map(url_domain, rec.urls))
            skipped += items.count(None)
        posted.update((rec.author, item) for item in items if item is not None)
    if skipped:
        warnings.warn(f"skipped {skipped} unparseable urls", stacklevel=2)
    users = sorted({author for author, _ in posted})
    user_row, item_col = {u: i for i, u in enumerate(users)}, {}
    rows = [user_row[author] for author, _ in posted]
    cols = [item_col.setdefault(item, len(item_col)) for _, item in posted]
    b = sp.csr_matrix((np.ones(len(posted), dtype=np.int64), (rows, cols)),
                      shape=(len(users), len(item_col)))
    shared = sp.triu(b @ b.T, k=1).tocoo()
    arcs = np.column_stack((shared.row, shared.col, shared.data))
    g = ConversationGraph(users, arcs, directed=False)
    return induced_subgraph(g, np.flatnonzero(g.degrees))


def induced_subgraph(g, vertices):
    """Subgraph on the given vertex indices, reindexed in ascending order.

    Slices the parent's CSR rows and relabels the neighbours kept through
    the monotone index map, so every row stays sorted and nothing is
    re-sorted or re-checked. Raises ValueError naming the first index
    outside [0, n)."""
    keep = np.unique(_vertex_indices(g, vertices, "vertex"))
    new_index = np.full(g.n_vertices, -1, dtype=np.int64)
    new_index[keep] = np.arange(len(keep))
    csr = _induced_csr(g.csr, new_index, len(keep))
    out_csr = _induced_csr(g.out_csr, new_index, len(keep)) if g.directed else csr
    ids = tuple(g.ids[v] for v in keep.tolist())
    return ConversationGraph.__new__(ConversationGraph)._assign(ids, g.directed, csr, out_csr)


def _vertex_indices(g, vertices, what) -> np.ndarray:
    """``vertices`` (an array or any iterable of ints) as an int64 index
    array; raises ValueError naming the first one outside [0, n)."""
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
    found = np.asarray(vertices, dtype=np.int64).reshape(-1)
    bad = found[(found < 0) | (found >= g.n_vertices)]
    if bad.size:
        raise ValueError(f"{what} index {bad[0]} out of range [0, {g.n_vertices})")
    return found


def _induced_csr(csr, new_index, n):
    """The arcs of ``csr`` between kept vertices (``new_index`` >= 0),
    relabelled through ``new_index`` into an n-vertex CSR."""
    rows, cols = new_index[csr.rows], new_index[csr.indices]
    inside = (rows >= 0) & (cols >= 0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[inside], minlength=n), out=indptr[1:])
    return CSR(*map(_frozen, (indptr, cols[inside], csr.weights[inside])))


def largest_component(g):
    """Induced subgraph on the largest connected component.

    Ties between equal-size components go to the one containing the
    smallest vertex index. Empty graphs pass through unchanged.
    """
    if g.n_vertices == 0:
        return g
    labels = g.component_labels
    _, smallest, sizes = np.unique(labels, return_index=True, return_counts=True)
    best = np.lexsort((smallest, -sizes))[0]
    if sizes[best] == g.n_vertices:
        return g
    return induced_subgraph(g, np.flatnonzero(labels == best))


# -- file formats -------------------------------------------------------


def read_records(path):
    """Read interaction records from a JSON-lines file.

    Expected object shape per line:
    ``{"author": str, "endorsed": str|null, "hashtags": [str],
    "urls": [str], "ts": int}``. Exact duplicate records are dropped.
    """
    memos = _Memo(_user_id), _Memo(_tag_set), _Memo(_url_set)
    record = _record_maker(*memos)

    def parse(line):
        obj = _json_object(line)
        return record(obj["author"], obj.get("endorsed"), obj.get("hashtags"), obj.get("urls"),
                      obj.get("ts"))

    records = {}  # insertion-ordered set
    for rec in read_rows(path, parse, what="bad record"):
        records[rec] = None
        if len(records) == _Memo.PROBE:
            record = _record_maker(*(None if memo.mostly_misses else memo for memo in memos))
    return list(records)


def read_edgelist(path, directed=False):
    """Read a TSV edge list: ``src<TAB>dst<TAB>weight`` (weight optional,
    default 1, at least 1). Lines starting with '#' are ignored."""
    ids = _Memo(_user_id)

    def parse(line):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise InputDataError("expected 2 or 3 columns")
        src, dst = ids[parts[0]], ids[parts[1]]
        if not src or not dst:
            raise InputDataError("empty vertex id")
        w = _number(parts[2], int, "weight") if len(parts) == 3 else 1
        if w < 1:
            raise InputDataError(f"non-positive weight {w}")
        return src, dst, w

    return graph_from_weighted_pairs(list(read_rows(path, parse, comments=True)), directed)


def write_edgelist(g, path):
    """Write the canonical sorted edge list (ascending src id, then dst id).

    Round-trips bit-exactly through :func:`read_edgelist` for graphs of
    the matching directedness.
    """
    by_id = sorted(range(g.n_vertices), key=g.ids.__getitem__)
    rank = np.empty(g.n_vertices, dtype=np.int64)
    rank[by_id] = np.arange(g.n_vertices)
    arcs = g.arc_array
    src, dst = rank[arcs[:, 0]], rank[arcs[:, 1]]
    if not g.directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    # ids are unique, so (src id, dst id) order is (rank, rank) order
    order = np.argsort(src * g.n_vertices + dst)
    ids = [g.ids[v] for v in by_id]
    rows = zip(src[order].tolist(), dst[order].tolist(), arcs[order, 2].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{ids[a]}\t{ids[b]}\t{w}\n" for a, b, w in rows))


def read_follow_edges(path):
    """Read follower<TAB>followee pairs; '#' comment lines ignored."""
    def parse(line):
        edge = tuple(map(_user_id, line.split("\t")))
        if len(edge) != 2 or not all(edge):
            raise InputDataError("expected follower<TAB>followee")
        return edge

    return list(read_rows(path, parse, comments=True))
