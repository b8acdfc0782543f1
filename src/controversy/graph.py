"""Conversation graphs: build, load and normalize interaction networks.

A conversation graph has one vertex per user active on a topic and one
edge per endorsement-style relation (repeated retweets, follow links,
shared content). Directed arc records are kept alongside an undirected
view so that both walk flavours can be computed from the same object.
"""
from __future__ import annotations

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
    there), a tab or a line break."""
    uid = str(raw).strip().lower()
    if uid.startswith("#") or "\t" in uid or "\r" in uid or "\n" in uid:
        raise InputDataError(f"user id {uid!r} starts with '#' or holds a tab or line break")
    return uid


def read_lines(path, comments=False):
    """Yield ``(lineno, line)`` for every non-blank line of the UTF-8 file
    ``path``, without its line break (universal newlines: LF, CRLF or CR).
    With ``comments``, lines whose first non-blank character is '#' are
    skipped too. A byte that is not UTF-8 raises ``InputDataError("path:lineno: ...")``."""
    # decoding never fails here: a bad byte becomes a lone surrogate,
    # which no valid line holds, so only non-ASCII lines need a check
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
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


class _Memo(dict):
    """Normalized values of one file or one pair list keyed by raw value,
    so that repeats of a value share one object and are normalized once:
    an id is hashed and compared as one string, and shared tag sets are
    fewer objects for the garbage collector to walk. A miss costs more
    than normalizing afresh, so :func:`read_records` drops a memo that
    holds more than ``PROBE / 2`` values after ``PROBE`` records."""

    PROBE = 2048

    def __init__(self, normalize):
        super().__init__()
        self.normalize = normalize

    def __missing__(self, raw):
        found = self[raw] = self.normalize(raw)
        return found


def _id(raw, ids):
    """``_user_id`` through the memo ``ids``, for str ids only: 1, True and
    1.0 are equal keys but the ids "1", "true" and "1.0"."""
    return ids[raw] if ids is not None and type(raw) is str else _user_id(raw)


def _timestamp(ts) -> int:
    """An integer timestamp (not a bool); None counts as 0."""
    if ts is None:
        return 0
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise InputDataError(f"ts must be an integer, got {ts!r}")
    return ts


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    """One post event: who wrote it, whom it endorsed, and its metadata."""

    author: str
    endorsed: str | None
    hashtags: frozenset[str]
    urls: frozenset[str]
    timestamp: int

    @classmethod
    def make(cls, author, endorsed=None, hashtags=(), urls=(), timestamp=0, *,
             ids=None, tag_sets=None):
        """Build a normalized record.

        User ids are lowercased, hashtags lose their leading '#', and a
        self-endorsement is dropped (treated as no endorsement at all).
        ``hashtags`` and ``urls`` are lists of strings and ``timestamp``
        an integer; None stands for an absent field. ``ids`` and
        ``tag_sets``, if given, are the memos shared by one file's records.
        """
        author = _id(author, ids)
        if not author:
            raise InputDataError("record with empty author")
        if endorsed is not None:
            endorsed = _id(endorsed, ids)
            if not endorsed or endorsed == author:
                endorsed = None
        tags = _strings(hashtags, "hashtags")
        urls = frozenset(filter(None, map(str.strip, _strings(urls, "urls"))))
        return cls(
            author,
            endorsed,
            _tag_set(tags) if tag_sets is None else tag_sets[tags],
            urls or _NO_URLS,
            _timestamp(timestamp),
        )


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

    def __contains__(self, tag):
        return normalize_tag(tag) in self.members


class CSR(NamedTuple):
    """Compressed sparse rows: the neighbours of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]`` (ascending), with arc weights
    ``weights`` in the same slots."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_arcs(cls, n, src, dst, w):
        """Sort the arcs by (src, dst) and sum the weights of parallel arcs."""
        order = np.lexsort((dst, src))
        src, dst, w = src[order], dst[order], w[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[starts], minlength=n), out=indptr[1:])
        weights = np.add.reduceat(w, starts) if len(starts) else w
        return cls(*map(_frozen, (indptr, dst[starts], weights)))

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
        self._ids = tuple(map(_user_id, ids))
        if len(set(self._ids)) != len(self._ids):
            raise InputDataError("duplicate user ids in vertex list")
        self._index = {u: i for i, u in enumerate(self._ids)}
        self.directed = bool(directed)
        n = len(self._ids)
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
        self.csr = CSR.from_arcs(n, *both)
        self.out_csr = CSR.from_arcs(n, src, dst, w) if self.directed else self.csr

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
        return csgraph.connected_components(self.csr.matrix(), directed=False)[1]

    # -- directed view ----------------------------------------------------

    @cached_property
    def transition_t(self):
        """Transpose of the uniform-step transition matrix of the directed
        view (weights ignored; rows of vertices without out-arcs are zero),
        laid out for left-multiplication of a distribution."""
        csr = self.out_csr
        probs = 1.0 / np.diff(csr.indptr)[csr.rows]
        return csr._replace(weights=probs).matrix().T.tocsr()


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
    pairs = [(_id(a, memo), _id(b, memo), int(w)) for a, b, w in pairs]
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
    members = set(topic.members)
    per_tag: Counter = Counter()  # (tag, unordered pair) -> events
    directed_counts: Counter = Counter()
    for rec in records:
        src, dst = rec.author, rec.endorsed
        if dst is None:
            continue
        tags = rec.hashtags & members
        if not tags:
            continue
        pair = (src, dst) if src < dst else (dst, src)
        for tag in tags:
            per_tag[tag, pair] += 1
        directed_counts[src, dst] += 1
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
    relations = set()
    for follower, followee in follow_edges:
        a, b = _user_id(follower), _user_id(followee)
        if a == b or a not in active or b not in active:
            continue
        relations.add((a, b))
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
    URL, or a URL domain. Edge weight counts distinct shared items.
    """
    if mode not in CONTENT_MODES:
        raise ValueError(f"mode must be one of {CONTENT_MODES}")
    members = set(topic.members)
    posted: dict[str, set[str]] = {}
    skipped = 0
    for rec in records:
        if mode == "shared-hashtag":
            items = rec.hashtags - members
        elif mode == "shared-url":
            items = rec.urls
        else:
            items = set()
            for u in rec.urls:
                dom = url_domain(u)
                if dom is None:
                    skipped += 1
                else:
                    items.add(dom)
        for item in items:
            posted.setdefault(item, set()).add(rec.author)
    if skipped:
        warnings.warn(f"skipped {skipped} unparseable urls", stacklevel=2)
    counts: Counter = Counter()
    for users in posted.values():
        ordered = sorted(users)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                counts[(a, b)] += 1
    return graph_from_weighted_pairs(
        [(a, b, w) for (a, b), w in counts.items()], directed=False
    )


def induced_subgraph(g, vertices):
    """Subgraph on the given vertex indices, reindexed in ascending order."""
    keep = np.unique(np.fromiter(vertices, dtype=np.int64))
    new_index = np.full(g.n_vertices, -1, dtype=np.int64)
    new_index[keep] = np.arange(len(keep))
    arcs = new_index[g.arc_array[:, :2]]
    inside = (arcs >= 0).all(axis=1)
    arcs = np.column_stack((arcs[inside], g.arc_array[inside, 2]))
    return ConversationGraph([g.ids[v] for v in keep], arcs, g.directed)


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
    decode = json.JSONDecoder().raw_decode
    make = InteractionRecord.make
    ids, tag_sets = _Memo(_user_id), _Memo(_tag_set)
    records = {}  # insertion-ordered set
    for lineno, line in read_lines(path):
        line = line.strip()
        try:
            obj, end = decode(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if type(obj) is not dict:
                raise InputDataError(f"not a JSON object: {line[:40]!r}")
            get = obj.get
            rec = make(obj["author"], get("endorsed"), get("hashtags"), get("urls"),
                       get("ts"), ids=ids, tag_sets=tag_sets)
        except (ValueError, KeyError, RecursionError, InputDataError) as exc:
            raise InputDataError(f"{path}:{lineno}: bad record ({exc})") from exc
        records[rec] = None
        if len(records) == _Memo.PROBE:  # drop a memo that mostly misses
            ids, tag_sets = (None if m is None or len(m) > _Memo.PROBE // 2 else m
                             for m in (ids, tag_sets))
    return list(records)


def read_edgelist(path, directed=False):
    """Read a TSV edge list: ``src<TAB>dst<TAB>weight`` (weight optional,
    default 1, at least 1). Lines starting with '#' are ignored."""
    pairs, ids = [], _Memo(_user_id)
    for lineno, line in read_lines(path, comments=True):
        parts = line.split("\t")
        try:
            if len(parts) not in (2, 3):
                raise InputDataError("expected 2 or 3 columns")
            src, dst = ids[parts[0]], ids[parts[1]]
            if not src or not dst:
                raise InputDataError("empty vertex id")
            w = int(parts[2]) if len(parts) == 3 else 1
            if w < 1:
                raise InputDataError(f"non-positive weight {w}")
        except InputDataError as exc:
            raise InputDataError(f"{path}:{lineno}: {exc}") from None
        except ValueError:
            raise InputDataError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
        pairs.append((src, dst, w))
    return graph_from_weighted_pairs(pairs, directed=directed)


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
    order = np.lexsort((dst, src))
    ids = [g.ids[v] for v in by_id]
    rows = zip(src[order].tolist(), dst[order].tolist(), arcs[order, 2].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{ids[a]}\t{ids[b]}\t{w}\n" for a, b, w in rows))


def read_follow_edges(path):
    """Read follower<TAB>followee pairs; '#' comment lines ignored."""
    edges = []
    for lineno, line in read_lines(path, comments=True):
        parts = line.split("\t")
        try:
            edge = tuple(map(_user_id, parts))
            if len(edge) != 2 or not all(edge):
                raise InputDataError("expected follower<TAB>followee")
        except InputDataError as exc:
            raise InputDataError(f"{path}:{lineno}: {exc}") from None
        edges.append(edge)
    return edges
