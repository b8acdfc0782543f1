"""Independent brute-force oracles the fast implementations are checked against.

Everything here trades efficiency for obviousness: path enumeration
instead of dependency accumulation, direct linear solves instead of
iterative ones, exhaustive enumeration instead of spectral splitting,
per-vertex dicts and full recomputes instead of updated gain arrays,
normalization afresh per record instead of caches. The
oracles read graphs in tuple form (:class:`TupleGraph`), which the
library itself no longer keeps.
"""
import json
import math
import random
import warnings
from collections import Counter, deque
from itertools import combinations

import numpy as np


class TupleGraph:
    """Tuple and per-vertex forms of a ``ConversationGraph``, read from its
    CSR arrays, for the oracles and tests written against them:

    - ``arcs``: sorted (src, dst, weight) tuples of the stored arcs (an
      undirected graph stores each edge once with src < dst);
    - ``undirected_edges``: sorted (u, v, weight) tuples with u < v, the
      weight summed over both arc directions;
    - ``neighbors(v)`` / ``out_neighbors(v)``: sorted index arrays of the
      undirected and the directed view.
    """

    def __init__(self, g):
        self.ids, self.directed, self.n_vertices = g.ids, g.directed, g.n_vertices
        self.arcs = tuple(map(tuple, g.arc_array.tolist()))
        self.undirected_edges = tuple(map(tuple, g.edge_array.tolist()))
        self._neighbors = np.split(g.csr.indices, g.csr.indptr[1:-1])
        self._out_neighbors = np.split(g.out_csr.indices, g.out_csr.indptr[1:-1])

    def neighbors(self, v):
        return self._neighbors[v]

    def out_neighbors(self, v):
        return self._out_neighbors[v]


def tuple_graph(g):
    """``g`` in tuple form. A graph that already carries these accessors,
    such as the benchmark's reference graph, passes through unchanged."""
    return g if hasattr(g, "undirected_edges") else TupleGraph(g)


def connected_components(g):
    """Vertex index lists of the undirected components by depth-first
    search, each sorted, ordered by smallest member."""
    g = tuple_graph(g)
    seen = [False] * g.n_vertices
    comps = []
    for root in range(g.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [root], [root]
        while stack:
            for v in g.neighbors(stack.pop()):
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def cut_edges(g, p):
    """Undirected edges with endpoints on different sides, as (u, v) with u < v."""
    return [(u, v) for u, v, _ in tuple_graph(g).undirected_edges if p.sides[u] != p.sides[v]]


def weighted_cut(g, p):
    """Total weight of the cut edges."""
    return sum(w for u, v, w in tuple_graph(g).undirected_edges if p.sides[u] != p.sides[v])


def loop_write_edgelist(g, path):
    """The canonical edge list from the arc tuples: each row's ids (in
    ascending order for an undirected graph), rows sorted as tuples of
    strings, written one line at a time."""
    g = tuple_graph(g)
    rows = []
    for u, v, w in g.arcs:
        a, b = g.ids[u], g.ids[v]
        if not g.directed and a > b:
            a, b = b, a
        rows.append((a, b, w))
    rows.sort()
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, w in rows:
            fh.write(f"{a}\t{b}\t{w}\n")


def lexsort_csr_arrays(n, src, dst, w):
    """(indptr, indices, weights) of the arcs ordered by a two-key
    ``np.lexsort`` on (src, dst), the weights of parallel arcs summed."""
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(first)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[starts], minlength=n), out=indptr[1:])
    weights = np.add.reduceat(w, starts) if len(starts) else w
    return indptr, dst[starts], weights


def rebuilt_induced_subgraph(g, vertices):
    """Induced subgraph rebuilt through ``ConversationGraph.__init__`` from
    the kept stored arcs, reindexed in ascending vertex order."""
    from controversy.graph import ConversationGraph

    keep = np.unique(np.fromiter(vertices, dtype=np.int64))
    new_index = np.full(g.n_vertices, -1, dtype=np.int64)
    new_index[keep] = np.arange(len(keep))
    arcs = new_index[g.arc_array[:, :2]]
    inside = (arcs >= 0).all(axis=1)
    arcs = np.column_stack((arcs[inside], g.arc_array[inside, 2]))
    return ConversationGraph([g.ids[v] for v in keep], arcs, g.directed)


def dense_planted_two_community(cfg):
    """The planted generator drawn in whole blocks: one uniform array per
    block and ``np.triu_indices`` for the side triangles (O(n^2) memory)."""
    from controversy.graph import ConversationGraph
    from controversy.partition import Partition

    rng = np.random.default_rng(cfg.seed)
    half = cfg.n // 2
    iu, ju = np.triu_indices(half, k=1)
    pairs = []
    for offset, prob in ((0, cfg.p1), (half, cfg.p1)):
        mask = rng.random(len(iu)) < prob
        pairs.append(np.column_stack((iu[mask], ju[mask])) + offset)
    xs, ys = np.nonzero(rng.random((half, half)) < cfg.p2)
    pairs.append(np.column_stack((xs, ys + half)))
    pairs = np.concatenate(pairs)
    arcs = np.column_stack((pairs, np.ones(len(pairs), dtype=np.int64)))
    ids = [str(i) for i in range(cfg.n)]
    graph = ConversationGraph(ids, arcs, directed=False)
    sides = np.zeros(cfg.n, dtype=np.int8)
    sides[half:] = 1
    return graph, Partition(sides)


def loop_make_record(author, endorsed=None, hashtags=(), urls=(), timestamp=0):
    """``InteractionRecord.make`` without its caches: every id, tag and URL
    normalized afresh on every call. ``hashtags`` and ``urls`` must be None
    or a list (or tuple) of strings, ``timestamp`` None or an int that is
    not a bool."""
    # imported here: the benchmark loads this module for its other
    # oracles, in a process that need not import the package
    from controversy.errors import InputDataError
    from controversy.graph import InteractionRecord, _user_id, normalize_tag

    for field, values in (("hashtags", hashtags), ("urls", urls)):
        if values is not None and not (
            isinstance(values, (list, tuple)) and all(isinstance(v, str) for v in values)
        ):
            raise InputDataError(f"{field} must be a list of strings, got {values!r}")
    if timestamp is not None and (isinstance(timestamp, bool) or not isinstance(timestamp, int)):
        raise InputDataError(f"ts must be an integer, got {timestamp!r}")
    author = _user_id(author)
    if not author:
        raise InputDataError("record with empty author")
    if endorsed is not None:
        endorsed = _user_id(endorsed)
        if not endorsed or endorsed == author:
            endorsed = None
    return InteractionRecord(
        author=author,
        endorsed=endorsed,
        hashtags=frozenset(filter(None, map(normalize_tag, hashtags or ()))),
        urls=frozenset(u.strip() for u in urls or () if u.strip()),
        timestamp=timestamp or 0,
    )


def loop_read_records(path):
    """The reference for ``graph.read_records``: ``json.loads`` per line,
    uncached normalization, and a separate seen-set for duplicates."""
    from controversy.errors import InputDataError

    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rec = loop_make_record(
                    author=obj["author"],
                    endorsed=obj.get("endorsed"),
                    hashtags=obj.get("hashtags"),
                    urls=obj.get("urls"),
                    timestamp=obj.get("ts"),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, InputDataError) as exc:
                raise InputDataError(f"{path}:{lineno}: bad record ({exc})") from exc
            if rec not in seen:
                seen.add(rec)
                records.append(rec)
    return records


def loop_build_retweet_graph(records, topic, tau=2):
    """The reference for ``graph.build_retweet_graph``: one Counter per
    hashtag, and every pair ordered by ``min`` / ``max``."""
    from controversy.graph import graph_from_weighted_pairs

    if tau < 1:
        raise ValueError("tau must be >= 1")
    members = set(topic.members)
    per_tag: dict[str, Counter] = {}
    directed_counts: Counter = Counter()
    for rec in records:
        if rec.endorsed is None:
            continue
        tags = rec.hashtags & members
        if not tags:
            continue
        pair = (min(rec.author, rec.endorsed), max(rec.author, rec.endorsed))
        for tag in tags:
            per_tag.setdefault(tag, Counter())[pair] += 1
        directed_counts[(rec.author, rec.endorsed)] += 1
    qualifying = set()
    for counts in per_tag.values():
        qualifying.update(p for p, c in counts.items() if c >= tau)
    pairs = [
        (src, dst, w)
        for (src, dst), w in directed_counts.items()
        if (min(src, dst), max(src, dst)) in qualifying
    ]
    return graph_from_weighted_pairs(pairs, directed=True)


def loop_build_content_graph(records, topic, mode):
    """The reference for ``graph.build_content_graph``: the set of authors
    per item, and one count per pair of them under every item."""
    from controversy.graph import CONTENT_MODES, graph_from_weighted_pairs, url_domain

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


def _bfs_predecessors(g, source):
    n = g.n_vertices
    dist = [-1] * n
    preds = [[] for _ in range(n)]
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            v = int(v)
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                preds[v].append(u)
    return dist, preds


def _all_shortest_paths(preds, source, target):
    """Every shortest path source->target as a vertex list, via the
    predecessor DAG."""
    paths = []

    def walk_back(v, suffix):
        if v == source:
            paths.append([source] + suffix)
            return
        for u in preds[v]:
            walk_back(u, [v] + suffix)

    walk_back(target, [])
    return paths


def naive_edge_betweenness(g):
    """Sum sigma_st(e)/sigma_st over ordered pairs by literally
    enumerating every shortest path."""
    g = tuple_graph(g)
    bc = {(u, v): 0.0 for u, v, _ in g.undirected_edges}
    n = g.n_vertices
    for s in range(n):
        dist, preds = _bfs_predecessors(g, s)
        for t in range(n):
            if t == s or dist[t] < 0:
                continue
            paths = _all_shortest_paths(preds, s, t)
            sigma = len(paths)
            for path in paths:
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a < b else (b, a)
                    bc[key] += 1.0 / sigma
    return bc


def loop_edge_betweenness(g):
    """Brandes' accumulation one source at a time, with a Python BFS
    queue and predecessor lists. Returns {(u, v) with u < v: value} over
    ordered pairs."""
    g = tuple_graph(g)
    n = g.n_vertices
    bc = {(u, v): 0.0 for u, v, _ in g.undirected_edges}
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in g.neighbors(u):
                v = int(v)
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(n)
        for w in reversed(order):
            for u in preds[w]:
                contribution = sigma[u] / sigma[w] * (1.0 + delta[w])
                key = (u, w) if u < w else (w, u)
                bc[key] += contribution
                delta[u] += contribution
    return bc


def networkx_edge_betweenness(g):
    """networkx's unnormalised edge betweenness counts each unordered pair
    once; doubled, it is the ordered-pair value keyed {(u, v) with u < v}."""
    import networkx as nx

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n_vertices))
    ref.add_edges_from((u, v) for u, v, _ in tuple_graph(g).undirected_edges)
    bc = nx.edge_betweenness_centrality(ref, normalized=False)
    return {(min(e), max(e)): 2.0 * value for e, value in bc.items()}


def dense_force_layout(g, iterations=500, seed=0):
    """The spring-electrical layout with the full (n, n, 2) displacement
    tensor per iteration. The library sums the same forces in another
    order: it must match this to rounding over a few iterations, and
    give ``ec`` close to this layout's after 500."""
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n <= 1 or iterations < 1:
        return pos
    k = math.sqrt(1.0 / n)
    edges = g.edge_array[:, :2]
    t0 = 0.1
    for it in range(iterations):
        temp = t0 * (1.0 - it / iterations)
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        dist = np.maximum(dist, 1e-9)
        disp = (k * k / dist**2)[:, :, None] * delta
        disp = disp.sum(axis=1)
        if len(edges):
            evec = pos[edges[:, 0]] - pos[edges[:, 1]]
            edist = np.maximum(np.sqrt((evec**2).sum(axis=-1)), 1e-9)
            pull = (edist / k)[:, None] * evec
            np.subtract.at(disp, edges[:, 0], pull)
            np.add.at(disp, edges[:, 1], pull)
        length = np.maximum(np.sqrt((disp**2).sum(axis=-1)), 1e-12)
        pos = pos + disp / length[:, None] * np.minimum(length, temp)[:, None]
    return pos


def dense_kde_density(points, centers, bandwidth):
    """Gaussian KDE at ``points`` summed over every center (the form the
    windowed library kernel replaced), in point chunks of bounded size."""
    out = np.empty(len(points))
    norm = len(centers) * bandwidth * math.sqrt(2.0 * math.pi)
    step = max(1, (1 << 16) // max(1, len(centers)))
    for lo in range(0, len(points), step):
        z = (points[lo : lo + step, None] - centers[None, :]) / bandwidth
        out[lo : lo + step] = np.exp(-0.5 * z * z).sum(axis=1) / norm
    return out


def randrange_walk_outcomes(g, p, k, n_walks, seed):
    """(start, end) of every ``rwc_mc`` walk, drawn in walk order from one
    ``random.Random(seed)`` with ``randrange`` on the tuple-form neighbor
    lists: pick a side by one ``random()`` (keyed to the side holding
    vertex 0), a start by ``randrange(len(side))``, then one
    ``randrange(degree)`` per step until a top-degree vertex of either
    side is hit."""
    from controversy.walks import top_degree

    t = tuple_graph(g)
    x_plus, y_plus = top_degree(g, p, k)
    terminals = set(x_plus.tolist()) | set(y_plus.tolist())
    side0, side1 = (p.x, p.y) if p.side_of(0) == "X" else (p.y, p.x)
    outcomes = []
    rng = random.Random(seed)
    for _ in range(n_walks):
        pool = side0 if rng.random() < 0.5 else side1
        start = v = int(pool[rng.randrange(len(pool))])
        while v not in terminals:
            nbrs = t.neighbors(v)
            v = int(nbrs[rng.randrange(len(nbrs))])
        outcomes.append((start, v))
    return outcomes


def rwc_mc_band(g, p, k=None, n_walks=10000):
    """``(mean, sigma)``: the exact expectation of ``rwc_mc`` and the
    standard error of one estimate from ``n_walks`` walks. A walk picks a
    side with probability 1/2, starts uniformly inside it and is absorbed
    at the first authority, so the four (start side, end side) cell
    probabilities follow from :func:`absorbing_absorption_probabilities`.
    The score is p_xx + p_yy - 1 of the column-conditioned cells, and its
    error is the delta method on the multinomial cell counts (the score
    is homogeneous of degree 0 in the cells, so the gradient's mean
    term vanishes)."""
    from controversy.walks import top_degree

    x_plus, y_plus = top_degree(g, p, k)
    term, absorb = absorbing_absorption_probabilities(g, np.concatenate((x_plus, y_plus)))
    to_x = absorb[:, np.isin(term, x_plus)].sum(axis=1)
    from_x, from_y = to_x[p.x].mean(), to_x[p.y].mean()
    # cell probabilities, named start side then end side
    xx, xy, yx, yy = 0.5 * from_x, 0.5 * (1.0 - from_x), 0.5 * from_y, 0.5 * (1.0 - from_y)
    ends_x, ends_y = xx + yx, yy + xy
    mean = xx / ends_x + yy / ends_y - 1.0
    # (partial derivative of the score in a cell, that cell's probability)
    terms = ((yx / ends_x**2, xx), (-xx / ends_x**2, yx),
             (xy / ends_y**2, yy), (-yy / ends_y**2, xy))
    sigma = math.sqrt(sum(d * d * q for d, q in terms) / n_walks)
    return mean, sigma


def dense_stationary_rwr(g, restart, dangling, damping):
    """Stationary distribution by solving the full linear system
    (independent of power iteration)."""
    g = tuple_graph(g)
    n = g.n_vertices
    restart = sorted(set(int(v) for v in restart))
    dang = set(int(v) for v in dangling)
    r = np.zeros(n)
    r[restart] = 1.0 / len(restart)
    P = np.zeros((n, n))
    for v in range(n):
        outs = g.out_neighbors(v)
        if v in dang or len(outs) == 0:
            P[v] = r
        else:
            P[v] = (1.0 - damping) * r
            P[v, outs] += damping / len(outs)
    A = P.T - np.eye(n)
    A[-1] = 1.0  # replace one balance equation with the normalization
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def sparse_stationary_rwr(g, restart, dangling, damping):
    """:func:`dense_stationary_rwr` for graphs too large for a dense
    matrix: one sparse LU solve of (I - d M^T) x = 1_restart, where M is
    built here from the out-neighbour lists (uniform steps, dangling and
    sink rows zero), normalized to sum 1."""
    r = np.zeros(g.n_vertices)
    r[sorted(set(int(v) for v in restart))] = 1.0
    x = sparse_rwr_solver(g, dangling, damping)(r)
    return x / x.sum()


def sparse_rwr_solver(g, dangling, damping):
    """The solve x = (I - d M^T)^-1 r of :func:`sparse_stationary_rwr` for
    any right-hand side r, from one sparse LU factorization."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    g = tuple_graph(g)
    n = g.n_vertices
    dang = set(int(v) for v in dangling)
    rows, cols, probs = [], [], []
    for v in range(n):
        outs = g.out_neighbors(v)
        if v not in dang and len(outs):
            rows += [v] * len(outs)
            cols += [int(u) for u in outs]
            probs += [1.0 / len(outs)] * len(outs)
    step = sp.csr_matrix((probs, (rows, cols)), shape=(n, n))
    # an ordering for a structurally symmetric matrix, as undirected
    # graphs give: a third of COLAMD's time on planted n = 3000
    return splu((sp.identity(n) - damping * step.T).tocsc(), permc_spec="MMD_AT_PLUS_A").solve


def power_rwc_user(g, p, x_plus, y_plus, vertices):
    """Restart-walk user scores of ``vertices``, each from one
    :func:`sparse_rwr_solver` solve (a power iteration when this oracle was
    written) that restarts at the user with the authorities ``x_plus``
    and ``y_plus`` dangling: the own side's share of the authority mass.
    The matrix is factored once; only the restart vertex changes."""
    solve = sparse_rwr_solver(g, list(x_plus) + list(y_plus), 0.85)
    scores = []
    for u in vertices:
        r = np.zeros(g.n_vertices)
        r[int(u)] = 1.0
        pi = solve(r)
        m_x = pi[list(x_plus)].sum()
        m_y = pi[list(y_plus)].sum()
        own = m_x if p.side_of(u) == "X" else m_y
        scores.append(float(own / (m_x + m_y)))
    return np.array(scores)


def dense_rwr_conditionals(g, p, x_plus, y_plus, damping):
    """Restart-walk conditionals from two dense stationary solves.

    Restarts on each side with ``x_plus`` and ``y_plus`` dangling, weighs
    the two restart sides by their share of the vertices, and applies
    Bayes' rule: Pr[start = A | end on B+] is proportional to
    Pr[A] * mass of the A-restart walk on B+. Returns the 2 x 2 array
    [start side][end side] and its column sums, the weighted stationary
    mass on X+ and on Y+.
    """
    dangling = list(x_plus) + list(y_plus)
    table = np.empty((2, 2))
    for start, side in enumerate((p.x, p.y)):
        pi = dense_stationary_rwr(g, side, dangling, damping)
        table[start] = [len(side) / g.n_vertices * pi[list(end)].sum() for end in (x_plus, y_plus)]
    mass = table.sum(axis=0)
    return table / mass, mass


def dense_rwc_rwr(g, p, x_plus, y_plus, damping):
    """Restart-walk controversy from :func:`dense_rwr_conditionals`."""
    c, _ = dense_rwr_conditionals(g, p, x_plus, y_plus, damping)
    return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])


def dense_harmonic_polarity(g, plus_seeds, minus_seeds):
    """Exact harmonic extension of +1 on ``plus_seeds`` and -1 on
    ``minus_seeds`` over the unweighted undirected view: every free
    vertex equals the mean of its neighbours. One dense Laplacian solve;
    every free vertex must be connected to a seed."""
    n = g.n_vertices
    L = np.zeros((n, n))
    for u, v, _ in tuple_graph(g).undirected_edges:
        L[u, v] -= 1.0
        L[v, u] -= 1.0
        L[u, u] += 1.0
        L[v, v] += 1.0
    values = np.zeros(n)
    values[list(plus_seeds)] = 1.0
    values[list(minus_seeds)] = -1.0
    clamped = set(int(v) for v in plus_seeds) | set(int(v) for v in minus_seeds)
    free = [v for v in range(n) if v not in clamped]
    fixed = sorted(clamped)
    rhs = -L[np.ix_(free, fixed)] @ values[fixed]
    values[free] = np.linalg.solve(L[np.ix_(free, free)], rhs)
    return values


def absorbing_absorption_probabilities(g, terminals):
    """For every start vertex, probability the uniform undirected walk is
    absorbed at each terminal. Returns (terminal list, n x t matrix)."""
    g = tuple_graph(g)
    term = sorted(set(int(v) for v in terminals))
    term_set = set(term)
    others = [v for v in range(g.n_vertices) if v not in term_set]
    idx = {v: i for i, v in enumerate(others)}
    m = len(others)
    Q = np.zeros((m, m))
    R = np.zeros((m, len(term)))
    for v in others:
        nbrs = g.neighbors(v)
        share = 1.0 / len(nbrs)
        for w in nbrs:
            w = int(w)
            if w in term_set:
                R[idx[v], term.index(w)] += share
            else:
                Q[idx[v], idx[w]] += share
    B = np.linalg.solve(np.eye(m) - Q, R)
    full = np.zeros((g.n_vertices, len(term)))
    for v in range(g.n_vertices):
        if v in term_set:
            full[v, term.index(v)] = 1.0
        else:
            full[v] = B[idx[v]]
    return term, full


def dense_expected_steps(g, targets):
    """Expected steps to absorption by dense solve; inf where unreachable."""
    g = tuple_graph(g)
    targets = sorted(set(int(v) for v in targets))
    target_set = set(targets)
    n = g.n_vertices
    times = np.full(n, np.inf)
    times[targets] = 0.0
    reach = set(targets)
    stack = list(targets)
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            v = int(v)
            if v not in reach:
                reach.add(v)
                stack.append(v)
    free = sorted(reach - target_set)
    if not free:
        return times
    idx = {v: i for i, v in enumerate(free)}
    m = len(free)
    Q = np.zeros((m, m))
    for v in free:
        nbrs = g.neighbors(v)
        share = 1.0 / len(nbrs)
        for w in nbrs:
            w = int(w)
            if w not in target_set:
                Q[idx[v], idx[w]] += share
    times[free] = np.linalg.solve(np.eye(m) - Q, np.ones(m))
    return times


def loop_gmck(g, sides):
    """Boundary-connectivity score by per-vertex loops over the neighbor
    lists; None when the boundary is empty."""
    g = tuple_graph(g)
    n = g.n_vertices
    has_cross = [any(sides[v] != sides[u] for v in g.neighbors(u)) for u in range(n)]
    boundary = [
        has_cross[u]
        and any(sides[v] == sides[u] and not has_cross[v] for v in g.neighbors(u))
        for u in range(n)
    ]
    members = [u for u in range(n) if boundary[u]]
    if not members:
        return None
    total = 0.0
    for u in members:
        d_b = sum(1 for v in g.neighbors(u) if boundary[v])
        total += (len(g.neighbors(u)) - d_b) / len(g.neighbors(u))
    return total / len(members) - 0.5


def loop_strict_rank_fraction(values, rel_tol=1e-9):
    """Fraction of values strictly smaller, walking the sorted values once:
    a value within rel_tol of its predecessor joins the predecessor's tie
    group (ties chain), inf ties only with inf."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n)
    group_start = 0
    for i in range(n):
        if i > 0:
            prev, val = values[order[i - 1]], values[order[i]]
            if np.isinf(prev) or np.isinf(val):
                same = np.isinf(prev) and np.isinf(val)
            else:
                same = val - prev <= rel_tol * (1.0 + abs(val))
            if not same:
                group_start = i
        ranks[order[i]] = group_start
    return ranks / n


def dense_fiedler_vector(g):
    """The whole ascending spectrum of the weighted Laplacian and the unit
    eigenvector of its second-smallest eigenvalue, by a dense symmetric
    eigensolve."""
    adj = g.csr.matrix().toarray()
    vals, vecs = np.linalg.eigh(np.diag(adj.sum(axis=1)) - adj)
    return vals, vecs[:, 1]


def best_balanced_cut(g):
    """Minimum weighted cut over all floor(n/2)/ceil(n/2) bisections,
    by exhaustive enumeration (keep vertex 0 on one side)."""
    g = tuple_graph(g)
    n = g.n_vertices
    half = n // 2
    best = None
    rest = list(range(1, n))
    for chosen in combinations(rest, half - 1):
        side = {0, *chosen}
        cut = sum(
            w for u, v, w in g.undirected_edges if (u in side) != (v in side)
        )
        if best is None or cut < best:
            best = cut
    return best


def loop_refine_single_sweep(g, sides):
    """One Kernighan-Lin style pass: greedy pair swaps that reduce the
    weighted cut, each vertex moving at most once.

    The reference for ``partition._refine_single_sweep``: per-vertex
    weight dicts, and the gains of the moved pair and their neighbours
    recomputed in full after every swap."""
    n = len(sides)
    csr, rows = g.csr, g.csr.rows
    indptr, indices, weights = (a.tolist() for a in csr)
    wadj = [
        dict(zip(indices[indptr[u] : indptr[u + 1]], weights[indptr[u] : indptr[u + 1]]))
        for u in range(n)
    ]
    # gain of moving a vertex to the other side
    cross = sides[rows] != sides[csr.indices]
    gain = np.bincount(rows, weights=np.where(cross, csr.weights, -csr.weights), minlength=n)
    locked = np.zeros(n, dtype=bool)
    while True:
        xs = [u for u in range(n) if sides[u] == 0 and not locked[u]]
        ys = [u for u in range(n) if sides[u] == 1 and not locked[u]]
        if not xs or not ys:
            break
        xs.sort(key=lambda u: (-gain[u], u))
        ys.sort(key=lambda u: (-gain[u], u))
        best, best_pair = 0.0, None
        for u in xs:
            if gain[u] + gain[ys[0]] <= best:
                break
            for v in ys:
                if gain[u] + gain[v] <= best:
                    break
                pair_gain = gain[u] + gain[v] - 2 * wadj[u].get(v, 0)
                if pair_gain > best or (
                    pair_gain == best and best_pair is not None and (u, v) < best_pair
                ):
                    best, best_pair = pair_gain, (u, v)
        if best_pair is None or best <= 0:
            break
        u, v = best_pair
        sides[u], sides[v] = 1, 0
        locked[u] = locked[v] = True
        for w in (u, v):
            gain[w] = 0.0
            for nb, wt in wadj[w].items():
                gain[w] += wt if sides[w] != sides[nb] else -wt
        for moved in (u, v):
            for nb, wt in wadj[moved].items():
                if nb in (u, v):
                    continue
                # recompute is cheap and avoids sign bookkeeping
                gain[nb] = 0.0
                for nb2, wt2 in wadj[nb].items():
                    gain[nb] += wt2 if sides[nb] != sides[nb2] else -wt2
    return sides
