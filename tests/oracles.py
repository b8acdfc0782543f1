"""Independent brute-force oracles the fast implementations are checked against.

Everything here trades efficiency for obviousness: path enumeration
instead of dependency accumulation, dense linear solves instead of power
iteration, exhaustive enumeration instead of spectral splitting. The
oracles read graphs in tuple form (:class:`TupleGraph`), which the
library itself no longer keeps.
"""
import math
from collections import deque
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
    tensor per iteration; the library must reproduce it bit for bit."""
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


def power_rwc_user(g, p, hds, u, cfg=None):
    """Restart-walk user score from one stationary power iteration that
    restarts at ``u``: the own side's share of the authority mass."""
    # imported here: the other oracles run on graphs without the library
    from controversy.walks import stationary_rwr

    pi = stationary_rwr(g, [int(u)], hds.all, cfg)
    m_x = pi[list(hds.x_plus)].sum()
    m_y = pi[list(hds.y_plus)].sum()
    own = m_x if p.side_of(u) == "X" else m_y
    return float(own / (m_x + m_y))


def dense_rwc_rwr(g, p, x_plus, y_plus, damping):
    """Restart-walk controversy from two dense stationary solves.

    Restarts on each side with ``x_plus`` and ``y_plus`` dangling, weighs
    the two restart sides by their share of the vertices, and applies
    Bayes' rule: Pr[start = A | end on B+] is proportional to
    Pr[A] * mass of the A-restart walk on B+.
    """
    dangling = list(x_plus) + list(y_plus)
    pi_x = dense_stationary_rwr(g, p.x, dangling, damping)
    pi_y = dense_stationary_rwr(g, p.y, dangling, damping)
    w_x = len(p.x) / g.n_vertices
    w_y = len(p.y) / g.n_vertices
    end_x = np.array([w_x * pi_x[list(x_plus)].sum(), w_y * pi_y[list(x_plus)].sum()])
    end_y = np.array([w_x * pi_x[list(y_plus)].sum(), w_y * pi_y[list(y_plus)].sum()])
    p_xx, p_yx = end_x / end_x.sum()
    p_xy, p_yy = end_y / end_y.sum()
    return float(p_xx * p_yy - p_xy * p_yx)


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
