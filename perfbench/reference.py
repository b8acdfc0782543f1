"""Reference values the gate compares every run's outputs against.

Computed once per (workload, seed) and cached. Wherever an independent
oracle exists it is used instead of the program's own code path:

- ``rwc_rwr`` and sampled ``rwc_user`` rows: dense linear solves from
  ``tests/oracles.py``;
- ``rwc_mc``: exact absorption probabilities (``tests/oracles.py``) give
  the expected score and the standard error of a 10k-walk estimate;
- ``bcc``: networkx edge betweenness fed through the documented KDE
  divergence;
- ``ec``: a private copy of the exact O(n^2) spring layout, so that a
  faster approximate layout is still judged against the exact one;
- ``gmck`` / ``mblb`` / topic expansion / the retweet graph / the
  planted sweep: written here from their documented definitions.

Graphs are rebuilt from the input files with plain Python; vertex
indices follow the lexicographic order of the user ids, as the program
documents, because authority selection breaks degree ties by index.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DAMPING = 0.85
N_WALKS = 10000
N_SAMPLES = 10000
LAYOUT_ITERATIONS = 500
PROGRAM_SEED = 0  # the CLI's default --seed, used by every scored run


def oracles(root):
    """The repository's test oracles (``tests/oracles.py``)."""
    tests = str(Path(root) / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles as mod

    return mod


# -- graphs ------------------------------------------------------------------


class Graph:
    """Minimal graph with the accessors ``tests/oracles.py`` relies on."""

    def __init__(self, rows, directed, ids=None):
        if ids is None:
            ids = sorted({a for a, _, _ in rows} | {b for _, b, _ in rows})
        self.ids = list(ids)
        index = {u: i for i, u in enumerate(self.ids)}
        self.directed = directed
        arcs = Counter()
        for a, b, w in rows:
            u, v = index[a], index[b]
            if u == v:
                continue
            if not directed and u > v:
                u, v = v, u
            arcs[(u, v)] += w
        self.arcs = sorted((u, v, w) for (u, v), w in arcs.items())
        und = Counter()
        for u, v, w in self.arcs:
            und[(min(u, v), max(u, v))] += w
        self.undirected_edges = sorted((u, v, w) for (u, v), w in und.items())
        n = len(self.ids)
        nbrs = [[] for _ in range(n)]
        for u, v, _ in self.undirected_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._nbrs = [np.array(sorted(a), dtype=np.int64) for a in nbrs]
        if directed:
            outs = [[] for _ in range(n)]
            for u, v, _ in self.arcs:
                outs[u].append(v)
            self._outs = [np.array(sorted(a), dtype=np.int64) for a in outs]
        else:
            self._outs = self._nbrs
        self.degrees = np.array([len(a) for a in self._nbrs], dtype=np.int64)

    @property
    def n_vertices(self):
        return len(self.ids)

    @property
    def n_edges(self):
        return len(self.undirected_edges)

    def neighbors(self, v):
        return self._nbrs[v]

    def out_neighbors(self, v):
        return self._outs[v]

    def rows(self):
        """(id, id, weight) rows of the stored arcs."""
        return [(self.ids[u], self.ids[v], w) for u, v, w in self.arcs]


def largest_component(g):
    """Largest component; ties go to the one holding the smallest index."""
    n = g.n_vertices
    seen = np.full(n, -1)
    comps = []
    for root in range(n):
        if seen[root] >= 0:
            continue
        seen[root] = len(comps)
        comp, stack = [root], [root]
        while stack:
            for v in g.neighbors(stack.pop()):
                if seen[v] < 0:
                    seen[v] = len(comps)
                    comp.append(int(v))
                    stack.append(int(v))
        comps.append(comp)
    best = max(comps, key=lambda c: (len(c), -min(c)))
    keep = {g.ids[v] for v in best}
    rows = [r for r in g.rows() if r[0] in keep]
    return Graph(rows, g.directed, ids=[u for u in g.ids if u in keep])


def read_tsv_rows(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            a, b, *w = line.rstrip("\n").split("\t")
            rows.append((a.strip().lower(), b.strip().lower(), int(w[0]) if w else 1))
    return rows


# -- walks -------------------------------------------------------------------


def default_k(sides):
    return max(1, math.ceil(0.05 * min(int((sides == 0).sum()), int((sides == 1).sum()))))


def top_degree(degrees, sides, k):
    """k highest-degree vertices per side, ties to the smaller index."""
    picked = []
    for side in (0, 1):
        members = np.flatnonzero(sides == side)
        order = np.lexsort((members, -degrees[members]))
        picked.append([int(v) for v in members[order][:k]])
    return picked


def rwr_score(orc, g, sides, k=None):
    """Restart-walk controversy from the dense stationary solve."""
    k = default_k(sides) if k is None else k
    x_plus, y_plus = top_degree(g.degrees, sides, k)
    dangling = x_plus + y_plus
    pi_x = orc.dense_stationary_rwr(g, np.flatnonzero(sides == 0), dangling, DAMPING)
    pi_y = orc.dense_stationary_rwr(g, np.flatnonzero(sides == 1), dangling, DAMPING)
    return conditioned_score(pi_x, pi_y, sides, x_plus, y_plus)


def conditioned_score(pi_x, pi_y, sides, x_plus, y_plus):
    """P_xx P_yy - P_xy P_yx from the stationary laws of the walks that
    restart on X and on Y, conditioned on sitting at X+ or at Y+."""
    w_x, w_y = (sides == 0).mean(), (sides == 1).mean()
    den_x = w_x * pi_x[x_plus].sum() + w_y * pi_y[x_plus].sum()
    den_y = w_x * pi_x[y_plus].sum() + w_y * pi_y[y_plus].sum()
    xx, yx = w_x * pi_x[x_plus].sum() / den_x, w_y * pi_y[x_plus].sum() / den_x
    xy, yy = w_x * pi_x[y_plus].sum() / den_y, w_y * pi_y[y_plus].sum() / den_y
    return float(xx * yy - xy * yx)


def rwc_mc_band(orc, g, sides):
    """Expected Monte Carlo score and the standard error of one estimate.

    A walk picks a side with probability 1/2, starts uniformly inside it
    and is absorbed at the first authority. The four (start side, end
    side) cell probabilities follow from the absorption probabilities;
    the estimate is p_xx + p_yy - 1 of the cell counts, whose standard
    error comes from the delta method on the multinomial counts.
    """
    x_plus, y_plus = top_degree(g.degrees, sides, default_k(sides))
    term, absorb = orc.absorbing_absorption_probabilities(g, x_plus + y_plus)
    ends_x = np.isin(term, x_plus)
    to_x = absorb[:, ends_x].sum(axis=1)
    q = {}
    for s, start in (("x", 0), ("y", 1)):
        members = sides == start
        q[s + "x"] = 0.5 * float(to_x[members].mean())
        q[s + "y"] = 0.5 - q[s + "x"]
    ex, ey = q["xx"] + q["yx"], q["yy"] + q["xy"]
    mean = q["xx"] / ex + q["yy"] / ey - 1.0
    grad = {"xx": q["yx"] / ex**2, "yx": -q["xx"] / ex**2,
            "yy": q["xy"] / ey**2, "xy": -q["yy"] / ey**2}
    sigma = math.sqrt(sum(grad[c] ** 2 * q[c] for c in q) / N_WALKS)
    return {"mean": mean, "sigma": sigma}


# -- other measures ------------------------------------------------------------


def kde_divergence(cut_vals, rest_vals, n_samples=N_SAMPLES, seed=PROGRAM_SEED):
    """1 - exp(-KL(cut || rest)) between Scott's-rule Gaussian KDEs,
    estimated from n_samples draws of the cut KDE (densities floored at
    1e-12, result clamped to [0, 1))."""

    def bandwidth(v):
        h = (v.std(ddof=1) if len(v) > 1 else 0.0) * len(v) ** (-0.2)
        return h if h > 0 and np.isfinite(h) else 1e-3

    def density(points, centers, h):
        z = (points[:, None] - centers[None, :]) / h
        return np.exp(-0.5 * z * z).sum(axis=1) / (len(centers) * h * math.sqrt(2 * math.pi))

    h_cut, h_rest = bandwidth(cut_vals), bandwidth(rest_vals)
    rng = np.random.default_rng(seed)
    points = rng.choice(cut_vals, size=n_samples, replace=True)
    points = points + h_cut * rng.standard_normal(n_samples)
    p_cut = np.maximum(density(points, cut_vals, h_cut), 1e-12)
    p_rest = np.maximum(density(points, rest_vals, h_rest), 1e-12)
    d_kl = float(np.mean(np.log(p_cut) - np.log(p_rest)))
    return float(min(max(1.0 - math.exp(-d_kl), 0.0), np.nextafter(1.0, 0.0)))


def bcc_score(g, sides):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g.n_vertices))
    graph.add_edges_from((u, v) for u, v, _ in g.undirected_edges)
    between = nx.edge_betweenness_centrality(graph, normalized=False)
    # networkx counts unordered pairs; the measure counts ordered pairs
    values = np.array([2.0 * between.get((u, v), between.get((v, u)))
                       for u, v, _ in g.undirected_edges])
    cut = np.array([sides[u] != sides[v] for u, v, _ in g.undirected_edges])
    return kde_divergence(values[cut], values[~cut])


def gmck_score(g, sides):
    """Mean of d_i / (d_b + d_i) over boundary vertices, minus 1/2."""
    n = g.n_vertices
    nbrs = [[int(v) for v in g.neighbors(u)] for u in range(n)]
    cross = [any(sides[v] != sides[u] for v in nbrs[u]) for u in range(n)]
    boundary = [
        cross[u] and any(sides[v] == sides[u] and not cross[v] for v in nbrs[u])
        for u in range(n)
    ]
    members = [u for u in range(n) if boundary[u]]
    total = 0.0
    for u in members:
        d_b = sum(1 for v in nbrs[u] if boundary[v])
        total += (len(nbrs[u]) - d_b) / len(nbrs[u])
    return total / len(members) - 0.5


def mblb_score(g, sides, seed_fraction=0.05, tol=1e-6, max_iters=1000):
    """Dipole moment after synchronous neighbour-mean propagation from
    +1/-1 seeds on each side's highest-degree vertices."""
    n = g.n_vertices
    deg = g.degrees
    values = np.zeros(n)
    clamped = np.zeros(n, dtype=bool)
    for side, sign in ((0, 1.0), (1, -1.0)):
        members = np.flatnonzero(sides == side)
        count = max(1, math.ceil(seed_fraction * len(members)))
        seeds = members[np.lexsort((members, -deg[members]))][:count]
        values[seeds] = sign
        clamped[seeds] = True
    us = [u for u, v, _ in g.undirected_edges]
    vs = [v for u, v, _ in g.undirected_edges]
    adj = sp.csr_matrix((np.ones(2 * len(us)), (us + vs, vs + us)), shape=(n, n))
    inv_deg = np.zeros(n)
    inv_deg[deg > 0] = 1.0 / deg[deg > 0]
    free = ~clamped
    for _ in range(max_iters):
        means = (adj @ values) * inv_deg
        change = np.abs(means[free] - values[free]).max() if free.any() else 0.0
        values[free] = means[free]
        if change < tol:
            break
    pos, neg = values[values > 0], values[values < 0]
    if len(pos) == 0 or len(neg) == 0:
        return 0.0
    return float((1.0 - abs(len(pos) - len(neg)) / n) * abs(pos.mean() - neg.mean()) / 2.0)


def exact_layout(g, iterations=LAYOUT_ITERATIONS, seed=PROGRAM_SEED):
    """Exact all-pairs spring-electrical layout (repulsion k^2/d, attraction
    d^2/k along edges, displacement capped by a linearly cooling step)."""
    n = g.n_vertices
    pos = np.random.default_rng(seed).random((n, 2))
    k = math.sqrt(1.0 / n)
    edges = np.array([(u, v) for u, v, _ in g.undirected_edges], dtype=np.int64)
    for it in range(iterations):
        temp = 0.1 * (1.0 - it / iterations)
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((delta**2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        dist = np.maximum(dist, 1e-9)
        disp = ((k * k / dist**2)[:, :, None] * delta).sum(axis=1)
        evec = pos[edges[:, 0]] - pos[edges[:, 1]]
        edist = np.maximum(np.sqrt((evec**2).sum(axis=-1)), 1e-9)
        pull = (edist / k)[:, None] * evec
        np.subtract.at(disp, edges[:, 0], pull)
        np.add.at(disp, edges[:, 1], pull)
        length = np.maximum(np.sqrt((disp**2).sum(axis=-1)), 1e-12)
        pos = pos + disp / length[:, None] * np.minimum(length, temp)[:, None]
    return pos


def embedding_controversy(pos, sides):
    """1 - (d_X + d_Y) / (2 d_XY) from mean pairwise Euclidean distances."""

    def mean_within(pts):
        if len(pts) < 2:
            return 0.0
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        return float(d[np.triu_indices(len(pts), 1)].mean())

    xs, ys = pos[sides == 0], pos[sides == 1]
    d_xy = float(np.sqrt(((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=-1)).mean())
    return 1.0 - (mean_within(xs) + mean_within(ys)) / (2.0 * d_xy)


# -- user scores ---------------------------------------------------------------


def rank_fraction(values, rel_tol=1e-9):
    """Fraction of vertices with a strictly smaller value; sorted
    neighbours closer than rel_tol * (1 + |value|) tie, as do infinities."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    start = 0
    for i, v in enumerate(order):
        if i:
            prev, cur = values[order[i - 1]], values[v]
            if math.isinf(prev) or math.isinf(cur):
                tied = math.isinf(prev) and math.isinf(cur)
            else:
                tied = cur - prev <= rel_tol * (1.0 + abs(cur))
            if not tied:
                start = i
        ranks[v] = start
    return ranks / len(values)


def user_reference(orc, g, sides, sample):
    """rho for every vertex and rwc_user for the sampled vertex ids."""
    x_plus, y_plus = top_degree(g.degrees, sides, default_k(sides))
    rho = (rank_fraction(orc.dense_expected_steps(g, x_plus))
           - rank_fraction(orc.dense_expected_steps(g, y_plus)))
    index = {u: i for i, u in enumerate(g.ids)}
    rwc = {}
    for uid in sample:
        u = index[uid]
        pi = orc.dense_stationary_rwr(g, [u], x_plus + y_plus, DAMPING)
        m_x, m_y = pi[x_plus].sum(), pi[y_plus].sum()
        rwc[uid] = float((m_x if sides[u] == 0 else m_y) / (m_x + m_y))
    return {"rho": dict(zip(g.ids, map(float, rho))), "rwc_user": rwc}


# -- retweet graph -------------------------------------------------------------


def normalize_tag(tag):
    tag = tag.strip().lower()
    return tag[1:] if tag.startswith("#") else tag


def expand_topic(seed, profiles, k=20, alpha=0.3):
    """Seed plus the k tags most similar to it (ties by tag, zero excluded):
    (alpha cos(words) + (1 - alpha) cos(tags)) / (1 + ln df)."""

    def cosine(a, b):
        keys = sorted(set(a) & set(b))
        if not keys:
            return 0.0
        dot = float(np.dot([a[x] for x in keys], [b[x] for x in keys]))
        return dot / (math.sqrt(sum(c * c for c in a.values()))
                      * math.sqrt(sum(c * c for c in b.values())))

    by_tag = {}
    for p in profiles:
        tag = normalize_tag(p["tag"])
        tags = {normalize_tag(t): c for t, c in p["tags"].items()
                if c > 0 and normalize_tag(t) != tag}
        words = {w.lower(): c for w, c in p["words"].items() if c > 0}
        by_tag[tag] = (p["df"], words, tags)
    _, s_words, s_tags = by_tag[seed]
    scored = []
    for tag, (df, words, tags) in by_tag.items():
        if tag == seed:
            continue
        mix = alpha * cosine(s_words, words) + (1 - alpha) * cosine(s_tags, tags)
        sim = mix / (1 + math.log(df))
        if sim > 0:
            scored.append((-sim, tag))
    return {seed} | {tag for _, tag in sorted(scored)[:k]}


def retweet_graph(records, topic, tau=2):
    """Directed retweet graph: a pair is an edge when, under one topic tag,
    its two users exchanged at least tau retweets; arcs count events."""
    seen = set()
    per_tag = Counter()
    arcs = Counter()
    for r in records:
        author = r["author"].strip().lower()
        endorsed = (r["endorsed"] or "").strip().lower()
        if endorsed == author:
            endorsed = ""
        tags = frozenset(normalize_tag(t) for t in r["hashtags"] if normalize_tag(t))
        key = (author, endorsed, tags, r["ts"])
        if key in seen:
            continue
        seen.add(key)
        if not endorsed:
            continue
        on_topic = tags & topic
        if not on_topic:
            continue
        pair = (min(author, endorsed), max(author, endorsed))
        for tag in on_topic:
            per_tag[(tag, pair)] += 1
        arcs[(author, endorsed)] += 1
    qualifying = {pair for (_, pair), c in per_tag.items() if c >= tau}
    rows = [(a, b, w) for (a, b), w in arcs.items() if (min(a, b), max(a, b)) in qualifying]
    return Graph(rows, directed=True)


# -- planted sweep -------------------------------------------------------------


def sweep_rows(n, p1_grid, p2_grid, runs, base_seed):
    """Mean and population std of the restart-walk score per (p1, p2) cell
    on planted graphs scored with their ground-truth sides.

    Each graph's stationary distributions come from a Krylov solve of
    (I - d M^T) x = r (M: uniform out-steps, authority rows zeroed) instead
    of the program's power iteration: the walk's stationary law is its
    expected visit count per excursion from the restart vector, normalised.
    """
    rows = []
    half = n // 2
    iu, ju = np.triu_indices(half, k=1)
    for i1, p1 in enumerate(p1_grid):
        for i2, p2 in enumerate(p2_grid):
            scores = []
            for run in range(runs):
                seed = int(np.random.SeedSequence([base_seed, i1, i2, run]).generate_state(1)[0])
                rng = np.random.default_rng(seed)
                us, vs = [], []
                for offset in (0, half):
                    mask = rng.random(len(iu)) < p1
                    us.append(iu[mask] + offset)
                    vs.append(ju[mask] + offset)
                xs, ys = np.nonzero(rng.random((half, half)) < p2)
                us.append(xs)
                vs.append(ys + half)
                us, vs = np.concatenate(us), np.concatenate(vs)
                if len(us) == 0:
                    continue
                scores.append(_planted_rwr(n, us, vs))
            arr = np.array(scores)
            rows.append({"p1": p1, "p2": p2, "runs": len(scores),
                         "mean_rwc": float(arr.mean()) if len(arr) else math.nan,
                         "std_rwc": float(arr.std()) if len(arr) else math.nan})
    return rows


def _planted_rwr(n, us, vs):
    import scipy.sparse.csgraph as csgraph

    half = n // 2
    adj = sp.csr_matrix((np.ones(2 * len(us)), (np.r_[us, vs], np.r_[vs, us])), shape=(n, n))
    _, labels = csgraph.connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    first = [int(np.flatnonzero(labels == c)[0]) for c in range(len(sizes))]
    # ties go to the component holding the smallest vertex
    comp = np.flatnonzero(labels == min(range(len(sizes)), key=lambda c: (-sizes[c], first[c])))
    # a component inside one block is skipped, as the program documents
    keep = comp if (comp < half).any() and (comp >= half).any() else np.arange(n)
    adj = adj[keep][:, keep]
    sides = (keep >= half).astype(np.int8)
    deg = np.diff(adj.indptr)
    m = len(keep)
    x_plus, y_plus = top_degree(deg, sides, default_k(sides))
    step = sp.diags(np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)) @ adj
    stop = np.zeros(m)
    stop[x_plus + y_plus] = 1.0
    step = sp.diags(1.0 - stop) @ step
    system = (sp.identity(m) - DAMPING * step.T).tocsr()
    pis = []
    for side in (0, 1):
        r = (sides == side) / float((sides == side).sum())
        # the spectral radius of DAMPING * step is below 1, so GMRES converges fast
        x, info = spla.gmres(system, r, rtol=1e-13, atol=0.0, restart=200, maxiter=100)
        if info != 0:
            raise RuntimeError("reference solve did not converge")
        pis.append(x / x.sum())
    return conditioned_score(*pis, sides, x_plus, y_plus)
