"""Graph-level controversy scores.

Five measures over a partitioned conversation graph: two random-walk
scores (Monte Carlo and restart-walk variants), a betweenness-divergence
score, an embedding-separation score, a boundary-connectivity score, and
a label-propagation dipole score.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStructureError
from .partition import Partition
from .walks import (
    RestartWalkConfig,
    default_k,
    highest_degree,
    sample_walk,
    stationary_rwr,
    top_degree,
    walk_rng,
)

DENSITY_FLOOR = 1e-12
# Elements of one (n, b) temporary of the layout's repulsion step
# (float64, 512 KiB): b = LAYOUT_BLOCK_ELEMENTS // n columns at a time.
LAYOUT_BLOCK_ELEMENTS = 1 << 16
# Elements of one (n, b) plus one (m, b) temporary of the batched Brandes
# pass (2 MiB): b = BETWEENNESS_BLOCK_ELEMENTS // (n + m) sources at a time.
BETWEENNESS_BLOCK_ELEMENTS = 1 << 18


# ---------------------------------------------------------------------------
# Random Walk Controversy, Monte Carlo estimator
# ---------------------------------------------------------------------------


def rwc_mc(g, p: Partition, k=None, n_walks=10000, seed=0) -> float:
    """Monte Carlo random-walk controversy.

    Each walk picks a side with probability 0.5, starts uniformly inside
    it, and stops at the first top-degree vertex of either side. With
    P[A|B] = Pr[started in A | ended on B's terminals], the score is
    P[X|X]*P[Y|Y] - P[Y|X]*P[X|Y].
    """
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    k = default_k(p) if k is None else k
    hds = top_degree(g, p, k)
    terminals = hds.all
    x_plus = frozenset(hds.x_plus)
    # sampling is keyed to the side containing vertex 0 so that relabeling
    # X/Y cannot change which walks get drawn
    side0_is_x = p.side_of(0) == "X"
    side0 = p.x if side0_is_x else p.y
    side1 = p.y if side0_is_x else p.x
    counts = np.zeros((2, 2), dtype=np.int64)  # [start side0?][end side0-terminals?]
    for i in range(n_walks):
        rng = walk_rng(seed, i)
        from_side0 = rng.random() < 0.5
        pool = side0 if from_side0 else side1
        start = int(pool[rng.randrange(len(pool))])
        end = sample_walk(g, start, terminals, rng)
        end_side0 = (end in x_plus) == side0_is_x
        counts[0 if from_side0 else 1][0 if end_side0 else 1] += 1
    if side0_is_x:
        c_xx, c_xy, c_yx, c_yy = counts[0, 0], counts[0, 1], counts[1, 0], counts[1, 1]
    else:
        c_yy, c_yx, c_xy, c_xx = counts[0, 0], counts[0, 1], counts[1, 0], counts[1, 1]
    end_x = c_xx + c_yx
    end_y = c_yy + c_xy
    if end_x == 0 or end_y == 0:
        raise DegenerateStructureError(
            "insufficient terminations: no walk ended on one side; "
            "try increasing n_walks"
        )
    p_xx = c_xx / end_x
    p_yx = c_yx / end_x
    p_xy = c_xy / end_y
    p_yy = c_yy / end_y
    return float(p_xx * p_yy - p_yx * p_xy)


# ---------------------------------------------------------------------------
# Random Walk Controversy, restart-walk variant
# ---------------------------------------------------------------------------


def rwr_conditionals(g, p: Partition, k=None, cfg: RestartWalkConfig | None = None):
    """The four start-side probabilities conditioned on where the restart
    walk sits at steady state (own/other side's top-degree vertices).

    Returns a dict with keys "xx", "xy", "yx", "yy" where e.g. "xy" is
    Pr[start = X | end = Y+]. Complements hold by construction:
    xx + yx = 1 and xy + yy = 1.
    """
    cfg = cfg or RestartWalkConfig()
    k = default_k(p) if k is None else k
    hds = top_degree(g, p, k)
    dangling = hds.all
    p1 = stationary_rwr(g, p.x, dangling, cfg)
    p2 = stationary_rwr(g, p.y, dangling, cfg)
    w_x = len(p.x) / g.n_vertices
    w_y = len(p.y) / g.n_vertices
    x_plus, y_plus = list(hds.x_plus), list(hds.y_plus)
    m1x, m2x = float(p1[x_plus].sum()), float(p2[x_plus].sum())
    m1y, m2y = float(p1[y_plus].sum()), float(p2[y_plus].sum())
    den_x = w_x * m1x + w_y * m2x
    den_y = w_x * m1y + w_y * m2y
    if den_x <= 0.0 or den_y <= 0.0:
        raise DegenerateStructureError(
            "no stationary mass on a high-degree set; cannot condition"
        )
    return {
        "xx": w_x * m1x / den_x,
        "yx": w_y * m2x / den_x,
        "xy": w_x * m1y / den_y,
        "yy": w_y * m2y / den_y,
    }


def rwc_rwr(g, p: Partition, k=None, cfg: RestartWalkConfig | None = None) -> float:
    """Restart-walk variant of the random-walk controversy score.

    Computes the stationary distributions restarting on X and on Y with
    the top-degree vertices made dangling, then combines the four
    conditional probabilities into P_xx*P_yy - P_xy*P_yx. Well-defined on
    disconnected graphs (two cross-free sides score exactly 1).
    """
    c = rwr_conditionals(g, p, k, cfg)
    return float(c["xx"] * c["yy"] - c["xy"] * c["yx"])


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------


def edge_betweenness(g):
    """Exact edge betweenness over ordered vertex pairs (both (s,t) and
    (t,s) count) on the unweighted undirected view. Returns
    {(u, v) with u < v: value}, keyed in ``g.edge_array`` order.

    Brandes' accumulation in algebraic form, for a block of sources at
    once: a level-synchronous BFS counts shortest paths (sigma) by sparse
    x dense products, and a backward pass builds r = (1 + delta) / sigma
    level by level, where r[w] = 1/sigma[w] + sum of r over w's
    successors. Edge (u, v) with depth(v) = depth(u) + 1 then carries
    sigma[u] * r[v] from every source.
    """
    n = g.n_vertices
    edges = g.edge_array
    u, v = edges[:, 0], edges[:, 1]
    adj = g.csr.matrix(weighted=False)
    values = np.zeros(len(edges))
    block = max(1, BETWEENNESS_BLOCK_ELEMENTS // (n + len(edges)))
    for lo in range(0, n, block):
        sources = np.arange(lo, min(n, lo + block))
        cols = np.arange(len(sources))
        sigma = np.zeros((n, len(sources)))
        sigma[sources, cols] = 1.0
        depth = np.full(sigma.shape, -1, dtype=np.int32)
        depth[sources, cols] = 0
        frontier, level = sigma, 0
        while True:
            frontier = adj @ frontier
            frontier[depth >= 0] = 0.0
            reached = frontier > 0.0
            if not reached.any():
                break
            level += 1
            depth[reached] = level
            sigma += frontier
        ratio = np.zeros(sigma.shape)  # successor sums, then r, level by level
        for lv in range(level, 0, -1):
            at = depth == lv
            ratio[at] += 1.0 / sigma[at]
            pull = adj @ np.where(at, ratio, 0.0)
            prev = depth == lv - 1
            ratio[prev] = pull[prev]
        du, dv = depth[u], depth[v]
        values += np.where(dv == du + 1, sigma[u] * ratio[v], 0.0).sum(axis=1)
        values += np.where(du == dv + 1, sigma[v] * ratio[u], 0.0).sum(axis=1)
    return dict(zip(map(tuple, edges[:, :2].tolist()), values.tolist()))


def _scott_bandwidth(values):
    spread = values.std(ddof=1) if len(values) > 1 else 0.0
    h = spread * len(values) ** (-0.2)
    return h if h > 0 and np.isfinite(h) else 1e-3


def _kde_density(points, centers, bandwidth):
    """Gaussian KDE evaluated at ``points``, chunked to bound memory."""
    out = np.empty(len(points))
    norm = len(centers) * bandwidth * math.sqrt(2.0 * math.pi)
    step = max(1, (1 << 16) // max(1, len(centers)))
    for lo in range(0, len(points), step):
        z = (points[lo : lo + step, None] - centers[None, :]) / bandwidth
        out[lo : lo + step] = np.exp(-0.5 * z * z).sum(axis=1) / norm
    return out


def bcc(g, p: Partition, n_samples=10000, seed=0) -> float:
    """Betweenness-divergence controversy.

    Fits Gaussian KDEs (Scott's rule) to the betweenness values of cut
    and non-cut edges, estimates KL(cut || rest) by sampling n_samples
    points from the cut KDE, and maps through 1 - exp(-KL). Densities are
    floored at 1e-12; the result is clamped to [0, 1).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    bc = edge_betweenness(g)
    values = np.fromiter(bc.values(), dtype=float, count=len(bc))
    edges = g.edge_array
    cut = p.sides[edges[:, 0]] != p.sides[edges[:, 1]]
    cut_vals, rest_vals = values[cut], values[~cut]
    if len(cut_vals) == 0 or len(rest_vals) == 0:
        raise DegenerateStructureError(
            "degenerate partition for BCC: need both cut and non-cut edges"
        )
    h_cut = _scott_bandwidth(cut_vals)
    h_rest = _scott_bandwidth(rest_vals)
    rng = np.random.default_rng(seed)
    points = rng.choice(cut_vals, size=n_samples, replace=True)
    points = points + h_cut * rng.standard_normal(n_samples)
    p_cut = np.maximum(_kde_density(points, cut_vals, h_cut), DENSITY_FLOOR)
    p_rest = np.maximum(_kde_density(points, rest_vals, h_rest), DENSITY_FLOOR)
    d_kl = float(np.mean(np.log(p_cut) - np.log(p_rest)))
    return float(min(max(1.0 - math.exp(-d_kl), 0.0), np.nextafter(1.0, 0.0)))


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def force_layout(g, iterations=500, seed=0):
    """Two-dimensional spring-electrical layout (repulsion ~ 1/d,
    attraction ~ d^2/k along edges, annealed displacement cap).

    Deterministic given (graph, seed, iterations). Returns an (n, 2)
    coordinate array indexed by vertex. The repulsion is summed over
    (n, b) column blocks, b = LAYOUT_BLOCK_ELEMENTS // n: entry [j, i]
    of a block is vertex j's push on vertex i, and each column sums its
    n terms in index order.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n <= 1 or iterations < 1:
        return pos
    k = math.sqrt(1.0 / n)
    edges = g.edge_array[:, :2]
    block = max(1, LAYOUT_BLOCK_ELEMENTS // n)
    disp = np.empty((n, 2))
    t0 = 0.1
    for it in range(iterations):
        temp = t0 * (1.0 - it / iterations)
        xs, ys = pos.T.copy()
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            dx = xs[None, lo:hi] - xs[:, None]
            dy = ys[None, lo:hi] - ys[:, None]
            w = dx * dx
            w += dy * dy
            np.sqrt(w, out=w)
            w[np.arange(lo, hi), np.arange(hi - lo)] = np.inf
            np.maximum(w, 1e-9, out=w)
            w *= w
            np.divide(k * k, w, out=w)
            dx *= w
            dy *= w
            disp[lo:hi, 0] = dx.sum(axis=0)
            disp[lo:hi, 1] = dy.sum(axis=0)
        if len(edges):
            evec = pos[edges[:, 0]] - pos[edges[:, 1]]
            edist = np.maximum(np.sqrt((evec**2).sum(axis=-1)), 1e-9)
            pull = (edist / k)[:, None] * evec
            np.subtract.at(disp, edges[:, 0], pull)
            np.add.at(disp, edges[:, 1], pull)
        length = np.maximum(np.sqrt((disp**2).sum(axis=-1)), 1e-12)
        pos = pos + disp / length[:, None] * np.minimum(length, temp)[:, None]
    return pos


def ec(embedding, p: Partition) -> float:
    """Embedding controversy: 1 - (d_X + d_Y) / (2 * d_XY) where d_* are
    mean pairwise Euclidean distances within and across the sides.
    Singleton sides contribute a within-distance of 0."""
    # imported here: scipy.spatial adds ~0.1 s and ~7 MB to every CLI start
    from scipy.spatial.distance import cdist, pdist

    pos = np.asarray(embedding, dtype=float)
    xs, ys = pos[p.x], pos[p.y]
    # orient the cross matrix by the side holding vertex 0 so the float
    # summation order (hence the result, bit for bit) survives relabeling
    first, second = (xs, ys) if p.side_of(0) == "X" else (ys, xs)
    d_xy = float(cdist(first, second).mean())
    if d_xy == 0.0:
        raise DegenerateStructureError("coincident partitions: zero cross distance")
    d_x, d_y = (float(pdist(pts).mean()) if len(pts) > 1 else 0.0 for pts in (xs, ys))
    return float(1.0 - (d_x + d_y) / (2.0 * d_xy))


# ---------------------------------------------------------------------------
# Boundary connectivity
# ---------------------------------------------------------------------------


def gmck(g, p: Partition) -> float:
    """Boundary-connectivity controversy.

    A vertex is on the boundary if it touches the other side and also
    touches a same-side vertex that has no cross-side edge. The score
    averages d_i/(d_b + d_i) over the boundary (edges into non-boundary
    vs boundary vertices) and subtracts 0.5.
    """
    n = g.n_vertices
    sides = p.sides
    rows, cols = g.csr.rows, g.csr.indices
    cross = sides[rows] != sides[cols]
    has_cross = np.bincount(rows[cross], minlength=n) > 0
    touches_interior = np.bincount(rows[~cross & ~has_cross[cols]], minlength=n) > 0
    boundary = has_cross & touches_interior
    members = np.flatnonzero(boundary)
    if len(members) == 0:
        raise DegenerateStructureError(
            "no boundary (sides disconnected or fully mixed)"
        )
    d_b = np.bincount(rows, weights=boundary[cols], minlength=n)[members]
    deg = g.degrees[members]
    return float(((deg - d_b) / deg).mean() - 0.5)


# ---------------------------------------------------------------------------
# Dipole moment
# ---------------------------------------------------------------------------


def propagate_polarity(g, plus_seeds, minus_seeds, tol=1e-6, max_iters=1000):
    """Clamp +1/-1 on the seed vertices and sweep every other vertex to
    the mean of its neighbors until the max change drops below tol."""
    n = g.n_vertices
    values = np.zeros(n)
    values[list(plus_seeds)] = 1.0
    values[list(minus_seeds)] = -1.0
    clamped = np.zeros(n, dtype=bool)
    clamped[list(plus_seeds)] = clamped[list(minus_seeds)] = True
    free = np.flatnonzero(~clamped)
    adj = g.csr.matrix(weighted=False)
    deg = g.degrees
    inv_deg = np.zeros(n)
    nz = deg > 0
    inv_deg[nz] = 1.0 / deg[nz]
    for _ in range(max_iters):
        means = (adj @ values) * inv_deg
        change = np.abs(means[free] - values[free]).max() if len(free) else 0.0
        values[free] = means[free]
        if change < tol:
            break
    return values


def dipole_of_polarities(values, n) -> float:
    """(1 - |n+ - n-|/n) * |gc+ - gc-|/2; zero-polarity vertices count to
    neither group."""
    n_pos = int((values > 0).sum())
    n_neg = int((values < 0).sum())
    if n_pos == 0 or n_neg == 0:
        warnings.warn("one-sided propagation: no vertices on one polarity", stacklevel=3)
        return 0.0
    delta_a = abs(n_pos - n_neg) / n
    gc_pos = float(values[values > 0].mean())
    gc_neg = float(values[values < 0].mean())
    d = abs(gc_pos - gc_neg) / 2.0
    return float((1.0 - delta_a) * d)


def mblb(g, p: Partition, seed_fraction=0.05, tol=1e-6, max_iters=1000) -> float:
    """Label-propagation dipole moment.

    Clamps +1/-1 on the top seed_fraction highest-degree vertices of each
    side, propagates neighbor means synchronously to the rest, then
    combines the polarity-group imbalance and the gap between the group
    means: (1 - |n+ - n-|/|V|) * |gc+ - gc-|/2.
    """
    def seeds_of(side):
        return highest_degree(g, side, max(1, math.ceil(seed_fraction * len(side))))

    values = propagate_polarity(g, seeds_of(p.x), seeds_of(p.y), tol, max_iters)
    return dipole_of_polarities(values, g.n_vertices)


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------

MEASURE_NAMES = ("rwc_mc", "rwc_rwr", "bcc", "ec", "gmck", "mblb")


@dataclass
class MeasureEntry:
    name: str
    value: float
    parameters: dict
    seed: int | None = None


@dataclass
class ControversyReport:
    """All scores computed for one topic, with enough parameters to rerun."""

    topic: str
    n_vertices: int
    n_edges: int
    entries: list[MeasureEntry] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    timestamp: str = ""

    def add(self, name, value, parameters, seed=None):
        self.entries.append(
            MeasureEntry(name=name, value=float(value), parameters=dict(parameters), seed=seed)
        )

    def value_of(self, name):
        for entry in self.entries:
            if entry.name == name:
                return entry.value
        raise KeyError(name)

    def to_dict(self):
        return {
            "schema_version": 1,
            "topic": self.topic,
            "graph": {"vertices": self.n_vertices, "edges": self.n_edges},
            "config": self.config,
            "measures": [
                {
                    "name": e.name,
                    "value": e.value,
                    "parameters": e.parameters,
                    "seed": e.seed,
                }
                for e in self.entries
            ],
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_header(self) -> str:
        return ",".join(["topic", "n_vertices", "n_edges", *MEASURE_NAMES])

    def to_csv_row(self) -> str:
        by_name = {e.name: e.value for e in self.entries}
        cells = [self.topic, str(self.n_vertices), str(self.n_edges)]
        for name in MEASURE_NAMES:
            cells.append(repr(by_name[name]) if name in by_name else "")
        line = io.StringIO()
        csv.writer(line, lineterminator="").writerow(cells)
        return line.getvalue()
