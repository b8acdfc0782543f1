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
import random
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateStructureError
from .graph import _vertex_indices
from .partition import Partition
from .walks import (
    DAMPING,
    _restart_visits,
    _walk_step,
    _walker,
    highest_degree,
    top_degree,
)

DENSITY_FLOOR = 1e-12
# A center more than KDE_REACH bandwidths from a point adds exactly 0.0 to
# its Gaussian KDE (exp(-z^2/2) underflows beyond |z| ~ 38.6); _kde_density
# stops nearer, where the terms it leaves out sum to less than 2^-53 *
# DENSITY_FLOOR. One points x centers block holds at most
# KDE_BLOCK_ELEMENTS float64 (512 KiB).
KDE_REACH = 39.0
KDE_BLOCK_ELEMENTS = 1 << 16
# Elements of the one (n, b) buffer of the layout's repulsion step
# (float64, 512 KiB): b = min(n, LAYOUT_BLOCK_ELEMENTS // n) columns at a
# time. ec sums its distances in row blocks of at most as many elements.
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
    P[X|X]*P[Y|Y] - P[Y|X]*P[X|Y]. Every walk's side, start and steps
    are drawn in walk order from one ``random.Random(seed)``; ``seed``
    must be a non-negative int (``Random(-s)`` draws ``Random(s)``'s
    stream).
    """
    if n_walks < 1:
        raise ValueError("n_walks must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    x_plus, y_plus = top_degree(g, p, k)
    authorities = np.concatenate((x_plus, y_plus))
    labels = g.component_labels
    stranded = np.flatnonzero(~np.isin(labels, labels[authorities]))
    if len(stranded):
        raise DegenerateStructureError(
            f"{len(stranded)} vertices lie in components without an authority "
            f"(first: {g.ids[stranded[0]]!r}); no walk from them can end"
        )
    rng = random.Random(seed)
    walk = _walker(g, authorities, rng)
    # sampling is keyed to vertex 0's side, so relabeling X/Y draws the same
    # walks; every authority lies on its own side, so a walk ends on sides[end];
    # a start is drawn by the walker's rule, as rng.randrange(len(pool)) would
    sides = p.sides.tolist()
    pools = [(pool, len(pool).bit_length()) for pool in (p.x.tolist(), p.y.tolist())]
    counts = [[0, 0], [0, 0]]  # [start side][end side]
    getrandbits = rng.getrandbits
    for _ in range(n_walks):
        start = sides[0] if rng.random() < 0.5 else 1 - sides[0]
        pool, k = pools[start]
        r = getrandbits(k)
        while r >= len(pool):
            r = getrandbits(k)
        counts[start][sides[walk(pool[r])]] += 1
    return _rwc(_conditionals(np.array(counts, dtype=float), "insufficient terminations: "
                              "no walk ended on one side; try increasing n_walks"))


def _conditionals(table, degenerate):
    """Pr[start side | end side] from a 2 x 2 table indexed [start side][end
    side] (X = 0, Y = 1); an end side with no weight raises ``degenerate``."""
    ends = table.sum(axis=0)
    if (ends <= 0.0).any():
        raise DegenerateStructureError(degenerate)
    return table / ends


def _rwc(c):
    """P_XX * P_YY - P_XY * P_YX of a :func:`_conditionals` table."""
    return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])


# ---------------------------------------------------------------------------
# Random Walk Controversy, restart-walk variant
# ---------------------------------------------------------------------------


def rwr_conditionals(g, p: Partition, k=None, *, damping=DAMPING):
    """The start-side probabilities conditioned on where the restart walk
    sits at steady state (either side's top-degree vertices).

    Returns a 2 x 2 array ``c`` indexed [start side][end side] (X = 0,
    Y = 1), where e.g. ``c[0, 1]`` is Pr[start = X | end = Y+]. Each
    column sums to 1 by construction.

    The walk restarting on side S has the stationary law x / sum(x), where
    (I - d*M^T) x = 1_S at d = ``damping`` and M is the step matrix with
    the rows of the excursion ends D (the authorities and every vertex
    without out-arcs) zeroed. Its mass on A is 1_A . x = 1_S . h_A, with h_A the expected
    visits to A that :func:`walks._restart_visits` solves for, and summing
    the system gives sum(x) = (|S| - d * 1_S . h_D) / (1 - d). Where D is
    just the authorities, h_D = h_X+ + h_Y+; otherwise h_D is one more
    solve. The bound on each entry is at :data:`walks.RESTART_TOL`.
    """
    return _visit_conditionals(p, damping, *_restart_visits(g, *top_degree(g, p, k), damping))


def _visit_conditionals(p: Partition, d, hits_x, hits_y, end_visits):
    """:func:`rwr_conditionals` from :func:`walks._restart_visits` at damping ``d``."""
    hits_end = end_visits()
    table = np.empty((2, 2))
    for start, side in enumerate((p.x, p.y)):
        mass = (len(side) - d * hits_end[side].sum()) / (1.0 - d)
        w = len(side) / len(hits_x)
        table[start] = w * hits_x[side].sum() / mass, w * hits_y[side].sum() / mass
    return _conditionals(table, "no stationary mass on a high-degree set; cannot condition")


def rwc_rwr(g, p: Partition, k=None, *, damping=DAMPING) -> float:
    """Restart-walk variant of the random-walk controversy score.

    Takes the steady states of the walks restarting on X and on Y (the
    top-degree vertices restart too), conditions them on the side whose
    top-degree vertices they sit at (:func:`rwr_conditionals`), then
    combines the four conditionals into P_xx*P_yy - P_xy*P_yx.
    Well-defined on disconnected graphs (two cross-free sides score
    exactly 1).
    """
    return _rwc(rwr_conditionals(g, p, k, damping=damping))


# ---------------------------------------------------------------------------
# Betweenness
# ---------------------------------------------------------------------------


def edge_betweenness(g):
    """Exact edge betweenness over ordered vertex pairs (both (s,t) and
    (t,s) count) on the unweighted undirected view. Returns one value
    per row of ``g.edge_array``.

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
    return values


def _scott_bandwidth(values):
    spread = values.std(ddof=1) if len(values) > 1 else 0.0
    h = spread * len(values) ** (-0.2)
    return h if h > 0 and np.isfinite(h) else 1e-3


def _kde_density(points, centers, bandwidth):
    """Gaussian KDE evaluated at ``points``, leaving out only the terms
    too small to matter above DENSITY_FLOOR.

    With m centers the density is sum(exp(-z^2/2)) / norm, norm = m * h *
    sqrt(2 pi). A term below tau = 2^-53 * DENSITY_FLOOR * h * sqrt(2 pi),
    that is |z| > sqrt(-2 ln tau), is left out: the m of them add less
    than 2^-53 * DENSITY_FLOOR to a density. So a density at or above the
    floor is within 2^-53 relative of the full sum (the rest is summation
    order), and one below the floor stays below it. The reach is capped
    at KDE_REACH, beyond which every term is exactly 0.0, and is 0 when
    tau >= 1 (every density is then below the floor). The points and the
    centers are sorted once and each chunk of consecutive sorted points
    sums only the centers within reach of it. A chunk takes as many
    points as keep its (points, centers) block within KDE_BLOCK_ELEMENTS.
    """
    order = np.argsort(points)
    pts = points[order]
    cs = np.sort(centers)
    # ln tau; m cancels, so the reach depends on the bandwidth alone
    log_tau = (-53.0 * math.log(2.0) + math.log(DENSITY_FLOOR)
               + math.log(bandwidth * math.sqrt(2.0 * math.pi)))
    reach = min(KDE_REACH, math.sqrt(max(0.0, -2.0 * log_tau))) * bandwidth
    # rounding is monotone, so a center below round(p - reach) (above
    # round(p + reach)) lies more than reach from p exactly
    left = np.searchsorted(cs, pts - reach, "left")
    right = np.searchsorted(cs, pts + reach, "right")
    norm = len(centers) * bandwidth * math.sqrt(2.0 * math.pi)
    # a point within reach of more centers than a block holds gets its own
    buf = np.empty(max(KDE_BLOCK_ELEMENTS, int((right - left).max())))
    dens = np.empty(len(pts))
    lo = 0
    while lo < len(pts):
        a = left[lo]
        # the block of points lo..hi-1 spans centers a..right[hi-1]-1, which
        # only grows with hi: take the longest run that fits the buffer
        ahead = KDE_BLOCK_ELEMENTS // max(1, right[lo] - a)
        widths = right[lo : lo + ahead] - a
        sizes = np.arange(1, len(widths) + 1) * widths
        hi = lo + max(1, int(np.searchsorted(sizes, KDE_BLOCK_ELEMENTS, "right")))
        b = right[hi - 1]
        z = buf[: (hi - lo) * (b - a)].reshape(hi - lo, b - a)
        np.subtract(pts[lo:hi, None], cs[None, a:b], out=z)
        z /= bandwidth
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        np.sum(z, axis=1, out=dens[lo:hi])
        lo = hi
    out = np.empty(len(points))
    out[order] = dens / norm
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
    values = edge_betweenness(g)
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

    Deterministic given (graph, seed, iterations) for a given NumPy /
    BLAS build and CPU type. With OpenBLAS the thread count does not
    change the bits either, because every block's matmul is small enough
    to run on one thread: m * n * k = 3 * b * n <= 3 *
    LAYOUT_BLOCK_ELEMENTS for n up to 65,536 (OpenBLAS 0.3.31 kept this
    shape on one thread up to m * n * k = 3e6). That is a property of
    the BLAS build, not of matmul; MKL, for one, promises nothing of the
    kind.
    Returns an (n, 2) coordinate array indexed by vertex. The repulsion
    on vertex i is p_i * sum_j w_ij - sum_j w_ij p_j with w_ij = k^2 /
    max(d_ij^2, 1e-18): the k^2 / d force of the full (n, n, 2) form in
    another rounding order, except that two vertices that coincide to
    rounding push each other by rounding noise rather than by 0. It runs
    over (n, b) column blocks, b = min(n, LAYOUT_BLOCK_ELEMENTS // n), in
    one buffer allocated once: ``cdist`` writes a block's squared
    distances, three in-place passes turn them into weights, and one
    ``matmul`` against the rows [x_j, y_j, 1] gives every column's three
    weighted sums. ``np.subtract.at`` and ``np.add.at`` then take every
    edge's pull off its first end and add it to its second, in edge
    order.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    n = g.n_vertices
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n <= 1 or iterations < 1:
        return pos
    # imported here: scipy.spatial adds ~0.1 s and ~7 MB to every CLI start
    from scipy.spatial.distance import cdist

    k = math.sqrt(1.0 / n)
    e0, e1 = g.edge_array[:, 0], g.edge_array[:, 1]
    block = max(1, min(n, LAYOUT_BLOCK_ELEMENTS // n))
    buf = np.empty(n * block)
    diag = np.arange(block)
    pts = np.ones((n, 3))  # [x, y, 1] per vertex
    sums = np.empty((n, 3))  # [sum_j w_ij x_j, sum_j w_ij y_j, sum_j w_ij] per i
    t0 = 0.1
    for it in range(iterations):
        temp = t0 * (1.0 - it / iterations)
        pts[:, :2] = pos
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            w = buf[: n * (hi - lo)].reshape(n, hi - lo)
            cdist(pos, pos[lo:hi], "sqeuclidean", out=w)
            w[diag[: hi - lo] + lo, diag[: hi - lo]] = np.inf
            np.maximum(w, 1e-18, out=w)
            np.divide(k * k, w, out=w)
            np.matmul(w.T, pts, out=sums[lo:hi])
        xs, ys = pos[:, 0], pos[:, 1]
        disp_x = xs * sums[:, 2] - sums[:, 0]
        disp_y = ys * sums[:, 2] - sums[:, 1]
        ex, ey = xs[e0] - xs[e1], ys[e0] - ys[e1]
        pull = np.maximum(np.sqrt(ex * ex + ey * ey), 1e-9) / k
        ex *= pull
        ey *= pull
        np.subtract.at(disp_x, e0, ex)
        np.add.at(disp_x, e1, ex)
        np.subtract.at(disp_y, e0, ey)
        np.add.at(disp_y, e1, ey)
        length = np.maximum(np.sqrt(disp_x * disp_x + disp_y * disp_y), 1e-12)
        step = np.minimum(length, temp)
        pos = np.column_stack((xs + disp_x / length * step, ys + disp_y / length * step))
    return pos


def ec(embedding, p: Partition) -> float:
    """Embedding controversy: 1 - (d_X + d_Y) / (2 * d_XY) where d_* are
    mean pairwise Euclidean distances within and across the sides.
    Singleton sides contribute a within-distance of 0. Each mean is
    summed in order over row blocks of at most LAYOUT_BLOCK_ELEMENTS
    distances, so its memory does not grow with |X| * |Y|."""
    # imported here: scipy.spatial adds ~0.1 s and ~7 MB to every CLI start
    from scipy.spatial.distance import cdist

    pos = np.asarray(embedding, dtype=float)
    xs, ys = pos[p.x], pos[p.y]
    if not (len(xs) and len(ys)):
        raise DegenerateStructureError("ec needs two non-empty sides")
    # orient the cross sum by the side holding vertex 0 so the float
    # summation order (hence the result, bit for bit) survives relabeling
    first, second = (xs, ys) if p.side_of(0) == "X" else (ys, xs)
    rows = max(1, LAYOUT_BLOCK_ELEMENTS // len(second))
    total = 0.0
    for lo in range(0, len(first), rows):
        total += cdist(first[lo : lo + rows], second).sum()
    d_xy = float(total / (len(first) * len(second)))
    if d_xy == 0.0:
        raise DegenerateStructureError("coincident partitions: zero cross distance")
    d_x, d_y = (_mean_pair_distance(pts) if len(pts) > 1 else 0.0 for pts in (xs, ys))
    return float(1.0 - (d_x + d_y) / (2.0 * d_xy))


def _mean_pair_distance(a) -> float:
    """Mean Euclidean distance over the pairs i < j of a's rows, summed in
    order over row blocks: each block is taken against its own and every
    later row, the later rows counted whole and its own square half."""
    from scipy.spatial.distance import cdist

    rows = max(1, LAYOUT_BLOCK_ELEMENTS // len(a))
    total = 0.0
    for lo in range(0, len(a), rows):
        d = cdist(a[lo : lo + rows], a[lo:])
        own = min(rows, len(a) - lo)
        total += d[:, own:].sum() + d[:, :own].sum() / 2.0
    return float(total / (len(a) * (len(a) - 1) / 2.0))


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
    the mean of its neighbors until the max change drops below tol (the
    Jacobi sweep of the undirected :func:`walks._walk_step` stopped at the
    seeds). Raises ValueError naming the first seed outside [0, n) or the
    first minus seed that is also a plus seed, and ConvergenceError, with
    the last change, when max_iters sweeps do not get there."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    plus = _vertex_indices(g, plus_seeds, "seed")
    minus = _vertex_indices(g, minus_seeds, "seed")
    if (both := minus[np.isin(minus, plus)]).size:
        raise ValueError(f"seed index {both[0]} is both a plus and a minus seed")
    seeded = np.zeros(g.n_vertices)
    seeded[plus] = 1.0
    seeded[minus] = -1.0
    adjacency, w = _walk_step(g.csr, seeded != 0.0)
    values = seeded
    for _ in range(max_iters):
        new = seeded + w * (adjacency @ values)
        change = np.abs(new - values).max(initial=0.0)  # seeds never move
        values = new
        if change < tol:
            return values
    raise ConvergenceError(f"label propagation did not converge in {max_iters} iterations "
                           f"(last change {change:.3e})", residual=change)


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
            "measures": [asdict(e) for e in self.entries],
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
