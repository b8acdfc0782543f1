"""Two-way graph partitioning: spectral bisection and partition import."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DegenerateStructureError, InputDataError
from .graph import connected_components


class Partition:
    """Total assignment of vertices to the two sides X and Y."""

    def __init__(self, sides):
        sides = np.asarray(sides, dtype=np.int8)
        if sides.ndim != 1:
            raise ValueError("sides must be a 1-d array of 0/1 labels")
        if not np.isin(sides, (0, 1)).all():
            raise ValueError("side labels must be 0 (X) or 1 (Y)")
        if len(sides) >= 2 and (not (sides == 0).any() or not (sides == 1).any()):
            raise DegenerateStructureError("both sides must be non-empty")
        sides.setflags(write=False)
        self.sides = sides

    @property
    def n(self):
        return len(self.sides)

    @property
    def x(self):
        """Vertex indices on side X."""
        return np.flatnonzero(self.sides == 0)

    @property
    def y(self):
        return np.flatnonzero(self.sides == 1)

    def side_of(self, v) -> str:
        return "X" if self.sides[v] == 0 else "Y"

    def swapped(self):
        return Partition(1 - self.sides)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.sides, other.sides)

    def __repr__(self):
        return f"Partition(|X|={len(self.x)}, |Y|={len(self.y)})"


def cut_edges(g, p: Partition):
    """Undirected edges with endpoints on different sides, as (u, v) with u < v."""
    return [(u, v) for u, v, _ in g.undirected_edges if p.sides[u] != p.sides[v]]


def weighted_cut(g, p: Partition) -> int:
    return sum(w for u, v, w in g.undirected_edges if p.sides[u] != p.sides[v])


def _fiedler_vector(g, seed, tol=1e-8, max_iters=10000):
    """Second-smallest Laplacian eigenvector by shifted power iteration.

    Iterates B = c*I - L (c an upper bound on the spectrum) while
    deflating the constant eigenvector, so the iterate converges to the
    eigenvector of the smallest nonzero Laplacian eigenvalue.
    """
    n = g.n_vertices
    adj = g.csr.matrix()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    lap = sp.diags(deg) - adj
    c = 2.0 * float(deg.max()) if n else 1.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    ones = np.full(n, 1.0 / np.sqrt(n))
    x -= (x @ ones) * ones
    x /= np.linalg.norm(x)
    for _ in range(max_iters):
        y = c * x - lap @ x
        y -= (y @ ones) * ones
        norm = np.linalg.norm(y)
        if norm == 0.0:
            # restart from a fresh direction; can occur only on degenerate input
            y = rng.standard_normal(n)
            y -= (y @ ones) * ones
            norm = np.linalg.norm(y)
        y /= norm
        if np.linalg.norm(y - x) < tol:
            return y
        x = y
    raise ConvergenceError(
        f"fiedler iteration did not converge within {max_iters} iterations",
        residual=float(np.linalg.norm(y - x)),
    )


def _refine_single_sweep(g, sides):
    """One Kernighan-Lin style pass: greedy pair swaps that reduce the
    weighted cut, each vertex moving at most once."""
    n = len(sides)
    csr, rows = g.csr, g.csr.rows
    weights = np.split(csr.weights, csr.indptr[1:-1])
    wadj = [dict(zip(g.neighbors(u).tolist(), weights[u].tolist())) for u in range(n)]
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


def spectral_bisection(g, seed=0) -> Partition:
    """Split a connected graph at the median of its Fiedler vector, then
    refine with a single swap sweep. Deterministic given the seed."""
    if g.n_vertices < 2:
        raise DegenerateStructureError("graph must have at least 2 vertices")
    if len(connected_components(g)) != 1:
        raise DegenerateStructureError("graph must be connected")
    fiedler = _fiedler_vector(g, seed)
    order = np.argsort(fiedler, kind="stable")
    sides = np.ones(g.n_vertices, dtype=np.int8)
    sides[order[: g.n_vertices // 2]] = 0
    sides = _refine_single_sweep(g, sides)
    return Partition(sides)


def import_partition(g, path) -> Partition:
    """Read a ``vertex-id<TAB>side`` file (side in {0,1}) covering every
    vertex of the graph exactly."""
    labels = {}
    bad_rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                bad_rows.append(f"line {lineno}: expected 2 columns")
                continue
            uid, side = parts[0].strip().lower(), parts[1].strip()
            if side not in ("0", "1"):
                bad_rows.append(f"line {lineno}: bad side label {side!r}")
                continue
            labels[uid] = int(side)
    known = set(g.ids)
    unknown = sorted(set(labels) - known)
    missing = sorted(known - set(labels))
    problems = bad_rows
    if unknown:
        problems = problems + [f"unknown vertices: {', '.join(unknown[:10])}"]
    if missing:
        problems = problems + [f"unlabeled vertices: {', '.join(missing[:10])}"]
    if problems:
        raise InputDataError(f"{path}: " + "; ".join(problems))
    sides = np.array([labels[uid] for uid in g.ids], dtype=np.int8)
    return Partition(sides)


def write_partition(g, p: Partition, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, uid in enumerate(g.ids):
            fh.write(f"{uid}\t{int(p.sides[i])}\n")
