"""Two-way graph partitioning: spectral bisection and partition import."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConvergenceError, DegenerateStructureError, InputDataError
from .graph import _user_id, read_lines


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


def _fiedler_vector(g, seed):
    """Eigenvector of the second-smallest eigenvalue of the weighted
    Laplacian, by Lanczos (ARPACK ``eigsh``) from a seeded start vector.

    The start is a ``default_rng(seed)`` normal draw with its constant
    component projected out. The vector's sign is chosen so that its
    inner product with the start is positive, which fixes the two sides'
    orientation for a given seed.
    """
    adj = g.csr.matrix()
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    x = np.random.default_rng(seed).standard_normal(g.n_vertices)
    x -= x.mean()
    if g.n_vertices == 2:
        # ARPACK needs k < n; at n = 2 the projected start is the eigenvector
        return x
    try:
        vals, vecs = eigsh(lap, k=2, which="SA", v0=x)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos eigensolver did not converge: {exc}") from exc
    v = vecs[:, np.argmax(vals)]
    return v if v @ x > 0 else -v


def _refine_single_sweep(g, sides):
    """One Kernighan-Lin style pass: greedy pair swaps that reduce the
    weighted cut, each vertex moving at most once.

    Gains are updated in place after each move. Weights are integers, so
    every gain is an exact float and matches a full recompute."""
    n = len(sides)
    indptr, indices, weights = g.csr
    rows = g.csr.rows
    # gain of moving a vertex to the other side
    cross = sides[rows] != sides[indices]
    gain = np.bincount(rows, weights=np.where(cross, weights, -weights), minlength=n)
    locked = np.zeros(n, dtype=bool)
    while True:
        free = np.flatnonzero(~locked)
        order = free[np.lexsort((free, -gain[free]))]
        xs, ys = order[sides[order] == 0], order[sides[order] == 1]
        if not len(xs) or not len(ys):
            break
        best, best_pair = 0.0, None
        for u in xs:
            if gain[u] + gain[ys[0]] <= best:
                break
            row = slice(indptr[u], indptr[u + 1])
            w_u = dict(zip(indices[row].tolist(), weights[row].tolist()))
            for v in ys:
                if gain[u] + gain[v] <= best:
                    break
                pair_gain = gain[u] + gain[v] - 2 * w_u.get(v, 0)
                if pair_gain > best or (
                    pair_gain == best and best_pair is not None and (u, v) < best_pair
                ):
                    best, best_pair = pair_gain, (u, v)
        if best_pair is None:
            break
        for moved in best_pair:
            row = slice(indptr[moved], indptr[moved + 1])
            nbrs = indices[row]
            # a neighbour on the old side gains 2·weight; the others lose it
            np.add.at(gain, nbrs, np.where(sides[nbrs] == sides[moved], 2, -2) * weights[row])
            gain[moved] = -gain[moved]
            sides[moved] = 1 - sides[moved]
            locked[moved] = True
    return sides


def spectral_bisection(g, seed=0) -> Partition:
    """Split a connected graph at the median of its Fiedler vector, then
    refine with a single swap sweep. Deterministic given the seed."""
    if g.n_vertices < 2:
        raise DegenerateStructureError("graph must have at least 2 vertices")
    if g.component_labels.any():
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
    labels = {}  # vertex id -> (side, line number)
    bad_rows = []
    for lineno, line in read_lines(path, comments=True):
        parts = line.split("\t")
        try:
            if len(parts) != 2:
                raise InputDataError("expected 2 columns")
            uid, side = _user_id(parts[0]), parts[1].strip()
            if side not in ("0", "1"):
                raise InputDataError(f"bad side label {side!r}")
            first_side, first_line = labels.setdefault(uid, (int(side), lineno))
            if first_side != int(side):
                raise InputDataError(
                    f"vertex {uid!r} labeled {side}, but {first_side} on line {first_line}")
        except InputDataError as exc:
            bad_rows.append(f"line {lineno}: {exc}")
    known = set(g.ids)
    unknown = sorted(set(labels) - known)
    missing = sorted(known - set(labels))
    problems = bad_rows + [f"{what} vertices: {', '.join(ids[:10])}"
                           for what, ids in (("unknown", unknown), ("unlabeled", missing)) if ids]
    if problems:
        raise InputDataError(f"{path}: " + "; ".join(problems))
    sides = np.array([labels[uid][0] for uid in g.ids], dtype=np.int8)
    return Partition(sides)


def write_partition(g, p: Partition, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i, uid in enumerate(g.ids):
            fh.write(f"{uid}\t{int(p.sides[i])}\n")
