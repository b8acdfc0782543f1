"""Shared fixtures: the karate-club data, small graph builders, random corpora."""
from pathlib import Path

import numpy as np
import pytest

import controversy as cv

DATA_DIR = Path(__file__).parent / "data"
KARATE_EDGES = DATA_DIR / "karate_edges.tsv"
KARATE_FACTIONS = DATA_DIR / "karate_factions.tsv"


def make_graph(n, edges, directed=False):
    """Graph on vertices 0..n-1 (ids are the decimal strings, in order)."""
    return cv.ConversationGraph(
        [str(i) for i in range(n)], [(u, v, 1) for u, v in edges], directed
    )


def clique_edges(vertices):
    vs = list(vertices)
    return [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]


def barbell(k=5):
    """Two K_k cliques joined by a single bridge; sides = the cliques."""
    edges = clique_edges(range(k)) + clique_edges(range(k, 2 * k))
    edges.append((k - 1, k))
    g = make_graph(2 * k, edges)
    sides = np.array([0] * k + [1] * k, dtype=np.int8)
    return g, cv.Partition(sides)


def two_cliques(k=10):
    """Two disconnected K_k cliques; sides = the cliques."""
    edges = clique_edges(range(k)) + clique_edges(range(k, 2 * k))
    g = make_graph(2 * k, edges)
    return g, cv.Partition(np.array([0] * k + [1] * k, dtype=np.int8))


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return make_graph(n, clique_edges(range(n)))


def keyed_betweenness(g):
    """``cv.edge_betweenness(g)`` keyed by its ``g.edge_array`` rows
    {(u, v) with u < v: value}, the form the oracles return."""
    values = cv.edge_betweenness(g)
    assert isinstance(values, np.ndarray) and values.shape == (g.n_edges,)
    return dict(zip(map(tuple, g.edge_array[:, :2].tolist()), values.tolist()))


def random_connected_graph(rng, n, extra_edge_prob=0.15):
    """Random spanning tree plus independent extra edges: always connected."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((u, v))
    return make_graph(n, sorted(edges))


def random_partition(rng, n):
    sides = (rng.random(n) < 0.5).astype(np.int8)
    if not sides.any():
        sides[int(rng.integers(0, n))] = 1
    if sides.all():
        sides[int(rng.integers(0, n))] = 0
    return cv.Partition(sides)


@pytest.fixture(scope="session")
def karate():
    g = cv.read_edgelist(KARATE_EDGES, directed=False)
    p = cv.import_partition(g, KARATE_FACTIONS)
    return g, p


# one human-readable verdict line per acceptance criterion, echoed at the
# end of the run (test_acceptance populates it)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
