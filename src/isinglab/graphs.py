"""Bounded-degree multigraphs, configuration-model generation, and edge-list I/O.

Graphs are immutable after construction: adjacency lists are plain Python
lists owned by the instance and never mutated by library code, so instances
are safe to share read-only across threads.

Conventions:
  * vertex ids are dense 0-based integers,
  * a self-loop at v puts v twice into adjacency[v] (degree contribution 2),
  * parallel edges are represented by repeated neighbor entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from functools import cached_property

from .errors import InvalidInputError, RetriesExhaustedError
from .rng import as_rng

SIMPLE_RETRY_CAP = 1000  # configuration-model draws for one simple graph


@dataclass(frozen=True)
class Graph:
    """Multigraph with adjacency lists and a declared maximum degree."""

    n: int
    adjacency: list
    delta_max: int

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        if len(self.adjacency) != self.n:
            raise InvalidInputError("adjacency must have one entry per vertex")
        validate_graph(self)

    @cached_property
    def neighbors(self) -> list:
        """Per vertex, its non-loop neighbours, parallel edges once per copy."""
        return [tuple(w for w in row if w != v) for v, row in enumerate(self.adjacency)]

    @cached_property
    def edge_ends(self):
        """The edges in ``edges()`` order as two read-only index arrays (u, w)."""
        import numpy as np

        ends = np.array(list(self.edges()), dtype=np.intp).reshape(-1, 2).T
        ends.setflags(write=False)
        return ends

    def edges(self):
        """Yield each edge of the multiset once, as (u, v) with u <= v."""
        for u in range(self.n):
            loops = 0
            for w in self.adjacency[u]:
                if w > u:
                    yield (u, w)
                elif w == u:
                    loops += 1
            for _ in range(loops // 2):
                yield (u, u)


def validate_graph(g: Graph) -> None:
    """Check id ranges, multiset symmetry, and the degree bound."""
    seen = Counter()
    for u, nbrs in enumerate(g.adjacency):
        if len(nbrs) > g.delta_max:
            raise InvalidInputError(
                f"vertex {u} has degree {len(nbrs)} > delta_max={g.delta_max}"
            )
        for w in nbrs:
            if not (0 <= w < g.n):
                raise InvalidInputError(f"neighbor id {w} out of range [0, {g.n})")
            seen[(u, w)] += 1
    for (u, w), c in seen.items():
        if seen[(w, u)] != c:
            raise InvalidInputError(
                f"adjacency not symmetric as a multiset at edge ({u}, {w})"
            )


@dataclass(frozen=True)
class UnionGraph:
    """Disjoint copies of a base graph, with vertex -> copy bookkeeping."""

    graph: Graph
    component_of: list


def _has_loop_or_parallel(adjacency) -> bool:
    for u, nbrs in enumerate(adjacency):
        if u in nbrs:
            return True
        if len(set(nbrs)) != len(nbrs):
            return True
    return False


def random_regular(n: int, delta: int, seed, simple: bool = False) -> Graph:
    """Sample a delta-regular multigraph from the configuration model.

    Takes delta half-edge copies of every vertex and pairs them by a uniform
    perfect matching.  With ``simple=True``, rejection-samples until the
    result has no self-loop or parallel edge (at most SIMPLE_RETRY_CAP draws).
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if delta < 0:
        raise InvalidInputError("degree must be nonnegative")
    if (n * delta) % 2 != 0:
        raise InvalidInputError(f"n*delta = {n * delta} must be even")
    rng = as_rng(seed)
    for _ in range(SIMPLE_RETRY_CAP if simple else 1):
        stubs = [v for v in range(n) for _ in range(delta)]
        perm = rng.permutation(n * delta)
        adjacency = [[] for _ in range(n)]
        for i in range(0, n * delta, 2):
            u, w = stubs[perm[i]], stubs[perm[i + 1]]
            adjacency[u].append(w)
            adjacency[w].append(u)
        if not simple or not _has_loop_or_parallel(adjacency):
            return Graph(n=n, adjacency=adjacency, delta_max=delta)
    raise RetriesExhaustedError(
        f"no simple graph found in {SIMPLE_RETRY_CAP} configuration-model draws"
    )


def disjoint_union(base: Graph, m: int) -> UnionGraph:
    """Stack m disjoint copies of ``base``; copy i occupies ids [i*n, (i+1)*n)."""
    if m < 1:
        raise InvalidInputError("need m >= 1 copies")
    n = base.n
    adjacency = []
    component_of = []
    for i in range(m):
        off = i * n
        adjacency.extend([w + off for w in nbrs] for nbrs in base.adjacency)
        component_of.extend([i] * n)
    graph = Graph(n=m * n, adjacency=adjacency, delta_max=base.delta_max)
    return UnionGraph(graph=graph, component_of=component_of)


def write_edge_list(g: Graph, path) -> None:
    """Write 'n delta' header plus one 'u v' line per edge of the multiset."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.delta_max}\n")
        for u, w in g.edges():
            fh.write(f"{u} {w}\n")


def read_edge_list(path) -> Graph:
    """Inverse of :func:`write_edge_list` on the adjacency multiset."""
    try:
        fh = open(path)
    except OSError as exc:
        raise InvalidInputError(f"cannot read graph {path}: {exc.strerror}") from exc
    with fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InvalidInputError(f"{path}: header must be 'n delta'")
        try:
            n, delta_max = int(header[0]), int(header[1])
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed header {header}") from exc
        adjacency = [[] for _ in range(n)]
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInputError(f"{path}:{lineno}: expected 'u v'")
            try:
                u, w = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed ids") from exc
            if not (0 <= u < n and 0 <= w < n):
                raise InvalidInputError(f"{path}:{lineno}: id out of range")
            adjacency[u].append(w)
            if w != u:
                adjacency[w].append(u)
            else:
                adjacency[u].append(u)
    return Graph(n=n, adjacency=adjacency, delta_max=delta_max)

