"""Bounded-degree multigraphs, configuration-model generation, and edge-list I/O.

A graph is its edge multiset: a tuple of (u, w) pairs with u <= w, one per
edge, so it is symmetric by construction.  Instances are immutable and safe
to share read-only across threads.

Conventions:
  * vertex ids are dense 0-based integers,
  * a self-loop at v is the pair (v, v), once, and adds 2 to v's degree,
  * parallel edges are repeated pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidInputError, RetriesExhaustedError
from .rng import as_rng

SIMPLE_RETRY_CAP = 1000  # configuration-model draws for one simple graph


@dataclass(frozen=True)
class Graph:
    """Multigraph as its edge multiset, with a declared maximum degree."""

    n: int
    edges: tuple
    delta_max: int

    def __post_init__(self):
        """Check the vertex count, the edge ids and the degree bound."""
        n = self.n
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        degree = [0] * n
        for u, w in self.edges:
            if not 0 <= u <= w < n:
                for x in (u, w):
                    if not 0 <= x < n:
                        raise InvalidInputError(
                            f"neighbor id {x} out of range [0, {n})")
                raise InvalidInputError(f"edge ({u}, {w}) must list u <= w")
            degree[u] += 1
            degree[w] += 1
        if degree and max(degree) > self.delta_max:
            u = next(v for v, d in enumerate(degree) if d > self.delta_max)
            raise InvalidInputError(
                f"vertex {u} has degree {degree[u]} > delta_max={self.delta_max}"
            )

    @cached_property
    def neighbors(self) -> list:
        """Per vertex, its non-loop neighbours, parallel edges once per copy."""
        nbrs = [[] for _ in range(self.n)]
        for u, w in self.edges:
            if u != w:
                nbrs[u].append(w)
                nbrs[w].append(u)
        return [tuple(row) for row in nbrs]

    @cached_property
    def edge_ends(self):
        """The edges as two read-only index arrays (u, w)."""
        import numpy as np

        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        ends.setflags(write=False)
        return ends


def random_regular(n: int, delta: int, seed, simple: bool = False) -> Graph:
    """Sample a delta-regular multigraph from the configuration model.

    Takes delta half-edge copies of every vertex and pairs them by a uniform
    perfect matching.  With ``simple=True``, rejection-samples until the
    result has no self-loop or parallel edge (at most SIMPLE_RETRY_CAP draws;
    refused at once when delta > n - 1, which no simple graph has).
    The edges are sorted by lower end, a vertex's loops after its other
    edges, and otherwise kept in matching order.
    """
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if delta < 0:
        raise InvalidInputError("degree must be nonnegative")
    if (n * delta) % 2 != 0:
        raise InvalidInputError(f"n*delta = {n * delta} must be even")
    if simple and delta > n - 1:
        raise InvalidInputError(f"no simple graph on {n} vertices has degree {delta}")
    import numpy as np

    rng = as_rng(seed)
    for _ in range(SIMPLE_RETRY_CAP if simple else 1):
        # stub i belongs to vertex i // delta
        ends = rng.permutation(n * delta) // delta
        lo = np.minimum(ends[::2], ends[1::2])
        hi = np.maximum(ends[::2], ends[1::2])
        # a simple draw has no loop (lo == hi) and no repeated pair lo n + hi
        if simple:
            pairs = np.sort(lo * n + hi)
            if (lo == hi).any() or (pairs[1:] == pairs[:-1]).any():
                continue
        edges = sorted(zip(lo.tolist(), hi.tolist()),
                       key=lambda e: (e[0], e[0] == e[1]))
        return Graph(n=n, edges=tuple(edges), delta_max=delta)
    raise RetriesExhaustedError(
        f"no simple graph found in {SIMPLE_RETRY_CAP} configuration-model draws"
    )


def disjoint_union(base: Graph, m: int) -> Graph:
    """Stack m disjoint copies of ``base``; copy i occupies ids [i*n, (i+1)*n),
    so vertex v lies in copy v // base.n."""
    if m < 1:
        raise InvalidInputError("need m >= 1 copies")
    n = base.n
    edges = tuple((u + i * n, w + i * n) for i in range(m) for u, w in base.edges)
    return Graph(n=m * n, edges=edges, delta_max=base.delta_max)


def write_edge_list(g: Graph, path) -> None:
    """Write 'n delta' header plus one 'u v' line per edge of the multiset."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.delta_max}\n")
        for u, w in g.edges:
            fh.write(f"{u} {w}\n")


def read_edge_list(path) -> Graph:
    """Inverse of :func:`write_edge_list`: the file's edges in file order."""
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
        edges = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise InvalidInputError(f"{path}:{lineno}: expected 'u v'")
            try:
                u, w = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: malformed ids") from exc
            if not (0 <= u < n and 0 <= w < n):
                raise InvalidInputError(f"{path}:{lineno}: id out of range")
            edges.append((u, w) if u <= w else (w, u))
    return Graph(n=n, edges=tuple(edges), delta_max=delta_max)
