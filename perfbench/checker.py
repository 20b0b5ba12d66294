"""Output checks made outside the program under test.

Adjacency comes from the collection's public ``edge_lists()`` only; the
package's own ``verify_coloured_embedding`` and ``GraphCollection.has_edge``
are deliberately not used, so a fault in either cannot hide a wrong answer.
"""

from __future__ import annotations


class CheckError(Exception):
    """An output of the program failed an independent check."""


class EdgeSets:
    """Adjacency of every graph of a collection, rebuilt from its edge lists.

    Graph ``c`` (1-based colour) is an n*n byte matrix: entry ``u*n + v`` is
    1 exactly when ``(u, v)`` appears in that graph's edge list.  The
    per-graph degrees are counted from the same lists.  A graph whose edge
    list equals the previous one shares its matrix.
    """

    def __init__(self, n: int, edge_lists) -> None:
        self.n = n
        self.matrices: list[bytearray] = []
        self.min_degrees: list[int] = []
        previous = None
        for edges in edge_lists:
            if edges != previous:
                matrix = bytearray(n * n)
                degree = [0] * n
                for u, v in edges:
                    matrix[u * n + v] = 1
                    matrix[v * n + u] = 1
                    degree[u] += 1
                    degree[v] += 1
                previous = edges
            self.matrices.append(matrix)
            self.min_degrees.append(min(degree))

    @classmethod
    def of(cls, collection) -> "EdgeSets":
        return cls(collection.n, collection.edge_lists())

    def adjacent(self, colour: int, u: int, v: int) -> bool:
        if not 1 <= colour <= len(self.matrices):
            return False
        return bool(self.matrices[colour - 1][u * self.n + v])


def check_cycle(edge_sets: EdgeSets, pattern, vertices) -> None:
    """Raise :class:`CheckError` unless ``vertices`` realises ``pattern``.

    The vertex list must be a permutation of ``range(n)``, and for every
    position i and every d in 1..k the vertices at i and (i+d) mod n must be
    adjacent in the graph the pattern names for that host edge.
    """
    n, k = edge_sets.n, pattern.host.k
    vertices = list(vertices)
    if pattern.host.order != n or sorted(vertices) != list(range(n)):
        raise CheckError("vertex list is not a permutation of range(n)")
    colours = pattern.colours
    for i in range(n):
        for d in range(1, k + 1):
            j = (i + d) % n
            colour = colours[(i, j) if i < j else (j, i)]
            if not edge_sets.adjacent(colour, vertices[i], vertices[j]):
                raise CheckError(
                    f"positions ({i},{j}) hold vertices ({vertices[i]},{vertices[j]}), "
                    f"which are not adjacent in graph {colour}"
                )
