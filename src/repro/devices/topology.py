"""Device model: qubit connectivity graph plus shortest-path distances.

The distance matrix (computed once with Floyd--Warshall, as in the paper's
Equation 7) drives both the QAP mapping objective and the routing
heuristic's shortest-distance gate selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Largest accepted power-of-two scale for exact integer distances.
#: Float64 weights always have power-of-two denominators, but a weight
#: like 0.1 carries a 2**55 denominator; beyond this cap the scaled
#: integers would dwarf the float mantissa and the exactness check
#: below could not hold anyway.
_MAX_WEIGHT_SCALE = 1 << 40


@dataclass
class Device:
    """A quantum device: ``n_qubits`` nodes and undirected coupling edges.

    ``edge_errors`` optionally carries per-edge two-qubit gate error
    rates (keyed by the normalised ``(min, max)`` pair); the noise-aware
    routing criterion and the edge-aware fidelity estimator consume it.
    """

    name: str
    n_qubits: int
    edges: tuple[tuple[int, int], ...]
    edge_errors: dict[tuple[int, int], float] | None = None
    edge_weights: dict[tuple[int, int], float] | None = None
    _distance: np.ndarray | None = field(default=None, repr=False)
    _adjacency: list[set[int]] | None = field(default=None, repr=False)
    _integer_distances: bool | None = field(default=None, repr=False)
    _adjacency_matrix: np.ndarray | None = field(default=None, repr=False)
    _edge_incidence: np.ndarray | None = field(default=None, repr=False)
    # Memoised scaled_integer_distances, boxed in a 1-tuple so ``None``
    # can mean "not computed yet" (the computed value may itself be
    # None) and the cache survives pickling into worker processes.
    _scaled_distances: tuple | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) outside device")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
        normalized = tuple(sorted(seen))
        object.__setattr__(self, "edges", normalized)
        if self.edge_errors is not None:
            cleaned = {}
            for (a, b), rate in self.edge_errors.items():
                key = (min(a, b), max(a, b))
                if key not in seen:
                    raise ValueError(f"error rate for non-edge {key}")
                cleaned[key] = float(rate)
            object.__setattr__(self, "edge_errors", cleaned)

    def edge_error(self, a: int, b: int, default: float = 0.0) -> float:
        """Two-qubit error rate of an edge (``default`` if uncalibrated)."""
        if self.edge_errors is None:
            return default
        return self.edge_errors.get((min(a, b), max(a, b)), default)

    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> list[set[int]]:
        if self._adjacency is None:
            adj: list[set[int]] = [set() for _ in range(self.n_qubits)]
            for a, b in self.edges:
                adj[a].add(b)
                adj[b].add(a)
            self._adjacency = adj
        return self._adjacency

    def neighbors(self, qubit: int) -> set[int]:
        return self.adjacency[qubit]

    def are_neighbors(self, a: int, b: int) -> bool:
        return b in self.adjacency[a]

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """Boolean coupling matrix: ``A[p, q]`` iff ``p``-``q`` is an edge.

        Lets hot loops (the router's NN-absorption sweep) test whole
        batches of pairs with one fancy-indexed read.
        """
        if self._adjacency_matrix is None:
            mat = np.zeros((self.n_qubits, self.n_qubits), dtype=bool)
            for a, b in self.edges:
                mat[a, b] = mat[b, a] = True
            self._adjacency_matrix = mat
        return self._adjacency_matrix

    @property
    def edge_incidence(self) -> np.ndarray:
        """Boolean incidence: ``I[p, e]`` iff qubit ``p`` ends edge ``e``.

        Edge ids index :attr:`edges`, which is sorted ``(min, max)``
        order, so ``flatnonzero(I[qubits].any(axis=0))`` lists every edge
        touching ``qubits`` already sorted -- the order-respecting
        router's SWAP candidates come out of one row gather.
        """
        if self._edge_incidence is None:
            mat = np.zeros((self.n_qubits, len(self.edges)), dtype=bool)
            for index, (a, b) in enumerate(self.edges):
                mat[a, index] = mat[b, index] = True
            self._edge_incidence = mat
        return self._edge_incidence

    @property
    def distance(self) -> np.ndarray:
        """All-pairs shortest-path distances (Floyd--Warshall).

        Hop counts by default; with ``edge_weights`` set, weighted path
        lengths (used by noise-aware mapping/routing, where a weight
        reflects an edge's error rate).
        """
        if self._distance is None:
            n = self.n_qubits
            dist = np.full((n, n), np.inf)
            np.fill_diagonal(dist, 0.0)
            for a, b in self.edges:
                weight = 1.0
                if self.edge_weights is not None:
                    weight = self.edge_weights.get((a, b), 1.0)
                dist[a, b] = dist[b, a] = weight
            for k in range(n):
                # vectorized relaxation over intermediate node k
                dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
            if np.isinf(dist).any():
                raise ValueError(f"device {self.name} is disconnected")
            self._distance = dist
        return self._distance

    @property
    def integer_distances(self) -> bool:
        """True when every pairwise distance is integer-valued.

        Hop-count distances (no ``edge_weights``) always are; the
        incremental routing engine relies on this to keep float64 delta
        updates exact (and therefore bit-identical to a full rescan).
        """
        if self._integer_distances is None:
            dist = self.distance
            self._integer_distances = bool(
                np.array_equal(dist, np.rint(dist)))
        return self._integer_distances

    @property
    def scaled_integer_distances(
            self) -> tuple[list[list[int]], int] | None:
        """Exact integer rows of the distance matrix, plus their scale.

        Returns ``(rows, scale)`` with ``rows[a][b] * (1 / scale) ==
        distance[a, b]`` *bit-exactly* for every pair, or ``None`` when
        no such representation exists.  Hop-count devices scale by 1.
        Weighted devices scale by the largest power-of-two denominator
        of their edge weights (every float64 is a dyadic rational, so
        ``float.as_integer_ratio`` yields one exactly) and re-run
        Floyd--Warshall in arbitrary-precision integers; the result is
        accepted only if it reproduces the float matrix exactly, so a
        weight set whose float path sums round returns ``None``.

        The incremental routing engine keys on this: integer cost
        totals admit exact delta updates, so the engine extends to
        ``edge_weights``-weighted devices without the ulp drift that
        used to force the scalar-rescan fallback.
        """
        if self._scaled_distances is None:
            self._scaled_distances = (self._compute_scaled_distances(),)
        return self._scaled_distances[0]

    def _compute_scaled_distances(
            self) -> tuple[list[list[int]], int] | None:
        dist = self.distance
        if self.integer_distances:
            return [[int(x) for x in row] for row in dist.tolist()], 1
        weights = {}
        scale = 1
        for a, b in self.edges:
            weight = 1.0
            if self.edge_weights is not None:
                weight = float(self.edge_weights.get((a, b), 1.0))
            if not weight > 0.0 or not np.isfinite(weight):
                return None
            numerator, denominator = weight.as_integer_ratio()
            weights[(a, b)] = (numerator, denominator)
            scale = max(scale, denominator)
        if scale > _MAX_WEIGHT_SCALE:
            return None
        n = self.n_qubits
        inf = None
        rows: list[list[int | None]] = [
            [0 if i == j else inf for j in range(n)] for i in range(n)
        ]
        for (a, b), (numerator, denominator) in weights.items():
            scaled = numerator * (scale // denominator)
            current = rows[a][b]
            if current is None or scaled < current:
                rows[a][b] = rows[b][a] = scaled
        for k in range(n):
            row_k = rows[k]
            for i in range(n):
                via = rows[i][k]
                if via is None:
                    continue
                row_i = rows[i]
                for j in range(n):
                    leg = row_k[j]
                    if leg is None:
                        continue
                    candidate = via + leg
                    if row_i[j] is None or candidate < row_i[j]:
                        row_i[j] = candidate
        # exactness gate: the integer matrix must reproduce the float
        # one bit-for-bit, otherwise the two cost domains disagree and
        # the caller must keep the float path
        for i in range(n):
            for j in range(n):
                # Python-float comparison against the big int is exact;
                # the multiply is a pure exponent shift (scale is a
                # power of two), so the gate really is bit-level
                if rows[i][j] is None or \
                        float(dist[i, j]) * scale != rows[i][j]:
                    return None
        return rows, scale

    @property
    def max_degree(self) -> int:
        return max(len(s) for s in self.adjacency)

    @property
    def diameter(self) -> int:
        return int(self.distance.max())

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.n_qubits} qubits, {len(self.edges)} edges, "
            f"diameter {self.diameter}"
        )
