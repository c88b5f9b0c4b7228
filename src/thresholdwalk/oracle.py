"""Formula-free reference computations used to validate every closed form.

Everything here works from the explicit graph structure, never from the
construction code: numeric eigensolves, fundamental-matrix first-passage
times, and exact spanning-tree counts by Kirchhoff's matrix-tree theorem.
The tree counts of any batch of induced subgraphs come from one stack of
reduced Laplacians and one fraction-free (Bareiss) elimination over all of
it.  The spanning 2-forests are counted from those tree counts: a 2-forest
is a spanning tree on each side of a vertex bipartition, so one batch over
every vertex subset serves them all.  Slower than the closed forms by
design; that independence is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import AdjacencyStructure
from .errors import (
    Disconnected,
    EigensolveFailure,
    IndexOutOfRange,
    OrderTooSmall,
    SameVertex,
    SingularSolve,
    TooLarge,
)

FOREST_ORDER_CAP = 9  # 2^(n-1) bipartitions; an all-minors matrix-tree certificate is the route past it


def is_connected(graph: AdjacencyStructure) -> bool:
    """Breadth-first reachability from vertex 1."""
    if graph.n == 0:
        return False
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors[v - 1]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return len(seen) == graph.n


def _require_connected(graph: AdjacencyStructure) -> None:
    if not is_connected(graph):
        raise Disconnected("oracle computations need a connected graph")


def transition_matrix(graph: AdjacencyStructure) -> np.ndarray:
    """Row-stochastic random-walk matrix: each row of A divided by its degree."""
    A = graph.adjacency_matrix().astype(float)
    deg = A.sum(axis=1)
    if (deg == 0).any():
        raise Disconnected("an isolated vertex has no outgoing transition")
    return A / deg[:, None]


def stationary_distribution(graph: AdjacencyStructure) -> np.ndarray:
    """Stationary vector w with w_i proportional to the degree of vertex i."""
    deg = np.array(graph.degree_sequence(), dtype=float)
    return deg / deg.sum()


def _walk_eigenvalues(graph: AdjacencyStructure) -> np.ndarray:
    """Eigenvalues of the transition matrix, descending.

    Computed from the symmetric similarity D^(-1/2) A D^(-1/2), which shares
    the spectrum of D^(-1) A but keeps the solve well conditioned.
    """
    A = graph.adjacency_matrix().astype(float)
    deg = A.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    sym = A * inv_sqrt[:, None] * inv_sqrt[None, :]
    try:
        vals = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    return vals[::-1]


def kemeny_eigen_oracle(graph: AdjacencyStructure) -> float:
    """Kemeny's constant from the walk spectrum: sum of 1/(1 - rho_j) over rho_j != 1.

    Exactly one eigenvalue (the one nearest 1) is removed; a genuine
    eigenvalue at -1 (bipartite case, e.g. stars) is kept and contributes
    1/2.
    """
    if graph.n < 2:
        raise OrderTooSmall("Kemeny's constant needs at least two vertices")
    _require_connected(graph)
    vals = _walk_eigenvalues(graph)
    drop = int(np.argmin(np.abs(vals - 1.0)))
    kept = np.delete(vals, drop)
    return float((1.0 / (1.0 - kept)).sum())


@dataclass(frozen=True)
class WalkStatistics:
    """Floating random-walk bundle for one graph.

    Attributes
    ----------
    transition : ndarray, shape (n, n)
        Row-stochastic walk matrix.
    stationary : ndarray, shape (n,)
        Degree-proportional stationary vector.
    mfpt : ndarray, shape (n, n)
        Mean first passage times m[i, j]; the diagonal is zero by convention.
    kemeny : float
        Stationary-weighted mean first passage time out of vertex 1 (the
        same value for every start vertex).
    """

    n: int
    transition: np.ndarray
    stationary: np.ndarray
    mfpt: np.ndarray
    kemeny: float


def mfpt_matrix(graph: AdjacencyStructure) -> WalkStatistics:
    """Mean first passage times via the fundamental matrix Z = (I - T + 1 w^T)^(-1).

    m[i, j] = (z_jj - z_ij) / w_j for i != j.  The solve uses partial
    pivoting and is rejected if the residual exceeds 1e-9.
    """
    if graph.n < 2:
        raise OrderTooSmall("first passage times need at least two vertices")
    _require_connected(graph)
    n = graph.n
    T = transition_matrix(graph)
    w = stationary_distribution(graph)
    system = np.eye(n) - T + np.outer(np.ones(n), w)
    try:
        Z = np.linalg.solve(system, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularSolve(str(exc)) from exc
    residual = float(np.abs(system @ Z - np.eye(n)).max())
    if residual > 1e-9:
        raise SingularSolve(f"fundamental-matrix residual {residual:.3e} exceeds 1e-9")
    M = (np.diag(Z)[None, :] - Z) / w[None, :]
    np.fill_diagonal(M, 0.0)
    kemeny = float((w * M[0]).sum())
    return WalkStatistics(n, T, w, M, kemeny)


def accessibility_oracle(graph: AdjacencyStructure) -> np.ndarray:
    """Accessibility indices alpha(j) = sum_i w_i m_ij from the first-passage matrix."""
    stats = mfpt_matrix(graph)
    return stats.stationary @ stats.mfpt


def resistance_oracle(graph: AdjacencyStructure) -> np.ndarray:
    """Numeric effective resistances r_ij = l+_ii + l+_jj - 2 l+_ij.

    The pseudoinverse comes from an eigendecomposition of L with the single
    near-zero eigenvalue zeroed out.
    """
    _require_connected(graph)
    A = graph.adjacency_matrix().astype(float)
    L = np.diag(A.sum(axis=1)) - A
    try:
        vals, vecs = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    inv = np.zeros_like(vals)
    zero_idx = int(np.argmin(np.abs(vals)))
    for idx in range(len(vals)):
        if idx != zero_idx:
            inv[idx] = 1.0 / vals[idx]
    pinv = (vecs * inv[None, :]) @ vecs.T
    q = np.diag(pinv)
    return q[:, None] + q[None, :] - 2.0 * pinv


def spanning_tree_oracle(graph: AdjacencyStructure) -> int:
    """Spanning-tree count as an exact determinant of the reduced Laplacian."""
    _require_connected(graph)
    return int(_tree_counts(graph, np.ones((graph.n, 1), dtype=bool))[0])


def _tree_counts(graph: AdjacencyStructure, member: np.ndarray) -> np.ndarray:
    """Spanning trees of the subgraph induced on each column of ``member``.

    ``member`` is an (n, B) boolean matrix; column b holds the vertex set of
    subgraph b, which must be nonempty.  Kirchhoff: each count is the
    determinant of that subgraph's Laplacian with its last member deleted,
    padded with the identity on every other vertex, so all B matrices share
    one (n, n, B) stack.  0 when the subgraph is disconnected, 1 for a single
    vertex.  Every entry the elimination forms is a minor, at most Hadamard's
    H = prod(d_v + 1) in size, so each update a p - b c stays within 2 H^2:
    the stack is int64 when that is below 2^63, and Python integers otherwise.
    """
    n, batch = member.shape
    A = graph.adjacency_matrix()
    last = n - 1 - np.argmax(member[::-1], axis=0)
    kept = member.copy()
    kept[last, np.arange(batch)] = False
    stack = -A[:, :, None] * (kept[:, None, :] & kept[None, :, :])
    diagonal = np.arange(n)
    stack[diagonal, diagonal] = np.where(kept, A @ member, 1)
    hadamard = math.prod(len(nb) + 1 for nb in graph.neighbors)
    if 2 * hadamard * hadamard >= 1 << 63:
        stack = stack.astype(object)
    return _psd_determinants(stack)


def _psd_determinants(stack: np.ndarray) -> np.ndarray:
    """Determinants of the positive semidefinite integer matrices ``stack[:, :, b]``.

    Fraction-free (Bareiss) elimination over the whole batch at once, without
    pivoting, overwriting ``stack``.  By Sylvester's identity every entry stays
    a minor of its matrix, so each division is exact.  A zero pivot of a
    semidefinite matrix is a zero leading minor, so that determinant is 0; its
    row and column are then zero too, and dividing by the previous pivot
    instead leaves the matrix as it is, which keeps the rest of the batch exact.
    """
    n, batch = stack.shape[0], stack.shape[2]
    prev = np.ones(batch, dtype=stack.dtype)
    singular = np.zeros(batch, dtype=bool)
    for k in range(n - 1):
        pivot = stack[k, k]
        zero = pivot == 0
        if zero.any():
            singular |= zero
            pivot = np.where(zero, prev, pivot)
        rest = stack[k + 1 :, k + 1 :]
        rest *= pivot
        rest -= stack[k + 1 :, k, None] * stack[None, k, k + 1 :]
        rest //= prev
        prev = pivot
    return np.where(singular, 0, stack[-1, -1])


def _forest_guard(graph: AdjacencyStructure) -> None:
    if graph.n > FOREST_ORDER_CAP:
        raise TooLarge(f"forest enumeration is capped at order {FOREST_ORDER_CAP}, got {graph.n}")
    if graph.n < 2:
        raise OrderTooSmall("a spanning 2-forest needs at least two vertices")
    _require_connected(graph)


@lru_cache(maxsize=16)
def _forest_bipartitions(graph: AdjacencyStructure) -> tuple[np.ndarray, np.ndarray]:
    """Vertex 1's component over all spanning 2-forests, as distinct bitmasks
    and the number of forests giving each.

    A spanning 2-forest is a spanning tree on each side of a vertex
    bipartition (S, V-S), so the side S holding vertex 1 is reached by
    tau(G[S]) * tau(G[V-S]) forests; every S with a nonzero count is kept.
    """
    n = graph.n
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member = ((masks >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(bool)
    trees = _tree_counts(graph, member)
    inside = masks[: -1 : 2]
    counts = (trees[inside - 1] * trees[masks[-1] - inside - 1]).astype(np.int64)
    forested = counts != 0
    return inside[forested], counts[forested]


def _vertex_bits(graph: AdjacencyStructure, masks: np.ndarray, v: int) -> np.ndarray:
    if not 1 <= v <= graph.n:
        raise IndexOutOfRange(f"vertex {v} outside 1..{graph.n}")
    return (masks >> np.uint32(v - 1)) & np.uint32(1)


def two_forest_enumeration(graph: AdjacencyStructure, i: int, j: int) -> int:
    """Exact count of spanning 2-forests separating vertices i and j (1-based)."""
    _forest_guard(graph)
    if i == j:
        raise SameVertex(f"vertices must differ, both are {i}")
    masks, weights = _forest_bipartitions(graph)
    return int(weights[_vertex_bits(graph, masks, i) != _vertex_bits(graph, masks, j)].sum())


def two_forest_refinement(graph: AdjacencyStructure, z: int, x: int, y: int) -> int:
    """Count of spanning 2-forests whose tree containing x also contains z, with y apart."""
    _forest_guard(graph)
    if len({z, x, y}) != 3:
        raise SameVertex(f"vertices must be pairwise distinct, got {z}, {x}, {y}")
    masks, weights = _forest_bipartitions(graph)
    bz = _vertex_bits(graph, masks, z)
    bx = _vertex_bits(graph, masks, x)
    by = _vertex_bits(graph, masks, y)
    return int(weights[(bz == bx) & (bx != by)].sum())


def two_forest_matrix(graph: AdjacencyStructure) -> list[list[int]]:
    """All pairwise separating-forest counts from one pass over the bipartitions."""
    _forest_guard(graph)
    masks, weights = _forest_bipartitions(graph)
    bits = (masks >> np.arange(graph.n, dtype=np.uint32)[:, None]) & 1
    return ((bits[:, None, :] != bits[None, :, :]) @ weights).tolist()
