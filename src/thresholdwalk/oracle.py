"""Formula-free reference computations used to validate every closed form.

Everything here works from the explicit graph structure, never from the
construction code: numeric eigensolves, fundamental-matrix first-passage
times, and exact spanning-tree counts by Kirchhoff's matrix-tree theorem.
The tree counts of any batch of induced subgraphs come from one stack of
reduced Laplacians and one elimination over all of it: fraction-free
(Bareiss) in int64 while Hadamard's bound allows, and otherwise modulo
primes after the Schur complement of an independent set, with the counts
rebuilt by the Chinese remainder theorem.  The spanning 2-forests are
counted from those tree counts: a 2-forest is a spanning tree on each side
of a vertex bipartition, so one batch over every vertex subset serves them
all.  Slower than the closed forms by design; that independence is the
point.
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

_PRIME_LIMIT = 1 << 31  # residues below 2^31 keep each product of two inside int64
_CHUNK_ELEMENTS = 1 << 19  # entries of one chunk of the modular stack

FOREST_ORDER_CAP = 9  # 2^(n-1) bipartitions; an all-minors matrix-tree certificate is the route past it


def _require_connected(graph: AdjacencyStructure) -> None:
    if not graph.is_connected:
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
    return _tree_counts(graph, np.ones((graph.n, 1), dtype=bool))[0]


def _tree_counts(graph: AdjacencyStructure, member: np.ndarray) -> list[int]:
    """Spanning trees of the subgraph induced on each column of ``member``.

    ``member`` is an (n, B) boolean matrix; column b holds the vertex set of
    subgraph b, which must be nonempty.  Kirchhoff: each count is the
    determinant of that subgraph's Laplacian with its last member deleted,
    padded with the identity on every other vertex, so all B matrices share
    one (n, n, B) stack.  0 when the subgraph is disconnected, 1 for a single
    vertex.  Every count and every minor is at most Hadamard's
    H = prod(d_v + 1), so a Bareiss update a p - b c stays within 2 H^2.
    While that is below 2^63 (every forest batch, n <= 9) the stack is
    eliminated in int64.  Otherwise a greedy independent set of the graph,
    whose block of every padded matrix is diagonal, is eliminated first, and
    the rest modulo the fewest primes whose product exceeds H.
    """
    A = graph.adjacency_matrix()
    stack = _padded_laplacians(A, member)
    hadamard = math.prod(len(nb) + 1 for nb in graph.neighbors)
    if 2 * hadamard * hadamard < 1 << 63:
        return _psd_determinants(stack).tolist()
    return _modular_determinants(stack, _independent_set(A), hadamard)


def _padded_laplacians(A: np.ndarray, member: np.ndarray) -> np.ndarray:
    """The (n, n, B) stack of reduced Laplacians that ``_tree_counts`` describes."""
    n, batch = member.shape
    last = n - 1 - np.argmax(member[::-1], axis=0)
    kept = member.copy()
    kept[last, np.arange(batch)] = False
    stack = -A[:, :, None] * (kept[:, None, :] & kept[None, :, :])
    diagonal = np.arange(n)
    stack[diagonal, diagonal] = np.where(kept, A @ member, 1)
    return stack


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
        if k:  # prev is all ones at k = 0
            rest //= prev
        prev = pivot
    return np.where(singular, 0, stack[-1, -1])


def _independent_set(A: np.ndarray) -> np.ndarray:
    """A maximal independent set of the graph with adjacency ``A``, as a boolean mask.

    Greedy over the vertices in order of increasing degree (ties by index).
    """
    chosen = np.zeros(len(A), dtype=bool)
    blocked = np.zeros(len(A), dtype=bool)
    for v in np.argsort(A.sum(axis=1), kind="stable").tolist():
        if not blocked[v]:
            chosen[v] = True
            blocked |= A[v] != 0
    return chosen


def _modular_determinants(stack: np.ndarray, independent: np.ndarray, bound: int) -> list[int]:
    """Determinants, each in [0, bound], of the Laplacian-like int64 matrices ``stack[:, :, b]``.

    Off the diagonal the entries are 0 or -1.  Every matrix is diagonal on
    the indices I that the boolean mask ``independent`` selects, and the
    other indices K are not empty.  With D that diagonal,
    det M = prod(D) det S for the Schur complement S = M_KK - M_KI D^-1 M_IK,
    which is formed and eliminated modulo each of the fewest primes below
    2^31 whose product exceeds ``bound``; the Chinese remainder theorem then
    rebuilds each determinant.  The primes go a chunk at a time, so the
    modular stack and the products that form it hold at most about
    _CHUNK_ELEMENTS entries whatever the bound.
    """
    n, batch = stack.shape[0], stack.shape[2]
    independent, rest = np.flatnonzero(independent), np.flatnonzero(~independent)
    stack = stack.transpose(2, 0, 1)  # set axis first: the modular batch is primes x sets
    diagonal = stack[:, independent, independent]
    inner = stack[:, rest[:, None], rest]
    left = stack[:, rest[:, None], independent]
    right = stack[:, independent[:, None], rest]
    primes = _crt_primes(bound)
    step = max(1, _CHUNK_ELEMENTS // (len(rest) * n * batch))
    # a zero in D is an isolated kept vertex, whose zero row and column make
    # M singular; prod(D) carries that 0, and 1 stands in for its inverse
    values, index = np.unique(np.maximum(diagonal, 1), return_inverse=True)
    index = index.reshape(diagonal.shape)
    residues = []
    for start in range(0, len(primes), step):
        chunk_primes = primes[start : start + step]
        moduli = np.array(chunk_primes, dtype=np.int64)[:, None]
        inverses = np.array([[pow(v, -1, p) for v in values.tolist()] for p in chunk_primes])
        schur = (left * inverses[:, index][:, :, None, :]) @ right
        np.subtract(inner, schur, out=schur)
        schur %= moduli[:, :, None, None]
        chunk = _determinants_mod(schur.reshape(-1, len(rest), len(rest)), np.repeat(moduli, batch))
        chunk = chunk.reshape(len(moduli), batch)
        for d in diagonal.T:
            chunk = chunk * d % moduli
        residues.append(chunk)
    modulus = math.prod(primes)
    basis = [modulus // p * pow(modulus // p, -1, p) for p in primes]
    return [sum(r * e for r, e in zip(column, basis)) % modulus for column in np.concatenate(residues).T.tolist()]


def _determinants_mod(stack: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Determinants of ``stack[c]`` modulo the prime ``moduli[c]`` < 2^31.

    Division-free Gaussian elimination over the whole batch at once,
    overwriting ``stack``, whose int64 entries must lie in [0, moduli).  A
    zero pivot swaps in the first row below with a nonzero entry in its
    column, negating the determinant; with no such row the determinant is 0.
    Step k multiplies the rows below the pivot by it instead of dividing, so
    the product of the pivots is det times prod_k pivot_k^(m-1-k), which is
    the product of the running pivot products; its one inverse is taken at
    the end.  With q the modulus, the update a p + (q^2 - b c) is computed
    unsigned: each term is below q^2 < 2^62, and unsigned remainders are the
    cheaper ones.
    """
    columns, m = stack.shape[0], stack.shape[1]
    stack = stack.view(np.uint64)
    moduli = moduli.astype(np.uint64)
    square = (moduli * moduli)[:, None, None]
    top = np.ones(columns, dtype=np.uint64)  # the pivots' product, sign included
    scaling = np.ones(columns, dtype=np.uint64)  # prod_k pivot_k^(m-1-k)
    running = np.ones(columns, dtype=np.uint64)
    for k in range(m):
        pivot = stack[:, k, k]
        zero = pivot == 0
        if zero.any():
            row = k + np.argmax(stack[:, k:, k] != 0, axis=1)
            swap = np.flatnonzero(row != k)
            taken = stack[swap, row[swap], k:]
            stack[swap, row[swap], k:] = stack[swap, k, k:]
            stack[swap, k, k:] = taken
            top[swap] = moduli[swap] - top[swap]
            pivot = stack[:, k, k]
            zero = pivot == 0
            pivot = np.where(zero, 1, pivot)
            top[zero] = 0
        top = top * pivot % moduli
        if k == m - 1:
            break
        block = stack[:, k + 1 :, k + 1 :]
        product = stack[:, k + 1 :, k, None] * stack[:, None, k, k + 1 :]
        block *= pivot[:, None, None]
        block += np.subtract(square, product, out=product)
        block %= moduli[:, None, None]
        running = running * pivot % moduli
        scaling = scaling * running % moduli
    inverse = [pow(s, -1, p) for s, p in zip(scaling.tolist(), moduli.tolist())]
    return (top * np.array(inverse, dtype=np.uint64) % moduli).astype(np.int64)


def _crt_primes(bound: int) -> tuple[int, ...]:
    """The fewest primes below 2^31 whose product exceeds ``bound``: the largest ones."""
    # every prime here exceeds 2^30, so this many always suffice
    count = bound.bit_length() // 30 + 1
    primes = _largest_primes(1 << (count - 1).bit_length())
    product, used = primes[0], 1
    while product <= bound:
        product *= primes[used]
        used += 1
    return primes[:used]


@lru_cache(maxsize=None)
def _largest_primes(count: int) -> tuple[int, ...]:
    """The ``count`` largest primes below 2^31, descending.

    One sieve of the window [2^31 - width, 2^31) by the base primes up to
    sqrt(2^31), with the width doubled until the window holds ``count``
    primes.  Each base prime's first multiple in the window comes from one
    array remainder.  The base primes below the width, 97 of 4792 at count
    16, strike it with a strided slice each; every larger one strikes it at
    most once, so all of those are marked by a single indexed store.
    """
    root = math.isqrt(_PRIME_LIMIT)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    base = np.flatnonzero(small)
    width = 32 * count  # primes near 2^31 are about 21.5 apart
    while True:
        low = _PRIME_LIMIT - width
        first = -low % base  # offset of each base prime's first multiple in the window
        dense = int(np.searchsorted(base, width))  # base primes below the width
        composite = np.zeros(width, dtype=bool)
        for q, start in zip(base[:dense].tolist(), first[:dense].tolist()):
            composite[start::q] = True
        once = first[dense:]
        composite[once[once < width]] = True
        primes = low + np.flatnonzero(~composite)[::-1]
        if len(primes) >= count:
            return tuple(primes[:count].tolist())
        width *= 2


def _forest_guard(graph: AdjacencyStructure) -> None:
    if graph.n > FOREST_ORDER_CAP:
        raise TooLarge(f"forest enumeration is capped at order {FOREST_ORDER_CAP}, got {graph.n}")
    if graph.n < 2:
        raise OrderTooSmall("a spanning 2-forest needs at least two vertices")
    _require_connected(graph)


@lru_cache(maxsize=16)
def _forest_bipartitions(graph: AdjacencyStructure) -> tuple[np.ndarray, np.ndarray, int]:
    """Vertex 1's component over all spanning 2-forests, as distinct bitmasks
    and the number of forests giving each, and the spanning-tree count tau.

    A spanning 2-forest is a spanning tree on each side of a vertex
    bipartition (S, V-S), so the side S holding vertex 1 is reached by
    tau(G[S]) * tau(G[V-S]) forests; every S with a nonzero count is kept.
    The tree counts are taken over every nonempty vertex set, the last of
    them V itself, so tau comes from the same elimination.
    """
    n = graph.n
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    member = ((masks >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(bool)
    trees = np.array(_tree_counts(graph, member))
    inside = masks[: -1 : 2]
    counts = (trees[inside - 1] * trees[masks[-1] - inside - 1]).astype(np.int64)
    forested = counts != 0
    return inside[forested], counts[forested], int(trees[-1])


def _vertex_bits(graph: AdjacencyStructure, masks: np.ndarray, v: int) -> np.ndarray:
    if not 1 <= v <= graph.n:
        raise IndexOutOfRange(f"vertex {v} outside 1..{graph.n}")
    return (masks >> np.uint32(v - 1)) & np.uint32(1)


def two_forest_enumeration(graph: AdjacencyStructure, i: int, j: int) -> int:
    """Exact count of spanning 2-forests separating vertices i and j (1-based)."""
    _forest_guard(graph)
    if i == j:
        raise SameVertex(f"vertices must differ, both are {i}")
    masks, weights, _ = _forest_bipartitions(graph)
    return int(weights[_vertex_bits(graph, masks, i) != _vertex_bits(graph, masks, j)].sum())


def two_forest_refinement(graph: AdjacencyStructure, z: int, x: int, y: int) -> int:
    """Count of spanning 2-forests whose tree containing x also contains z, with y apart."""
    _forest_guard(graph)
    if len({z, x, y}) != 3:
        raise SameVertex(f"vertices must be pairwise distinct, got {z}, {x}, {y}")
    masks, weights, _ = _forest_bipartitions(graph)
    bz = _vertex_bits(graph, masks, z)
    bx = _vertex_bits(graph, masks, x)
    by = _vertex_bits(graph, masks, y)
    return int(weights[(bz == bx) & (bx != by)].sum())


def two_forest_matrix(graph: AdjacencyStructure) -> list[list[int]]:
    """All pairwise separating-forest counts from one pass over the bipartitions."""
    _forest_guard(graph)
    masks, weights, _ = _forest_bipartitions(graph)
    bits = (masks >> np.arange(graph.n, dtype=np.uint32)[:, None]) & 1
    return ((bits[:, None, :] != bits[None, :, :]) @ weights).tolist()
