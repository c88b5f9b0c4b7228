"""Construction codes for threshold graphs and the structure derived from them.

A threshold graph on n vertices is described by a binary construction code
c_1 c_2 ... c_n: vertex i is added isolated when c_i = 0 and dominating
(adjacent to every earlier vertex) when c_i = 1.  The code is the single
source of truth here; degrees, edges, block structure and enumeration all
derive from it.  Vertex labels are 1-based and always match code positions.

Conventions: c_1 = 0 for every code, and a code of length >= 2 describes a
connected graph exactly when it ends in 1.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    Disconnected,
    EmptyInput,
    IllegalCharacter,
    IndexOutOfRange,
    LeadingOne,
    OrderOutOfRange,
    OrderTooSmall,
    ParameterOutOfRange,
)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # code bits as bytes -> ASCII digits
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII digits -> code bits as bytes


@dataclass(frozen=True)
class ConstructionCode:
    """An immutable construction code; ``bits[k]`` is c_{k+1}."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) == 0:
            raise EmptyInput("a construction code needs at least one symbol")
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise IllegalCharacter(f"code symbols must be 0 or 1, got {self.bits!r}")
        if self.bits[0] != 0:
            raise LeadingOne("the initial vertex is always encoded as 0")

    @property
    def n(self) -> int:
        return len(self.bits)

    def bit(self, i: int) -> int:
        """Code value c_i at 1-based position i."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"position {i} outside 1..{self.n}")
        return self.bits[i - 1]

    @property
    def is_connected(self) -> bool:
        """True when the graph is connected: the code ends in 1 (trivially true for n = 1)."""
        return self.n == 1 or self.bits[-1] == 1

    def __str__(self) -> str:
        return bytes(self.bits).translate(_DIGITS).decode()


def require_walk(code: ConstructionCode) -> None:
    """The precondition of every random-walk quantity: order >= 2 and a connected code (ends in 1)."""
    if code.n < 2:
        raise OrderTooSmall(f"random-walk quantities need order >= 2, got {code.n}")
    if not code.is_connected:
        raise Disconnected("random-walk quantities are undefined for a disconnected code")


_RUN_RE = re.compile(r"([01])(?:\^0*([0-9]+))?")  # ASCII digits only, as in the plain form
MAX_CODE_LENGTH = 10**6  # symbols parse_code accepts in either notation: 100x the largest order tested


def _code_columns(bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 columns of a code: its bits, theta (the ones strictly after each 0-based
    position k) and the degrees k c_k + theta_k, every entry at most n."""
    b = np.frombuffer(bytes(bits), np.uint8).astype(np.int64)
    ones = b.cumsum()
    theta = ones[-1] - ones
    return b, theta, np.arange(len(b)) * b + theta


def parse_code(text: str) -> ConstructionCode:
    """Parse a construction code from plain 0/1 text or block notation.

    Plain form: ``"01100011"``.  Block form: whitespace-separated runs with
    optional caret exponents, e.g. ``"0 1^2 0^3 1^2"``; a bare ``0`` or ``1``
    means a run of length one.  Codes starting with 1 are rejected rather
    than silently normalized.  Codes longer than MAX_CODE_LENGTH raise
    OrderOutOfRange before any list is built.
    """
    if text is None:
        raise EmptyInput("no code text given")
    stripped = text.strip()
    if not stripped:
        raise EmptyInput("empty construction code")
    if "^" in stripped or len(stripped.split(maxsplit=1)) > 1:
        bits = _parse_blocks(stripped)
    else:
        bits = _parse_plain(stripped)
    return ConstructionCode(tuple(bits))


def _parse_plain(text: str) -> bytes:
    _check_length(len(text))
    if not set(text) <= {"0", "1"}:
        ch = next(ch for ch in text if ch not in "01")
        raise IllegalCharacter(f"unexpected character {ch!r} in code string")
    return text.encode("ascii").translate(_BITS)


def _parse_blocks(text: str) -> list[int]:
    runs = []
    for token in text.split():
        match = _RUN_RE.fullmatch(token)
        if match is None:
            raise IllegalCharacter(f"malformed run {token!r}; expected 0, 1, 0^k or 1^k")
        digits = match.group(2) or "1"  # no leading zeros, so more digits is a longer run; int() never reads them
        count = int(digits) if len(digits) <= len(str(MAX_CODE_LENGTH)) else MAX_CODE_LENGTH + 1
        if count < 1:
            raise IllegalCharacter(f"run exponent must be at least 1 in {token!r}")
        runs.append((int(match.group(1)), count))
    _check_length(sum(count for _, count in runs))
    return list(itertools.chain.from_iterable([symbol] * count for symbol, count in runs))


def _check_length(length: int) -> None:
    if length > MAX_CODE_LENGTH:
        raise OrderOutOfRange(f"a construction code has at most {MAX_CODE_LENGTH} symbols")


def render(code: ConstructionCode) -> str:
    """Plain 0/1 string form of the code."""
    return str(code)


def render_blocks(code: ConstructionCode) -> str:
    """Canonical block notation; exponents are written only for runs of length >= 2."""
    parts = []
    for symbol, run in itertools.groupby(code.bits):
        length = sum(1 for _ in run)
        parts.append(str(symbol) if length == 1 else f"{symbol}^{length}")
    return " ".join(parts)


@dataclass(frozen=True)
class BlockForm:
    """Alternating run lengths 0^{s_1} 1^{t_1} 0^{s_2} ... of a code.

    For a connected code the runs pair up exactly; a disconnected code adds
    one trailing zero run with no partner, so ``zero_runs`` may be longer
    than ``one_runs`` by one.
    """

    zero_runs: tuple[int, ...]
    one_runs: tuple[int, ...]

    def __post_init__(self):
        if len(self.zero_runs) - len(self.one_runs) not in (0, 1):
            raise ValueError("zero and one runs must interleave starting from a zero run")
        if any(r < 1 for r in self.zero_runs + self.one_runs):
            raise ValueError("run lengths must be positive")

    @property
    def k(self) -> int:
        """Number of complete (zero-run, one-run) pairs."""
        return len(self.one_runs)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(s, t) pairs; a trailing unpaired zero run is not included."""
        return tuple(zip(self.zero_runs, self.one_runs))

    def to_code(self) -> ConstructionCode:
        bits: list[int] = []
        for idx, s in enumerate(self.zero_runs):
            bits.extend([0] * s)
            if idx < len(self.one_runs):
                bits.extend([1] * self.one_runs[idx])
        return ConstructionCode(tuple(bits))


def blocks(code: ConstructionCode) -> BlockForm:
    """Run-length encode the code into its alternating block form."""
    zero_runs, one_runs = [], []
    for symbol, run in itertools.groupby(code.bits):
        (one_runs if symbol else zero_runs).append(sum(1 for _ in run))
    return BlockForm(tuple(zero_runs), tuple(one_runs))


@dataclass(frozen=True)
class DegreeProfile:
    """Vertex degrees, suffix one-counts and edge count of one code.

    ``theta[i-1]`` counts the ones strictly after position i, so the last
    entry is always 0.  Degrees obey d_i = (i-1) c_i + theta_i.
    """

    degrees: tuple[int, ...]
    theta: tuple[int, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.degrees)


def degree_profile(code: ConstructionCode) -> DegreeProfile:
    """Degrees, tail one-counts and edge count, straight from the code in one int64 pass
    (``_code_columns``)."""
    _, theta, degrees = _code_columns(code.bits)
    degrees = tuple(degrees.tolist())
    total = sum(degrees)
    if total % 2:
        raise ArithmeticError("degree sum is odd; construction code is corrupt")
    return DegreeProfile(degrees, tuple(theta.tolist()), total // 2)


@dataclass(frozen=True)
class AdjacencyStructure:
    """Explicit edge set and neighbour lists; vertices are 1-based code positions.

    ``neighbors[v-1]`` is the sorted tuple of vertices adjacent to v.  Edge
    {i, j} with i < j exists exactly when c_j = 1.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.neighbors)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix with row v-1 for vertex v, built once per graph and read-only."""
        return self._adjacency

    @cached_property
    def _adjacency(self) -> np.ndarray:
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64, count=2 * self.m)
        i, j = ends.reshape(-1, 2).T - 1
        A = np.zeros((self.n, self.n), dtype=np.int64)
        A[i, j] = A[j, i] = 1
        A.flags.writeable = False
        return A

    @cached_property
    def is_connected(self) -> bool:
        """Breadth-first reachability from vertex 1, run once per graph."""
        if self.n == 0:
            return False
        seen = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for v in frontier:
                for u in self.neighbors[v - 1]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return len(seen) == self.n


def build_graph(code: ConstructionCode) -> AdjacencyStructure:
    """Materialize the threshold graph the code constructs."""
    n = code.n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    edges = []
    for j in range(1, n):
        if code.bits[j]:
            vertex = j + 1
            for i in range(j):
                edges.append((i + 1, vertex))
                nbrs[i].append(vertex)
                nbrs[j].append(i + 1)
    return AdjacencyStructure(n, tuple(edges), tuple(tuple(sorted(nb)) for nb in nbrs))


def code_count(n: int) -> int:
    """Number of connected codes of order n: 2^(n-2)."""
    if n < 2:
        raise OrderTooSmall(f"no connected codes of order {n}")
    return 1 << (n - 2)


def code_from_index(n: int, index: int) -> ConstructionCode:
    """The index-th connected code of order n, lexicographic in the interior bits.

    Index 0 is 0 0...0 1 (the star) and index 2^(n-2) - 1 is 0 1...1 (the
    complete graph); the search's ranges are contiguous runs of indices.
    """
    count = code_count(n)
    if not 0 <= index < count:
        raise IndexOutOfRange(f"index {index} outside 0..{count - 1}")
    interior = tuple((index >> (n - 3 - k)) & 1 for k in range(n - 2))
    return ConstructionCode((0, *interior, 1))


def enumerate_codes(n: int):
    """Yield the connected codes of order n in lexicographic interior order, which is index order."""
    code_count(n)  # OrderTooSmall below order 2
    for interior in itertools.product((0, 1), repeat=n - 2):
        yield ConstructionCode((0, *interior, 1))


def pineapple_code(n: int, r: int) -> ConstructionCode:
    """The code 0 1^r 0^(n-r-2) 1: an (r+1)-clique plus isolated vertices, all dominated last.

    r = 0 degenerates to the star and r = n-2 to the complete graph.
    """
    if n < 3:
        raise ParameterOutOfRange(f"pineapple codes need n >= 3, got {n}")
    if not 0 <= r <= n - 2:
        raise ParameterOutOfRange(f"r must lie in 0..{n - 2}, got {r}")
    return ConstructionCode((0, *([1] * r), *([0] * (n - r - 2)), 1))


def pineapple_r(code: ConstructionCode) -> int | None:
    """The r with code == pineapple_code(n, r), or None when the code is not of that shape."""
    bits = code.bits
    if code.n < 3 or bits[-1] != 1:
        return None
    interior = bits[1:-1]
    r = 0
    while r < len(interior) and interior[r] == 1:
        r += 1
    if any(interior[r:]):
        return None
    return r
