"""Verification suites: each exact route compared against formula-free oracles.

``verify_code(code, suites)`` runs the named suites on one code and returns
one result dict per suite, each with a ``pass`` flag.  The suites of one call
share the explicit graph, the numeric resistances of ``resistance_oracle``
and the exact resistance profile; each is built at most once, on first use,
so the Kemeny suite alone never builds the profile.  The oracles read only
the graph, never the code formulas.  The resistance suite decides
R = diag(L+) 1^T + 1 diag(L+)^T - 2 L+ as one set of 2n - 2 integers, the
profile's row and column terms cross-multiplied with ``pseudo_inverse_terms``,
and builds no matrix.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .codes import AdjacencyStructure, ConstructionCode, build_graph, degree_profile
from .errors import OrderOutOfRange, ParameterOutOfRange
from .kemeny import _require_dense_order, kemeny_degree_form, kemeny_from_code, kemeny_spectral_form
from .oracle import (
    FOREST_ORDER_CAP,
    _forest_bipartitions,
    accessibility_oracle,
    kemeny_eigen_oracle,
    resistance_oracle,
    spanning_tree_oracle,
    two_forest_matrix,
)
from .resistance import ResistanceProfile, _verify_orderings, resistance_matrix
from .spectral import pseudo_inverse_terms

# Largest order of the forest suite: its Kirchhoff oracle took 2.98 s at n = 400 and 7.7 s at 500 on
# seeded codes, 20.7 s on the complete graph of order 400, and ran past 100 s at 1000 (2-core VM).
_FOREST_SUITE_ORDER_CAP = 400


class _Shared:
    """What the suites of one call share, each built on first use."""

    def __init__(self, code: ConstructionCode):
        self.code = code

    @cached_property
    def graph(self) -> AdjacencyStructure:
        return build_graph(self.code)

    @cached_property
    def numeric_r(self) -> np.ndarray:
        return resistance_oracle(self.graph)

    @cached_property
    def profile(self) -> ResistanceProfile:
        return resistance_matrix(self.code)  # raises NonIntegralEntry if F is not integral


def _suite_kemeny(code: ConstructionCode, shared: _Shared) -> dict:
    cv = kemeny_from_code(code)
    dg = kemeny_degree_form(code)
    sp = kemeny_spectral_form(code)
    eig = kemeny_eigen_oracle(shared.graph)
    degrees = np.array(degree_profile(code).degrees, dtype=float)
    drd = float(degrees @ shared.numeric_r @ degrees / (4.0 * cv.m))
    deviations = {
        "spectral_route": abs(sp.value - cv.value),
        "eigen_oracle": abs(eig - cv.value),
        "resistance_route": abs(drd - cv.value),
    }
    exact_equal = cv.exact == dg.exact
    ok = (
        exact_equal
        and deviations["spectral_route"] < 1e-9
        and deviations["eigen_oracle"] < 1e-8
        and deviations["resistance_route"] < 1e-8
    )
    return {
        "pass": bool(ok),
        "exact_routes_equal": exact_equal,
        "max_deviation": max(deviations.values()),
        "deviations": deviations,
    }


def _suite_resistance(code: ConstructionCode, shared: _Shared) -> dict:
    profile = shared.profile
    row, col, den = profile.row, profile.col, profile.den
    pden, diag, off = pseudo_inverse_terms(code)
    n = code.n
    # R = diag(L+) 1^T + 1 diag(L+)^T - 2 L+; by construction R is symmetric with
    # a zero diagonal and L+[i][j] = off_{max(i, j)} / pden off the diagonal.  At
    # i < j the identity reads x_i = y_j, x_i = row_i / den - diag_i / pden and
    # y_j = (diag_j - 2 off_j) / pden - col_j / den; it holds for all i < j exactly
    # when every x_i (i <= n-2) and every y_j (j >= 1) is one value, compared here
    # times den * pden
    values = {row[i] * pden - diag[i] * den for i in range(n - 1)}
    values.update((diag[j] - 2 * off[j]) * den - col[j] * pden for j in range(1, n))
    exact_equal = len(values) == 1
    # one int / int per pair of twin classes; it rounds correctly, so it is float(R[i][j]) exactly
    sizes, table = profile.class_table(lambda j, v: (row[j] + col[v]) / den, 0.0)
    numeric = np.repeat(np.repeat(table, sizes, axis=0), sizes, axis=1)
    np.fill_diagonal(numeric, 0.0)
    deviation = float(np.abs(numeric - shared.numeric_r).max())
    ok = exact_equal and deviation < 1e-8
    return {"pass": bool(ok), "pseudoinverse_equal": exact_equal, "max_deviation": deviation}


def _suite_forest(code: ConstructionCode, shared: _Shared) -> dict:
    profile = shared.profile
    if code.n > FOREST_ORDER_CAP:
        tau_equal = profile.tau == spanning_tree_oracle(shared.graph)
        return {"pass": bool(tau_equal), "tau_equal": tau_equal, "max_deviation": None, "enumeration_skipped": True}
    counts = two_forest_matrix(shared.graph)
    # the enumeration eliminated every vertex set, V last: tau with no second elimination
    tau_equal = profile.tau == _forest_bipartitions(shared.graph)[2]
    forest_equal = all(profile.F[i][j] == counts[i][j] for i in range(code.n) for j in range(code.n))
    return {
        "pass": bool(tau_equal and forest_equal),
        "tau_equal": tau_equal,
        "max_deviation": None,
        "enumeration_equal": forest_equal,
    }


def _suite_ordering(code: ConstructionCode, shared: _Shared) -> dict:
    profile = shared.profile
    report = _verify_orderings(code, profile)
    prof = degree_profile(code)
    # sum_v (d_v / 2m) alpha_v = K with alpha_v = mu_num_v / den - K and
    # sum_v d_v = 2m reads sum_v d_v mu_num_v = 4m den K
    weighted = sum(d * x for d, x in zip(prof.degrees, profile.mu_num))
    K = profile.kemeny
    identity = weighted * K.denominator == 4 * prof.m * profile.den * K.numerator
    alpha_numeric = accessibility_oracle(shared.graph)
    # int / int rounds correctly, so each quotient is float(profile.alpha[v]) exactly
    alpha_num, alpha_den = profile.alpha_terms()
    deviation = max(abs(x / alpha_den - float(y)) for x, y in zip(alpha_num, alpha_numeric))
    ok = report.all_pass and identity and deviation < 1e-8
    return {
        "pass": bool(ok),
        "orderings_pass": report.all_pass,
        "weighted_alpha_equals_kemeny": identity,
        "max_deviation": deviation,
        "witnesses": list(report.witnesses),
    }


_RUNNERS = {
    "kemeny": _suite_kemeny,
    "resistance": _suite_resistance,
    "forest": _suite_forest,
    "ordering": _suite_ordering,
}
SUITES = tuple(_RUNNERS)


def verify_code(code: ConstructionCode, suites: tuple[str, ...] = SUITES) -> dict:
    """Run the named suites, in the order given, on one code.

    Returns {suite name: result dict}; every result has a boolean ``pass``
    and a ``max_deviation`` (None where the suite compares only exactly).
    A name outside SUITES raises ParameterOutOfRange before any suite runs.  Past the dense order
    cap of ``kemeny``, or past _FOREST_SUITE_ORDER_CAP when ``forest`` is named, OrderOutOfRange
    comes next; other domain errors propagate.
    """
    for name in suites:
        if name not in _RUNNERS:
            raise ParameterOutOfRange(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    _require_dense_order(code.n)
    if "forest" in suites and code.n > _FOREST_SUITE_ORDER_CAP:
        raise OrderOutOfRange(f"the forest suite supports order n <= {_FOREST_SUITE_ORDER_CAP}, got {code.n}")
    shared = _Shared(code)
    return {name: _RUNNERS[name](code, shared) for name in suites}
