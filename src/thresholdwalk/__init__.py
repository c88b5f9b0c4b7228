"""Exact random-walk analytics for threshold graphs.

A threshold graph is fully described by its binary construction code, and
every quantity this package computes — Kemeny's constant, Laplacian
spectra, effective resistances, spanning-forest counts, moments and
accessibility indices — comes straight from that code in exact arithmetic,
validated against independent numeric and combinatorial oracles.
"""

__version__ = "0.1.0"

from .codes import (
    AdjacencyStructure,
    BlockForm,
    ConstructionCode,
    DegreeProfile,
    blocks,
    build_graph,
    code_count,
    code_from_index,
    degree_profile,
    enumerate_codes,
    parse_code,
    pineapple_code,
    pineapple_r,
    render,
    render_blocks,
)
from .kemeny import (
    CodeVectors,
    KemenyResult,
    PineappleArgmax,
    UpperBounds,
    code_vectors,
    kemeny_degree_form,
    kemeny_from_code,
    kemeny_spectral_form,
    pineapple_argmax,
    pineapple_kemeny,
    upper_bounds,
)
from .oracle import (
    WalkStatistics,
    accessibility_oracle,
    kemeny_eigen_oracle,
    mfpt_matrix,
    resistance_oracle,
    spanning_tree_oracle,
    two_forest_enumeration,
    two_forest_matrix,
    two_forest_refinement,
)
from .resistance import (
    OrderingReport,
    ResistanceProfile,
    resistance_closed_form,
    resistance_matrix,
    verify_orderings,
)
from .search import SearchReport, max_kemeny_search, verify_conjecture_range
from .spectral import (
    LaplacianSpectrum,
    OrthonormalBasis,
    commuting_check,
    diagonalization_residual,
    hessenberg_basis,
    integer_eigenvector,
    laplacian_matrix,
    laplacian_spectrum,
    pseudo_inverse,
    pseudo_inverse_terms,
    spanning_tree_count,
)
from .verify import verify_code
