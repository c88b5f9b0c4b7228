"""Each domain error raised for a bad argument, one call per raise site."""

import pytest

from thresholdwalk import (
    BlockForm,
    ConstructionCode,
    OrthonormalBasis,
    build_graph,
    enumerate_codes,
    integer_eigenvector,
    kemeny_eigen_oracle,
    mfpt_matrix,
    parse_code,
    pseudo_inverse,
    resistance_matrix,
    spanning_tree_count,
    two_forest_enumeration,
    two_forest_matrix,
    two_forest_refinement,
)
from thresholdwalk.errors import (
    Disconnected,
    EmptyInput,
    IllegalCharacter,
    IndexOutOfRange,
    OrderTooSmall,
    SameVertex,
)
from thresholdwalk.oracle import transition_matrix


def _graph(text):
    return build_graph(parse_code(text))


@pytest.mark.parametrize(
    "call,error",
    [
        pytest.param(lambda: ConstructionCode(()), EmptyInput, id="code-no-symbols"),
        pytest.param(lambda: ConstructionCode((0, 2)), IllegalCharacter, id="code-symbol-2"),
        pytest.param(lambda: parse_code(None), EmptyInput, id="parse-none"),
        pytest.param(lambda: parse_code("01").bit(3), IndexOutOfRange, id="bit-past-end"),
        pytest.param(lambda: list(enumerate_codes(4, 3, 1)), IndexOutOfRange, id="enumerate-reversed-window"),
        pytest.param(lambda: OrthonormalBasis(3).entry(4, 1), IndexOutOfRange, id="basis-entry-row"),
        pytest.param(lambda: integer_eigenvector(3, 3), IndexOutOfRange, id="eigenvector-index"),
        pytest.param(lambda: BlockForm((1,), (1, 1)), ValueError, id="blocks-extra-one-run"),
        pytest.param(lambda: BlockForm((0,), ()), ValueError, id="blocks-empty-run"),
        pytest.param(lambda: resistance_matrix(parse_code("0")), OrderTooSmall, id="resistance-order-1"),
        pytest.param(lambda: spanning_tree_count(parse_code("0")), OrderTooSmall, id="tree-count-order-1"),
        pytest.param(lambda: pseudo_inverse(parse_code("0")), OrderTooSmall, id="pseudoinverse-order-1"),
        pytest.param(lambda: kemeny_eigen_oracle(_graph("0")), OrderTooSmall, id="kemeny-oracle-order-1"),
        pytest.param(lambda: mfpt_matrix(_graph("0")), OrderTooSmall, id="mfpt-order-1"),
        pytest.param(lambda: two_forest_matrix(_graph("0")), OrderTooSmall, id="forest-matrix-order-1"),
        pytest.param(lambda: transition_matrix(_graph("010")), Disconnected, id="transition-disconnected"),
        pytest.param(lambda: two_forest_enumeration(_graph("0101"), 0, 1), IndexOutOfRange, id="forest-vertex-0"),
        pytest.param(lambda: two_forest_refinement(_graph("0101"), 1, 1, 2), SameVertex, id="forest-refinement-same"),
    ],
)
def test_domain_error_raised(call, error):
    with pytest.raises(error):
        call()
