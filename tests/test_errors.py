"""Each domain error raised for a bad argument, one call per raise site."""

from functools import partial

import pytest

from thresholdwalk import (
    BlockForm,
    ConstructionCode,
    OrthonormalBasis,
    build_graph,
    enumerate_codes,
    integer_eigenvector,
    kemeny_degree_form,
    kemeny_eigen_oracle,
    kemeny_from_code,
    kemeny_spectral_form,
    mfpt_matrix,
    parse_code,
    pseudo_inverse,
    resistance_closed_form,
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


# every random-walk entry point checks its code through codes.require_walk, with one message per failure
WALK_ENTRY_POINTS = {
    "kemeny-codevec": kemeny_from_code,
    "kemeny-degree": kemeny_degree_form,
    "kemeny-spectral": kemeny_spectral_form,
    "resistance-pair": lambda code: resistance_closed_form(code, 1, 2),
    "resistance": resistance_matrix,
    "tree-count": spanning_tree_count,
    "pseudoinverse": pseudo_inverse,
}
WALK_FAILURES = {
    "order-1": ("0", OrderTooSmall, "random-walk quantities need order >= 2, got 1"),
    "disconnected": ("010", Disconnected, "random-walk quantities are undefined for a disconnected code"),
}


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(lambda: ConstructionCode(()), EmptyInput, None, id="code-no-symbols"),
        pytest.param(lambda: ConstructionCode((0, 2)), IllegalCharacter, None, id="code-symbol-2"),
        pytest.param(lambda: parse_code(None), EmptyInput, None, id="parse-none"),
        pytest.param(lambda: parse_code("01").bit(3), IndexOutOfRange, None, id="bit-past-end"),
        pytest.param(lambda: list(enumerate_codes(4, 3, 1)), IndexOutOfRange, None, id="enumerate-reversed-window"),
        pytest.param(lambda: OrthonormalBasis(3).entry(4, 1), IndexOutOfRange, None, id="basis-entry-row"),
        pytest.param(lambda: integer_eigenvector(3, 3), IndexOutOfRange, None, id="eigenvector-index"),
        pytest.param(lambda: BlockForm((1,), (1, 1)), ValueError, None, id="blocks-extra-one-run"),
        pytest.param(lambda: BlockForm((0,), ()), ValueError, None, id="blocks-empty-run"),
        pytest.param(lambda: kemeny_eigen_oracle(_graph("0")), OrderTooSmall, None, id="kemeny-oracle-order-1"),
        pytest.param(lambda: mfpt_matrix(_graph("0")), OrderTooSmall, None, id="mfpt-order-1"),
        pytest.param(lambda: two_forest_matrix(_graph("0")), OrderTooSmall, None, id="forest-matrix-order-1"),
        pytest.param(lambda: transition_matrix(_graph("010")), Disconnected, None, id="transition-disconnected"),
        pytest.param(lambda: two_forest_enumeration(_graph("0101"), 0, 1), IndexOutOfRange, None, id="forest-vertex-0"),
        pytest.param(lambda: two_forest_refinement(_graph("0101"), 1, 1, 2), SameVertex, None, id="forest-refinement-same"),
        *(
            pytest.param(partial(entry, parse_code(text)), error, message, id=f"{name}-{failure}")
            for name, entry in WALK_ENTRY_POINTS.items()
            for failure, (text, error, message) in WALK_FAILURES.items()
        ),
    ],
)
def test_domain_error_raised(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message is None or str(excinfo.value) == message
