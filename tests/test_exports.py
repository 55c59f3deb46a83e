"""The public surface of the aglerkit package."""

import pytest

import aglerkit
from aglerkit import fixedgraph, moebius, retract
from aglerkit.moebius import MoebiusAutomorphism
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.retract import ComponentRole

# Library paths that no pipeline, demo or benchmark reaches; the package keeps none of them.
REMOVED = (
    "uniqueness_check",
    "detect_w_automorphism",
    "local_graph",
    "IDENTITY_IN_W",
    "UNIQUE_GRAPH",
    "NO_FIXED_POINTS",
    "ConjugationChain",
    "fit_moebius",
)


def test_every_exported_name_resolves_once():
    names = aglerkit.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(aglerkit, name)]
    assert missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_exported(name):
    assert name not in aglerkit.__all__
    assert not hasattr(aglerkit, name)
    for module in (fixedgraph, moebius, retract):
        assert not hasattr(module, name)


def test_removed_methods_are_gone():
    assert not hasattr(BivariatePolynomial, "allclose")
    assert not hasattr(MoebiusAutomorphism, "identity")
    assert not hasattr(MoebiusAutomorphism, "from_json")
    assert not hasattr(ComponentRole, "to_json")
