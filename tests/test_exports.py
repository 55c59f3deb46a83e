"""The public surface of the aglerkit package."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import aglerkit
from aglerkit import fixedgraph, kernels, moebius, multipoly, retract
from aglerkit.fixedgraph import FixedPointRecord, GraphFunction
from aglerkit.moebius import MoebiusAutomorphism
from aglerkit.multipoly import RationalMap
from aglerkit.poly2 import BivariatePolynomial
from aglerkit.retract import ComponentRole, RetractMap

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
    "_LastColumn",
    "_drop_last",
    "reduce_dimension",
    "_CoreForm",
    "_image_rows",
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
    assert not hasattr(BivariatePolynomial, "monomial")
    assert not hasattr(MoebiusAutomorphism, "identity")
    assert not hasattr(MoebiusAutomorphism, "from_json")
    assert not hasattr(ComponentRole, "to_json")
    assert not hasattr(FixedPointRecord, "from_json")
    assert not hasattr(GraphFunction, "_nearest")
    assert not hasattr(RetractMap, "_rationals")
    assert not hasattr(RationalMap, "value_and_partial")
    assert not hasattr(RationalMap, "_table")


def test_the_pole_rule_lives_in_multipoly_alone():
    # every quotient of an exact map, every Newton step's F and dF/dW, and
    # the kernels' f = p~/p go through multipoly's one pole test
    assert not hasattr(retract, "_quotients")
    assert not hasattr(kernels, "_f")
    p = BivariatePolynomial([[2.0, -1.0], [-1.0, 0.5j]])
    bundle = kernels.KernelBundle(p, [], [])
    assert bundle._pole_tol == multipoly._POLE_TOL * np.abs(p.coeffs).max()


def test_retract_solves_no_schur_map():
    # a retract level is its exact map and its anchors; no level hands a
    # column to the fixedgraph layer's single-unknown search
    assert not hasattr(retract, "SchurMap")
    assert not hasattr(retract, "find_fixed_w")


def private_definitions(tree):
    """(name, node) for each private module-level function, class and constant of a
    module, and each private method of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item) for item in node.body if isinstance(item, ast.FunctionDef)]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if name.startswith("_") and not name.endswith("__")]


def names_read(tree):
    """How often a tree names each name: loaded names, attributes and imports."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif isinstance(node, ast.alias):
            read[node.name] += 1
    return read


def test_no_private_code_is_orphaned():
    # every private name the package defines is named somewhere in the package
    # outside its own definition: a helper that lost its last caller is deleted,
    # not kept for the tests
    trees = [ast.parse(path.read_text()) for path in sorted(Path(aglerkit.__file__).parent.glob("*.py"))]
    read = sum(map(names_read, trees), Counter())
    defined = [pair for tree in trees for pair in private_definitions(tree)]
    assert len(defined) >= 90
    assert [name for name, node in defined if read[name] <= names_read(node)[name]] == []


def test_stability_imports_nothing_from_the_solver():
    # the stability gate decides by its own one-variable tests: no verdict rests on the Gram solver
    tree = ast.parse((Path(aglerkit.__file__).parent / "stability.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert [name for name in modules if name and "sos" in name.split(".")] == []
