"""The public surface: the pipeline's names, and none of the per-diagram oracles.

The per-diagram generator, dihedral and label functions, `ChordDiagram` and
`build_full` live in `tests/oracles.py`; the package keeps one form of each.
The generator action has one producer, `site_pairs`, the proved rows of each
site in turn; `transition_table` writes them into a (2L, N) array, which Monte
Carlo steps directly (no (N, 3L) `_event_table`). `build_reduced` takes the
representatives' columns and `annihilates` the site-1 rows, each as a required
argument, so a cold solve stores no table; the check over the whole table is
the oracle `annihilates_by_table`. The former equivariance gate of
`build_reduced` and `GroundState.expand` are oracles too.
Labels are plain tuples, so the label classes and `orbit_labels` are gone
too, and the solver reads `IntensityMatrix`'s own entry arrays, so no second
sparse type (`_Sparse`) remains.
Each library module lists its public names in its own `__all__`, and the
package republishes those lists by star import, in module order.
"""

import ast
import dataclasses
import inspect

import pytest

import brauerloop
from brauerloop import checks, cli, counting, diagrams, generators, hamiltonian, kernel
from brauerloop.diagrams import DiagramBasis, Orbits
from brauerloop.generators import RelationReport, check_relations
from brauerloop.hamiltonian import IntensityMatrix, annihilates, build_reduced
from brauerloop.kernel import GroundState

from conftest import defined_in_package

PUBLIC = [
    "REFERENCE", "CheckResult", "MonteCarloReport", "ReferenceOracles", "concatenate_labels",
    "long_permutation_sequence", "monte_carlo_crosscheck", "permutation_weight_table",
    "verify_degrees", "verify_factorization", "verify_integrality", "verify_maximality",
    "verify_sum_rule", "NonIntegerError", "OddProductError", "class_count", "double_factorial",
    "euler_totient", "involution_term", "pairings_fixed_by_rotation", "DEFECT",
    "BasisTooLargeError", "DiagramBasis", "Orbits", "compute_orbits",
    "enumerate_diagrams", "RelationReport", "check_relations", "site_pairs", "transition_table",
    "IntensityMatrix", "annihilates", "build_reduced", "connectivity_check", "CacheCorruptError",
    "DisconnectedMatrixError", "GroundState", "KernelDimensionError", "MixedSignsError",
    "RefinementError", "groundstate", "kernel_vector", "__version__",
]

ORACLES = [
    "apply_monoid", "apply_braid", "_check_index",
    "rotate", "reflect", "_rotate_tuple", "_reflect_tuple", "_dihedral_images",
    "canonical_representative", "permutation_label", "partial_permutation_label",
    "build_full", "FULL", "REDUCED", "rotate_partners",
    "Permutation", "PartialPermutation", "orbit_labels", "ChordDiagram", "_Sparse",
    "_event_table", "equivariance_gate", "expand", "normalize_integer",
    "_refuse", "_canonical_state", "annihilates_by_table", "product_by_table",
]

MODULES = [checks, counting, diagrams, generators, hamiltonian, kernel]

def test_exports_are_the_pipeline():
    assert brauerloop.__all__ == PUBLIC
    assert len(PUBLIC) == 43
    for name in PUBLIC:
        assert getattr(brauerloop, name) is not None


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_are_not_in_the_package(name):
    assert defined_in_package(name) == []


def test_no_json_parser_in_the_package():
    # `deserialize_groundstate` is the one reader of a cache text; `json.loads`
    # is the oracle `decode_by_json` only.
    assert not hasattr(kernel, "json")
    for module in (*MODULES, cli):
        assert "json.load" not in inspect.getsource(module), module.__name__


def test_no_test_only_fields_or_parameters():
    assert "kind" not in [field.name for field in dataclasses.fields(IntensityMatrix)]
    assert list(inspect.signature(IntensityMatrix.validate).parameters) == ["self"]
    assert list(inspect.signature(check_relations).parameters) == ["length"]
    for function, names in ((build_reduced, ["basis", "orbits", "columns"]),
                            (annihilates, ["basis", "weights", "rows", "orbits"])):
        parameters = inspect.signature(function).parameters
        assert list(parameters) == names, function.__name__
        assert all(p.default is inspect.Parameter.empty for p in parameters.values())
    assert "exhaustive" not in [field.name for field in dataclasses.fields(RelationReport)]
    assert [field.name for field in dataclasses.fields(Orbits)] == [
        "representatives", "sizes", "orbit_of", "step", "mirror"]
    for owner, name in ((DiagramBasis, "index_of"), (DiagramBasis, "__getitem__"),
                        (Orbits, "members_of"), (Orbits, "members"), (Orbits, "offsets"),
                        (Orbits, "grouped"), (GroundState, "expand")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    with pytest.raises(TypeError):
        iter(DiagramBasis(2, [[1, 0]]))


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_lists_its_own_names(module):
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(brauerloop, name) is value, name
        if callable(value):
            assert value.__module__ == module.__name__, name


def test_only_constants_are_not_classes_or_functions():
    constants = [name for module in MODULES for name in module.__all__
                 if not callable(getattr(module, name))]
    assert constants == ["REFERENCE", "DEFECT"]


def test_no_name_in_two_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_list_is_the_module_lists_in_order():
    names = [name for module in MODULES for name in module.__all__]
    assert brauerloop.__all__ == names + ["__version__"]


def test_star_import_binds_exactly_the_package_list():
    namespace = {}
    exec("from brauerloop import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(brauerloop.__all__)


def test_package_imports_no_public_name_by_name():
    # Only `from . import <modules>` and `from .<module> import *`: each public
    # name is written once, in its module's `__all__`.
    tree = ast.parse(inspect.getsource(brauerloop))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [module.__name__.rsplit(".", 1)[1] for module in MODULES]
    assert [(node.module, [alias.name for alias in node.names]) for node in imports] == (
        [(None, modules)] + [(module, ["*"]) for module in modules])
