"""The package's public names: each lower layer's `__all__`, re-exported."""

import ast
import inspect
import sys
from pathlib import Path

import riordangraphs
from riordangraphs import binseries, errors, riordan, rgraph

LAYERS = (binseries, errors, riordan, rgraph)

# the names the package exported before it re-exported the layers' lists
EXPORTED = """
    ASequence BinarySeries BinaryTriangle CompositionError DisconnectedError
    DistanceReport Graph InvertibilityError IoViolationError LengthError
    PatternError PrecisionError RiordanError RiordanPair ScaleError UsageError
    a_sequence bell_matrix_from_aseq build build_bell_aseq catalan_bit
    catalan_graph catalan_pair from_bitstring g_from_aseq io_pattern_extend
    is_io_pattern named_series pascal_graph pascal_pair reverse_formula
    riordan_matrix
""".split()


def test_package_all_is_the_layers_all():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert riordangraphs.__all__ == names
    assert len(set(names)) == len(names)


def test_each_name_is_its_module_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(riordangraphs, name) is getattr(layer, name), name


def test_errors_all_names_its_exception_classes():
    defined = {
        name for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.RiordanError)
        and value.__module__ == errors.__name__
    }
    assert sorted(errors.__all__) == sorted(defined)
    assert "RiordanError" in errors.__all__


def test_earlier_exports_stay():
    assert len(EXPORTED) == 32
    assert set(EXPORTED) <= set(riordangraphs.__all__)
    assert "require_io_pattern" in riordangraphs.__all__


def test_src_imports_only_the_standard_library():
    # no runtime dependencies: every absolute import in the package names a
    # standard-library module
    paths = sorted(Path(riordangraphs.__file__).parent.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"
