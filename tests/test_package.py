"""The package's public names: each lower layer's `__all__`, re-exported;
and the names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import riordangraphs
from riordangraphs import binseries, cli, errors, riordan, rgraph

LAYERS = (binseries, errors, riordan, rgraph)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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


def _perfbench(name):
    """perfbench/<name>.py, loaded read-only by path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tier1_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks up its module as it is made
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_tracer_finds_and_restores_every_name():
    # perfbench/layers.py wraps functions of every layer by name; a deleted
    # or renamed one fails here, not in each traced benchmark run
    layers = _perfbench("layers")
    mods = [importlib.import_module(f"riordangraphs.{name}") for name in layers.MODULES]
    owners = [riordangraphs, *mods, rgraph.Graph, riordan.ASequence, binseries.BinarySeries]
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    try:
        tracer.install(riordangraphs)
    except KeyError as err:
        tracer.restore()
        raise AssertionError(f"the tracer wraps {err}, which no longer exists") from None
    patched = [(holder, name, orig, vars(holder)[name]) for holder, name, orig in tracer._undo]
    tracer.restore()
    assert len(patched) > 20
    for holder, name, orig, wrapped in patched:
        assert wrapped.__wrapped__ is orig, name
        assert vars(holder)[name] is orig, name
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_checks_pass_the_paper_artifacts_workload(monkeypatch):
    # the paper-artifacts workload's commands, replayed in this process and
    # judged by the benchmark's own checks: an output the benchmark would
    # count as incorrect fails here first
    from test_transcript import PAPER_ARTIFACTS

    # workloads.py imports checks.py by name; it is put in place of a
    # sys.path entry, and taken out again after the test
    monkeypatch.setitem(sys.modules, "checks", _perfbench("checks"))
    workloads = _perfbench("workloads")
    cmds = workloads.commands("paper-artifacts", workloads.Oracle(PERFBENCH.parent), seed=0)
    assert sorted(cmd.label for cmd in cmds) == sorted(PAPER_ARTIFACTS)
    assert len(cmds) == 21
    _, results = _perfbench("layers").replay(cli, cmds)
    problems = {cmd.label: cmd.check(*result)[1] for cmd, result in zip(cmds, results)}
    assert {label: found for label, found in problems.items() if found} == {}
