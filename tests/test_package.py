"""Package-wide lint checks."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "xtl"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"xtl.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_no_assert_statements():
    # correctness guards must be real exceptions: python -O strips asserts
    hits = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)]
    assert not hits


def test_gaussian_triple_is_read_only_in_exact():
    # GaussianRational's (a, b, d) triple is private to exact.py; other
    # modules clear scalars to integers through exact.gaussian_ints
    hits = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            if path.name != "exact.py" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("_a", "_b", "_d")]
    assert not hits


# public names, and public members of package classes, that only tests
# call, each kept as the reference its test compares a product route
# against: (test file, test)
TEST_REFERENCES = {
    "config_weight": ("test_sixvertex.py", "test_partition_enum_equals_sum_of_config_weights"),
    "config_from_tsasm": ("test_tsasm.py", "test_bijection_round_trip"),
    "triangular_array": ("test_tsasm.py", "test_statistics_bounds"),
    "psi_vector_homogeneous": ("test_qkz.py", "test_homogeneous_vector_matches_extraction_table"),
    "MultiLaurent.from_json": ("test_exact.py", "test_json_schema_roundtrip_and_order"),
    "TriangularArray.mu": ("test_tsasm.py", "test_statistics_bounds"),
    "TriangularArray.nu": ("test_tsasm.py", "test_statistics_bounds"),
}


def _code_names(node, skip=None, attributes_only=False) -> set:
    """Identifiers used as code under node (Name or Attribute, or Attribute
    alone), outside any definition named skip; strings and docstrings do not
    count."""
    names, todo = set(), [node]
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == skip:
            continue
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Name) and not attributes_only:
            names.add(n.id)
        todo.extend(ast.iter_child_nodes(n))
    return names


def _unreferenced_public_names() -> list:
    """Names in an __all__, and public methods and properties of package
    classes (as Class.member), that no code in the package uses outside their
    own definition and that perfbench does not name.  A class member counts
    as used only when it is read as an attribute."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    public = [(n, n, False) for name in MODULES
              for n in getattr(importlib.import_module(f"xtl.{name}"), "__all__", ())]
    public += [(f"{cls.name}.{f.name}", f.name, True) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for f in cls.body
               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    # perfbench wraps bindings that it looks up by name, so a string there counts
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench |= _code_names(tree) | {n.value for n in ast.walk(tree)
                                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return [label for label, name, attributes_only in public if name not in bench
            and not any(name in _code_names(tree, name, attributes_only) for tree in trees)]


def test_every_public_name_is_used_outside_its_definition():
    unused = _unreferenced_public_names()
    assert sorted(n for n in unused if n not in TEST_REFERENCES) == []
    # an entry of TEST_REFERENCES that the package starts to use is stale
    assert sorted(unused) == sorted(TEST_REFERENCES)
    for name, (path, test) in TEST_REFERENCES.items():
        tree = ast.parse((ROOT / "tests" / path).read_text())
        fn = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == test)
        assert name.split(".")[-1] in _code_names(fn), (name, test)


def test_sampling_imports_only_exact():
    # the modules that draw points import sampling, so sampling must not
    # import them back, not even at call time
    imported = set()
    for n in ast.walk(ast.parse((SRC / "sampling.py").read_text())):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.split(".")[0] == "xtl"):
            mod = n.module.removeprefix("xtl").lstrip(".") if n.module else ""
            imported |= {mod} if mod else {a.name for a in n.names}
        elif isinstance(n, ast.Import):
            imported |= {a.name[4:] for a in n.names if a.name.startswith("xtl.")}
    assert imported == {"exact"}
