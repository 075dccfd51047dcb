"""Package-wide lint checks."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

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


def test_inversion_goes_through_exact_inv():
    # exact.inv is the one entry point that inverts a value and refuses one
    # that is not exact, so no other module calls an .inverse() method
    hits = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
            if path.name != "exact.py" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inverse"]
    assert not hits


def test_no_source_comment_cites_a_roadmap_item_by_number():
    # ROADMAP.md renumbers its items at each re-anchor, so a cited number
    # goes stale; source text names the work in words instead
    hits = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"ROADMAP item \d", line)]
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


# public members that two or more package classes define: a use of one of
# these names counts for a class only where the receiver is known to be of
# that class (see _known_member_uses)
AMBIGUOUS_MEMBERS = {
    "inverse": ("GaussianRational", "MultiLaurent"),
    "to_json": ("ComponentTable", "EigenReport", "MultiLaurent"),
}


def _class_name(node, classes):
    """The package class an annotation or class reference names, else None."""
    if isinstance(node, ast.Constant) and node.value in classes:
        return node.value
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in classes else None


def _known_member_uses(trees, members) -> set:
    """(Class, member) for each use recv.member, member in members, outside
    the definition of Class.member, whose receiver is known to be Class: self
    in Class's methods; Class itself; a call of Class, or of a function or
    method annotated to return Class; a name annotated as Class, bound only
    by assignments of such values, or narrowed by isinstance(name, Class)."""
    classes = {c.name for t in trees for c in t.body if isinstance(c, ast.ClassDef)}
    returns = {}  # function name, or (class, method): the class it returns
    for t in trees:
        for f in t.body:
            body = f.body if isinstance(f, ast.ClassDef) else [f]
            for g in body:
                if isinstance(g, ast.FunctionDef) and _class_name(g.returns, classes):
                    key = (f.name, g.name) if g is not f else g.name
                    returns[key] = _class_name(g.returns, classes)

    def kind(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id, _class_name(node, classes))
        if isinstance(node, ast.Attribute):
            return _class_name(node, classes)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                return _class_name(f, classes) or returns.get(f.id)
            if isinstance(f, ast.Attribute):
                owner = _class_name(f.value, classes)
                return returns.get((owner, f.attr)) if owner else returns.get(f.attr)
        return None

    def scope(fn, env, cls) -> dict:
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        local = {a.arg: _class_name(a.annotation, classes) for a in args}
        if cls and args and args[0].arg == "self":
            local["self"] = cls
        if isinstance(fn, ast.FunctionDef):
            stores, values = {}, {}
            for n in ast.walk(fn):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    stores[n.id] = stores.get(n.id, 0) + 1
                if isinstance(n, ast.Assign) and len(n.targets) == 1 \
                        and isinstance(n.targets[0], ast.Name):
                    values.setdefault(n.targets[0].id, []).append(kind(n.value, {**env, **local}))
                elif isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                    values.setdefault(n.target.id, []).append(_class_name(n.annotation, classes))
            for name, count in stores.items():
                ks = set(values.get(name, ()))
                local[name] = ks.pop() if len(values.get(name, ())) == count and len(ks) == 1 else None
        return local

    uses = set()

    def visit(node, env, where, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            env = {**env, **scope(node, env, cls)}
            if isinstance(node, ast.FunctionDef):
                where, cls = (cls, node.name), None
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Call) \
                and getattr(node.test.func, "id", None) == "isinstance" \
                and isinstance(node.test.args[0], ast.Name):
            narrowed = {**env, node.test.args[0].id: _class_name(node.test.args[1], classes)}
            for child in node.body:
                visit(child, narrowed, where, cls)
            for child in [node.test] + node.orelse:
                visit(child, env, where, cls)
            return
        elif isinstance(node, ast.Attribute) and node.attr in members:
            owner = kind(node.value, env)
            if owner and where != (owner, node.attr):
                uses.add((owner, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, env, where, cls)

    for t in trees:
        visit(t, {}, None, None)
    return uses


def _unreferenced_public_names() -> list:
    """Names in an __all__, and public methods and properties of package
    classes (as Class.member), that no code in the package uses outside their
    own definition and that perfbench does not name.  A class member counts
    as used only when it is read as an attribute, and a member of
    AMBIGUOUS_MEMBERS only where its receiver, in the package or in
    perfbench, is known to be of its class."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    public = [(n, n, False) for name in MODULES
              for n in getattr(importlib.import_module(f"xtl.{name}"), "__all__", ())]
    public += [(f"{cls.name}.{f.name}", f.name, True) for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) for f in cls.body
               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    # perfbench wraps bindings that it looks up by name, so a string there counts
    bench, bench_trees = set(), []
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench_trees.append(tree)
        bench |= _code_names(tree) | {n.value for n in ast.walk(tree)
                                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    known = _known_member_uses(trees + bench_trees, AMBIGUOUS_MEMBERS)
    return [label for label, name, attributes_only in public
            if (tuple(label.split(".")) not in known if name in AMBIGUOUS_MEMBERS
                else name not in bench and not any(
                    name in _code_names(tree, name, attributes_only) for tree in trees))]


def test_ambiguous_members_are_listed():
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                for f in cls.body:
                    if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                        owners.setdefault(f.name, []).append(cls.name)
    assert {m: tuple(sorted(c)) for m, c in owners.items() if len(c) > 1} == AMBIGUOUS_MEMBERS


def test_a_use_counts_only_for_the_class_of_its_known_receiver():
    tree = ast.parse(
        "class A:\n"
        "    def to_json(self): return self.to_json()\n"
        "    def pair(self): return A()\n"
        "class B:\n"
        "    def to_json(self): return 1\n"
        "class C:\n"
        "    def to_json(self): return 1\n"
        "def make() -> 'B': return B()\n"
        "def f(x, y: C, z):\n"
        "    x.to_json()\n"
        "    w = A().pair()\n"
        "    w.to_json()\n"
        "    for v in [A()]:\n"
        "        v.to_json()\n"
        "    if isinstance(z, C):\n"
        "        z.to_json()\n"
        "    return make().to_json(), y\n")
    # self.to_json inside A.to_json is its own definition; x, w (pair has no
    # return annotation) and v (a loop variable) are unknown; y is annotated
    # but unused, z is narrowed and make() is annotated
    assert _known_member_uses([tree], {"to_json"}) == {("B", "to_json"), ("C", "to_json")}


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


def test_qkz_leaves_the_collision_test_to_its_residue_tables():
    # a curve's abscissae are filtered by the residue evaluation alone, so
    # qkz must not reach the sampler's pole-collision set, a superset of the
    # tables' own
    names = set()
    for n in ast.walk(ast.parse((SRC / "qkz.py").read_text())):
        if isinstance(n, ast.ImportFrom):
            names |= {a.name for a in n.names}
        elif isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    assert "z_point_degenerate" not in names


_TRACER_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import xtl.cli, xtl.spinchain, xtl.theorems
from tracing import Tracer
from xtl import qkz
from xtl.sampling import ExactSampler
rng = ExactSampler(5)
s, beta = rng.s_value(), rng.beta_value()
zs = rng.z_point(3, s, beta)
tracer = Tracer()
tracer.install()
fitted = len(qkz.psi_vector_poly_in_z(3, zs, 2, s, beta))
m = tracer.metrics()
print(json.dumps([fitted, m["exact.interpolate_laurent.calls"],
                  m["exact.interpolate_laurent.points"]]))
"""


def test_benchmark_tracer_finds_every_traced_binding():
    # perfbench/tracing.py wraps named functions of each layer and raises when
    # one has no binding left, so renaming or removing a traced function fails
    # here, in a fresh process with the modules perfbench/run.py loads.  The
    # curve in z_2 at N = 3 then fits each component of the vector in z_2^2
    # through one exact.interpolate_laurent call on a window of 3 abscissae,
    # so a route around that call would zero the interpolation layer metrics
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", _TRACER_INSTALL, str(ROOT / "perfbench")],
                       capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert r.returncode == 0, r.stderr
    fitted, calls, points = json.loads(r.stdout)
    assert fitted > 0 and calls == fitted and points == 3 * calls


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("negative", [False, True], ids=["checks", "negative_control"])
def test_benchmark_ops_pass_and_their_negative_control_fails(negative):
    # each benchmark op compares a result shape exactly (the qkz check dicts,
    # the yang-baxter family dict, EigenReport.to_json()), so changing one of
    # those shapes fails here, not only in a benchmark run
    workloads = _benchmark_workloads()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    verdicts = [(name, op.label, bool(op.check(op.run()))) for name in names
                for op in workloads.build_ops(name, 3, "tiny", negative=negative, inprocess=True)]
    assert {name for name, _, _ in verdicts} == set(names)
    assert [(name, label) for name, label, ok in verdicts if ok == negative] == []
