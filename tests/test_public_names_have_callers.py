"""Every public name of the package has a caller in the package or the
benchmark, and every field of its classes is read somewhere.

The scan takes the public top-level functions, classes and constants of
src/levylab/*.py and the public methods of those classes.  A name is called
when its identifier is read somewhere in src/levylab (the re-exports of
levylab/__init__.py do not count) or in perfbench/, as a name, an attribute,
an import, a keyword argument or a string naming it (the benchmark patches
its layer targets by name).  A method that overrides one of a base class in
the same module is reached through that class and is not listed on its own.
The scan compares identifiers only, so a name that shares its identifier
with a called name passes.

The field scan takes the fields of every top-level class of
src/levylab/*.py: the annotated names of its body and the `self.x = ...`
targets of its methods.  A field is read when it is loaded as an attribute,
or named by a string of dotted identifiers, anywhere in src/levylab,
perfbench/ or tests/.  It too compares identifiers only, so it cannot see
a field whose identifier is read elsewhere: a report's `h` shares it with
ObservationModel.h, and `guards` is a part of the benchmark's layer names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levylab"

# names with no caller in the package that stay, each with its reason
KEPT = {
    "convergence.gronwall_check": "the acceptance suite checks the stochastic "
                                  "Gronwall inequality with it",
    "generator.eval_generator": "the acceptance suite evaluates the generator at "
                                "single points with it",
    "filtering.log_likelihood": "the acceptance suite and the filter tests compute "
                                "log S_T of one path with it",
    "filtering.FilterState.variance": "the acceptance suite compares the filter's "
                                      "variance with the Kalman filter's",
    "engine.simulate_path": "the single-particle replay reference of the engine "
                            "tests and the acceptance suite",
    "engine.CadlagPath.value_at": "the acceptance suite reads simulate_path's "
                                  "signal on the observation grid with it",
    "measures.LevyMeasure.first_moment": "the tests' reference for first_moment_upper",
    "psi.PsiFunction.deriv": "tests/test_psi.py checks constructed profiles against it",
    "psi.PsiFunction.second": "tests/test_psi.py checks constructed profiles against it",
    "rng.PROBE": "the tests' stream purpose",
}


def _public_names() -> dict:
    """Qualified name (module.name or module.Class.method) -> identifier."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

        def methods(cls):
            return {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}

        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [t.id for t in targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [node.name]
            else:
                found = []
            if isinstance(node, ast.ClassDef):
                inherited = set().union(*(methods(classes[b.id]) for b in node.bases
                                          if isinstance(b, ast.Name) and b.id in classes))
                found += [f"{node.name}.{m}" for m in methods(node) - inherited]
            for name in found:
                ident = name.rsplit(".", 1)[-1]
                if not ident.startswith("_"):
                    names[f"{path.stem}.{name}"] = ident
    return names


def _string_names(node) -> list:
    """The identifiers of a string constant of dotted identifiers."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(p.isidentifier() for p in parts):
            return parts
    return []


def _identifiers_read() -> set:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                read.add(node.arg)
            else:
                read.update(_string_names(node))
    return read


def _class_fields() -> dict:
    """Qualified field (module.Class.field) -> identifier."""
    fields = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            found = [node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            found += [node.attr for method in cls.body if isinstance(method, ast.FunctionDef)
                      for node in ast.walk(method)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name) and node.value.id == "self"]
            for name in found:
                fields[f"{path.stem}.{cls.name}.{name}"] = name
    return fields


def _fields_read() -> set:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            else:
                read.update(_string_names(node))
    return read


def test_public_names_have_callers():
    read = _identifiers_read()
    uncalled = {q for q, ident in _public_names().items() if ident not in read}
    missing = sorted(uncalled - set(KEPT))
    assert not missing, f"public names with no caller: {missing}"
    # a kept name that gained a caller, or no longer exists, leaves the list
    stale = sorted(set(KEPT) - uncalled)
    assert not stale, f"entries of KEPT that are called or gone: {stale}"


def test_class_fields_are_read():
    read = _fields_read()
    unread = sorted(q for q, ident in _class_fields().items() if ident not in read)
    assert not unread, f"class fields that nothing reads: {unread}"
