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
or named by a dotted path in a string ("module.Class.field", never a bare
"field", which a dict key or a column name would match), anywhere in
src/levylab, perfbench/ or tests/.  It too compares identifiers only, so it cannot see
a field whose identifier is read elsewhere: a report's `h` shares it with
ObservationModel.h, and `guards` is a part of the benchmark's layer names.

The parameter scan takes every optional parameter (one with a default) of a
public top-level function, of a public method of a public class, and of a
public class's own __init__ (a dataclass's generated constructor is left
to the field scan).  A parameter is set when some call in src/levylab, perfbench/ or
tests/ of a function, method or class of the same identifier passes it: by
keyword, by position, or through a *args or **kwargs that may hold it.  An
option that no call sets is a constant in disguise.
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


def _string_names(node, dotted=False) -> list:
    """The identifiers of a string constant of dotted identifiers; with
    dotted=True, only of one with at least one dot."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if all(p.isidentifier() for p in parts) and len(parts) > dotted:
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


def _all_files() -> list:
    """src/levylab, perfbench/ and tests/."""
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
            + sorted((ROOT / "tests").rglob("*.py")))


def _fields_read() -> set:
    read = set()
    for path in _all_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            else:
                read.update(_string_names(node, dotted=True))
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


def _optional_parameters() -> dict:
    """Qualified parameter (module.function.param) -> (callee identifier,
    position, or None for a keyword-only parameter, and name)."""
    params = {}

    def add(qual, ident, args: ast.arguments, skip: int):
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            params[f"{qual}.{arg.arg}"] = (ident, i, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                params[f"{qual}.{arg.arg}"] = (ident, None, arg.arg)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                add(qual, node.name, node.args, 0)
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                static = any(ast.unparse(d) == "staticmethod" for d in method.decorator_list)
                if method.name == "__init__":
                    add(qual, node.name, method.args, 1)
                elif not method.name.startswith("_"):
                    add(f"{qual}.{method.name}", method.name, method.args, 0 if static else 1)
    return params


def _calls() -> dict:
    """Callee identifier -> (positional count, has *args, keyword names,
    has **kwargs) of each call in src/levylab, perfbench/ and tests/."""
    calls = {}
    for path in _all_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                ident = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(ident, []).append((
                    len(node.args), any(isinstance(a, ast.Starred) for a in node.args),
                    {kw.arg for kw in node.keywords}, any(kw.arg is None for kw in node.keywords)))
    return calls


def test_optional_parameters_are_set():
    calls = _calls()

    def is_set(ident, pos, name):
        return any(name in keywords or double_star
                   or pos is not None and (pos < n_pos or star)
                   for n_pos, star, keywords, double_star in calls.get(ident, []))

    unset = sorted(q for q, spec in _optional_parameters().items() if not is_set(*spec))
    assert not unset, f"optional parameters that no call sets: {unset}"
