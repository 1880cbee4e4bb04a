"""The package's public functions and classes all have a caller.

A public module-level function or class of ``src/gconv`` must be named in
another module of the package, in its own module outside its definition, or
in the acceptance suite.  What only the other unit tests reach is not API.
The same holds for the public methods and properties of every class, and
no module reads an underscore name of another.

A use is resolved to the module that defines it: a bare name counts for the
module it was imported from (or its own module), and an attribute counts only
on a name bound to a package module (``assembly.assemble_mass``), so a method
of the same name on an unrelated object is no use.  A string constant counts
for its own module, because the experiment registry names its runners.
Methods are matched by name alone: any attribute, or string constant, of
that name outside the method's own body is a use.

Parameters follow the same rule: every optional parameter of a public
function or method must be passed, by keyword or by position, by some call
in the package or in the acceptance suite.  A parameter that only unit
tests set is not API either.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gconv"


def _uses(tree, stem, skip=None) -> set:
    """``(module, name)`` pairs used under ``tree`` of module ``stem``,
    leaving out the subtree ``skip``; an import alone is no use."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if not node.level:
            if source.split(".")[0] != "gconv":
                continue
            source = source.removeprefix("gconv").lstrip(".")
        for alias in node.names:
            bound = alias.asname or alias.name
            if source:
                names[bound] = (source, alias.name)
            else:
                modules[bound] = alias.name
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(names.get(node.id, (stem, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            out.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add((stem, node.value))
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_public_definitions_are_reached():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = {stem: _uses(tree, stem) for stem, tree in trees.items()}
    used["test_acceptance"] = _uses(
        ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()), "test_acceptance")
    unreached = []
    for stem, tree in trees.items():
        elsewhere = set().union(*(u for s, u in used.items() if s != stem))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and (stem, node.name) not in elsewhere
                    and (stem, node.name) not in _uses(tree, stem, skip=node)):
                unreached.append(f"{stem}.{node.name}")
    assert not unreached, f"public but reached only by unit tests: {unreached}"


def test_no_module_reads_a_private_name_of_another():
    # what one module takes from another is that module's API, so it is public
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for module, name in _uses(ast.parse(path.read_text()), path.stem):
            if module != path.stem and name.startswith("_") and not name.startswith("__"):
                reads.append(f"{path.stem} reads {module}.{name}")
    assert not reads, f"private names read across modules: {reads}"


def _attribute_names(tree, skip) -> set:
    """Attribute names and string constants under ``tree``, outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_public_methods_are_reached():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    unreached = []
    for stem, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and not any(node.name in _attribute_names(t, node)
                                    for t in [acceptance, *trees.values()])):
                    unreached.append(f"{stem}.{cls.name}.{node.name}")
    assert not unreached, f"public methods reached only by unit tests: {unreached}"


# optional parameters that stay unpassed, each with the reason it stays
UNPASSED_ALLOWED = {
    # the benchmark's tracer binds assemble_mass(space, weight, h, quad_order)
    # by name
    ("assembly.assemble_mass", "quad_order"): "bench tracer",
}


def _optional_parameters(node, method: bool):
    """``(name, position)`` of each optional parameter of a def; position is
    None for keyword-only ones and for ``**kwargs``."""
    args = node.args
    positional = args.posonlyargs + args.args
    if method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    if args.kwarg is not None:
        out.append((f"**{args.kwarg.arg}", None))
    return out


def _passed(trees) -> dict:
    """Called name -> (most positional arguments, keywords) over all calls;
    a starred argument passes every position, ``**`` every keyword."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            most, keywords = out.setdefault(name, [0, set()])
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out[name][0] = max(most, float("inf") if starred else len(node.args))
            keywords.update(k.arg or "**" for k in node.keywords)
    return out


def test_optional_parameters_are_passed():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    passed = _passed([acceptance, *trees.values()])
    defs = []  # (qualified name, def node, is a method)
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((f"{stem}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{stem}.{node.name}.{m.name}", m, True) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    unpassed = []
    for qualname, node, method in defs:
        most, keywords = passed.get(node.name, (0, set()))
        named = {a.arg for a in node.args.posonlyargs + node.args.args
                 + node.args.kwonlyargs}
        for param, position in _optional_parameters(node, method):
            if param.startswith("**"):
                hit = "**" in keywords or bool(keywords - named)
            else:
                hit = param in keywords or "**" in keywords or (
                    position is not None and most > position)
            if not hit and (qualname, param) not in UNPASSED_ALLOWED:
                unpassed.append(f"{qualname}({param})")
    assert not unpassed, f"optional parameters only unit tests pass: {unpassed}"
