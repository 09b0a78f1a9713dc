"""Dead code in `src/coupons`, found from the syntax trees alone.

Three kinds are flagged: an import a module never uses, a module-level
private name (a function, class or constant whose name starts with one
underscore) that no code in the package loads, and a parameter other
than `self` or `cls` that its function or lambda never reads (a knob
accepted, then dropped).  Tests and the benchmark do not count as
users: a private helper kept only for them is dead in the library.  The
check parses each module with `ast` and imports none.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "coupons")


def _trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                trees[name] = ast.parse(f.read(), name)
    return trees


def _exported(tree):
    """The strings of a module-level __all__, the names it re-exports."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _loaded(tree):
    """The identifiers a module reads: the names it loads and the attributes it takes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in _trees().items():
        used = _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append("%s:%d %s" % (name, node.lineno, bound))
    assert unused == []


def test_every_private_module_name_is_loaded():
    trees = _trees()
    loaded = set()
    for tree in trees.values():
        loaded |= _loaded(tree)
        loaded |= {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += ["%s:%d %s" % (name, node.lineno, d) for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in loaded]
    assert dead == []


def test_every_parameter_is_read():
    unread = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += ["%s:%d %s" % (name, node.lineno, p.arg) for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")]
    assert unread == []
