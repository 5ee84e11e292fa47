"""Fail on an unused import in src/cantorlearn, tests or tools under a checkout root.

No linter is a dependency: every name a module imports (bar __future__) must be read
somewhere that resolves to that import, not to a local binding of the same name (an
argument, an assignment, loop or comprehension variable) in the scope that reads it.
Prints each unused import as ``path:line: ...``, the path relative to the root, and
exits 1 if there is one:

    python3 tools/unused_imports.py <checkout root>
"""

import ast, pathlib, sys

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def scan(tree):
    """(imports, loads): each import as (scope, name, line), each load as (scope, name),
    with the names each scope binds in bound and each scope's parent in parent."""
    bound, parent, imports, loads = {tree: set()}, {tree: None}, [], []

    def visit(node, scope):
        if isinstance(node, (*FUNCS, ast.ClassDef, *COMPS)):
            if not isinstance(node, (ast.Lambda, *COMPS)):
                bound[scope].add(node.name)
            bound[node], parent[node] = set(), scope
            # what the enclosing scope evaluates: decorators, bases, defaults, annotations, the first iterable
            outer = [*getattr(node, "decorator_list", ()), *getattr(node, "bases", ()), *getattr(node, "keywords", ())]
            if isinstance(node, FUNCS):
                a = node.args
                outer += [*a.defaults, *filter(None, a.kw_defaults), *filter(None, [getattr(node, "returns", None)])]
                for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]:
                    bound[node].add(arg.arg)
                    outer += filter(None, [arg.annotation])
            if isinstance(node, COMPS):
                outer.append(node.generators[0].iter)
            for child in outer:
                visit(child, scope)
            skip = {id(c) for c in outer} | {id(getattr(node, "args", None))}
            for child in ast.iter_child_nodes(node):
                if id(child) not in skip:
                    visit(child, node)
            return
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append((scope, node.id))
            else:  # a store or del target: an assignment, loop or comprehension variable
                bound[scope].add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[scope].add(name)
                imports.append((scope, name, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound[scope].add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, tree)
    return imports, loads, bound, parent


def binder(scope, name, bound, parent):
    """The scope a load of name in scope reads: the nearest that binds it, class bodies
    seen only from themselves."""
    here = scope
    while scope is not None:
        if name in bound[scope] and (scope is here or not isinstance(scope, ast.ClassDef)):
            return scope
        scope = parent[scope]
    return None


root = pathlib.Path(sys.argv[1])
unused = []
for path in sorted(p.relative_to(root) for d in ("src/cantorlearn", "tests", "tools") for p in (root / d).glob("*.py")):
    imports, loads, bound, parent = scan(ast.parse((root / path).read_text()))
    used = {(id(binder(scope, name, bound, parent)), name) for scope, name in loads}
    for scope, name, line in imports:
        if (id(scope), name) not in used:
            unused.append(f"{path}:{line}: {name} is imported but never used")
print("\n".join(unused) or "no unused imports in src/cantorlearn, tests or tools")
sys.exit(bool(unused))
