"""Fail on a dead name in src/cantorlearn under a checkout root.

A dead name is a top-level def, class or constant, or a method, of src/cantorlearn that no
other line of a .py file under src/, tests/ or perfbench/ mentions as a word; dunders are
exempt.  A dead attribute is an instance attribute src/cantorlearn stores (self.<attr> = ...)
that no such file reads as an attribute (of any object) or names as a whole string, as
getattr would.  Prints each as ``path:line: ...``, the path relative to the root, and exits
1 if there is one:

    python3 tools/dead_names.py <checkout root>
"""

import ast, pathlib, re, sys

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
root = pathlib.Path(sys.argv[1])
lines = {
    p.relative_to(root): p.read_text().splitlines()
    for d in ("src", "tests", "perfbench")
    for p in sorted((root / d).rglob("*.py"))
}
nodes = [n for p in lines for n in ast.walk(ast.parse((root / p).read_text()))]
read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
read |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
dead = []
for path in sorted(p.relative_to(root) for p in (root / "src/cantorlearn").glob("*.py")):
    tree = ast.parse((root / path).read_text())
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and getattr(n.value, "id", None) == "self" and n.attr not in read:
            dead.append(f"{path}:{n.lineno}: self.{n.attr} is stored but no file reads it")
    defs = []  # (name, line)
    for node in tree.body:
        if isinstance(node, (*FUNCS, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            defs += [(m.name, m.lineno) for m in node.body if isinstance(m, FUNCS)]
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        defs += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    for name, line in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for p, ls in lines.items() for i, text in enumerate(ls, 1) if (p, i) != (path, line)):
            dead.append(f"{path}:{line}: {name} is defined but no other line mentions it")
print("\n".join(dead) or "no dead names in src/cantorlearn")
sys.exit(bool(dead))
