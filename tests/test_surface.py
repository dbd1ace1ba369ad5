"""The package exports only what the package itself, the CLI or a demo
uses: every name ``subseqlab/__init__.py`` imports must be referenced in
another module of the package, outside its own definition, or in a demo,
every private top-level name must be referenced in the package outside
its own definition, and every public method or property of a package
class must be read as an attribute in the package or a demo.  Code that
only tests reach belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subseqlab"

# exported with no caller yet: the profile upper bound on mu_k, which
# the growth window is to use
ALLOWED_WITHOUT_CALLER = {"mu_upper_from_profile"}


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(tree: ast.Module) -> set[str]:
    """Names read as a bare name or an attribute in ``tree``; a name
    read only inside its own top-level def or class does not count."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue  # an assignment target is a definition, not a use
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_export_has_a_package_or_demo_caller():
    exported = _exported_names()
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        referenced |= _references(ast.parse(path.read_text()))
    for path in sorted((ROOT / "demos").glob("*.py")):
        referenced |= _references(ast.parse(path.read_text()))
    uncalled = exported - referenced - ALLOWED_WITHOUT_CALLER
    assert not uncalled, f"exported but used only by tests: {sorted(uncalled)}"
    # an allowlisted name that gains a caller leaves the allowlist
    assert not ALLOWED_WITHOUT_CALLER & referenced, sorted(ALLOWED_WITHOUT_CALLER & referenced)
    assert ALLOWED_WITHOUT_CALLER <= exported


def test_every_private_name_has_a_package_caller():
    referenced = set()
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        referenced |= _references(tree)
        for top in tree.body:
            if isinstance(top, ast.Assign):
                targets = top.targets
            elif isinstance(top, ast.AnnAssign):
                targets = [top.target]
            else:
                targets = [top]
            for node in targets:
                name = getattr(node, "name", None) or getattr(node, "id", None)
                if name and name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in referenced)
    assert not unused, f"private names nothing in the package uses: {unused}"


def test_every_public_class_member_is_read_in_the_package_or_a_demo():
    # attributes are matched by name alone, whatever object they are read on
    read = set()
    members = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        if path.parent != PACKAGE:
            continue
        members += [
            (f"{path.name}:{top.name}.{item.name}", item.name)
            for top in tree.body
            if isinstance(top, ast.ClassDef)
            for item in top.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")
        ]
    unread = sorted(qualified for qualified, name in members if name not in read)
    assert not unread, f"class members no package code or demo reads: {unread}"
