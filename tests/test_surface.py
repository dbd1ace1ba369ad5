"""The package exports only what the package itself, the CLI or a demo
uses: every name ``subseqlab/__init__.py`` imports must be referenced in
another module of the package, outside its own definition, or in a demo.
Code that only tests reach belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subseqlab"

# exported with no caller yet, each for a stated reason:
ALLOWED_WITHOUT_CALLER = {
    # the public certificate routes, pinned by digest together with the
    # info only they compute; whether they stay is an open design item
    "duplicate_letter_certificate",
    "lcs_pair_certificate",
    "chained_certificate",
    "best_triple",
    # the profile upper bound on mu_k, which the growth window is to use
    "mu_upper_from_profile",
}


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
