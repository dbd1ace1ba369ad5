"""The package exports only what the package itself, the CLI or a demo
uses: every name in the ``_EXPORTS`` table of ``subseqlab/__init__.py``
must be its module's object of that name and must be referenced in
another module of the package, outside its own definition, or in a demo,
every private top-level name must be referenced in the package outside
its own definition, and every public method or property of a package
class must be read as an attribute in the package or a demo.  Code that
only tests reach belongs in ``tests/oracles.py``.  ``import subseqlab``
loads no engine module; a name loads its own module and what that imports.
Every callable export, fed junk arguments, raises only the documented
error types."""

import ast
import inspect
import os
import signal
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import subseqlab
from subseqlab.errors import BudgetError, ContractError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subseqlab"

# exported with no caller yet: the profile upper bound on mu_k, which
# the growth window is to use
ALLOWED_WITHOUT_CALLER = {"mu_upper_from_profile"}


def _export_table() -> dict[str, str]:
    """``_EXPORTS`` of ``__init__.py``, read from its source: exported
    name -> defining module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    [table] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
    ]
    return table


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
    exported = set(_export_table())
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


def test_exports_resolve_to_their_modules_and_are_listed():
    table = _export_table()
    assert table == subseqlab._EXPORTS
    for name, module in table.items():
        defined = getattr(import_module(f"subseqlab.{module}"), name)
        assert getattr(subseqlab, name) is defined, name
    assert subseqlab.__all__ == sorted(table)
    assert subseqlab.__version__ == "0.1.0"


def _loaded_after(statement: str) -> list[str]:
    """The ``subseqlab`` submodules, ``json`` and ``importlib.resources``
    that a fresh interpreter has loaded after running ``statement``."""
    probe = (
        f"{statement}\n"
        "import sys\n"
        "watched = ('json', 'importlib.resources')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('subseqlab.') or m in watched)))\n"
    )
    # -S: no site packages, so nothing but the statement imports modules
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_loads_only_the_engines_a_caller_uses():
    # dir() lists every export before any of them was looked up
    assert _loaded_after(
        "import subseqlab\n"
        "assert set(subseqlab.__all__) <= set(dir(subseqlab))"
    ) == []
    assert _loaded_after("from subseqlab import counting, extremal") == [
        "subseqlab.counting",
        "subseqlab.errors",
        "subseqlab.extremal",
        "subseqlab.words",
    ]
    # the registry reads its JSON only when asked, and still finds the
    # record; a looked-up name is kept in the package's namespace
    loaded = _loaded_after(
        "import subseqlab\n"
        "from subseqlab import ExtremalRecord, known_record\n"
        "assert known_record(2, 40) == ExtremalRecord(2, 40, 5500610, None, 'verified-external')\n"
        "assert 'known_record' in vars(subseqlab)"
    )
    assert {"json", "importlib.resources"} <= set(loaded)


class _Slow(BaseException):
    """Raised by the alarm in a call that runs past its time."""


def _on_alarm(signum, frame):
    raise _Slow


def test_junk_arguments_raise_only_documented_errors():
    # every callable export, called with junk positional arguments, may
    # raise only ContractError or BudgetError; a call that runs past its
    # short alarm is stopped and passes
    junk = [None, 1.5, "3", (2,), -1, [0, 1], subseqlab.word("ab"), 5]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    calls = 0
    try:
        for name in sorted(_export_table()):
            f = getattr(subseqlab, name)
            if not callable(f):
                continue
            try:
                params = inspect.signature(f).parameters.values()
                arity = sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)
            except ValueError:  # a builtin type such as an exception class
                arity = 1
            rows = [[j] * arity for j in junk]
            rows += [[junk[(i + r) % len(junk)] for i in range(arity)] for r in range(len(junk))]
            for args in rows:
                calls += 1
                signal.setitimer(signal.ITIMER_REAL, 0.5)
                try:
                    f(*args)
                except (ContractError, BudgetError, _Slow):
                    pass
                except Exception as e:
                    raise AssertionError(f"{name}{tuple(args)!r} raised {e!r}") from e
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert calls >= 16 * 40
