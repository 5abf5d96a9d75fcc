"""Every public module-level function or class in ``src/isinglab`` has a
reader in the package or in the benchmark scripts, or waits in ``PENDING``
for the ROADMAP item that wires it into a command.  Every private one, every
method or property of a ``src/`` class, and every module-level UPPER_CASE
constant has a reader there too: a helper that only the tests call belongs
in the tests, and a tolerance that no check reads any more goes.

The files are parsed, not imported, so nothing under ``bench/`` runs or
gets written.  A read is a loaded name, an attribute, an imported name, or a
string constant equal to the name (``bench/layers.py`` lists the functions
it traces as strings); reads inside the name's own definition do not count.
Class members are matched by name, whatever object the attribute is read on.
An annotated field of a ``src/`` class is read by an attribute load or an
equal string constant in ``src/``, ``bench/`` or ``tests/``, unless its class
serialises itself with ``asdict``.

The tests hold to the same rule: a module-level function in ``tests/`` that
is not a ``test_*`` function has a reader in ``tests/``.  A fixture is read
when a test or another fixture takes a parameter of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "isinglab").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# name -> the ROADMAP open item that gives it a command reader
PENDING = {
    "GlauberBandSpec": "items 2 and 3: band weights and the gap certificate",
    "UnionBandSpec": "items 2 and 3: band weights and the gap certificate",
    "annealed_band_weights": "items 2 and 3: band weights and the gap certificate",
    "exact_band_weights": "items 2 and 3: band weights and the gap certificate",
    "conductance_lower_bound_report": "items 2 and 3: the conductance report",
    "default_band_epsilon": "items 2 and 3: band half-width from the landscape",
    "dirichlet_quotient": "item 3: the exact conductance certificate",
    "stability_probe": "item 6: local-CLT hypotheses of the sampler",
    "characteristic_bound_probe": "item 6: local-CLT hypotheses of the sampler",
}


def _definitions(private: bool = False) -> set:
    """Module-level function and class names of ``src/``, the public or the
    private ones."""
    names = set()
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                names.add(node.name)
    return names


def _constants() -> set:
    """Module-level UPPER_CASE names assigned in ``src/``: the package's
    caps, tolerances and tables."""
    names = set()
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names.update(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name) and sub.id.isupper())
    return names


def _members() -> set:
    """Method and property names of the classes in ``src/``, dunders left
    out; a dataclass field is an annotation, not a definition."""
    names = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names.update(sub.name for sub in node.body
                             if isinstance(sub, ast.FunctionDef)
                             and not sub.name.startswith("__"))
    return names


def _reads(node, own=frozenset()) -> set:
    """Names read anywhere under ``node``, less each read of the name of a
    definition that encloses it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        found.update(alias.name for alias in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found.add(node.value)
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, own)
    return found - own


def _read_names() -> set:
    """Names read in ``src/`` and ``bench/*.py``."""
    return set().union(*(_reads(ast.parse(path.read_text())) for path in SRC + BENCH))


def test_every_public_name_has_a_reader_or_a_pending_item():
    unread = _definitions() - _read_names()
    assert sorted(unread - PENDING.keys()) == []


def test_pending_names_are_defined_and_still_unread():
    """A name that gains a reader, or goes, leaves PENDING."""
    defined, read = _definitions(), _read_names()
    assert sorted(PENDING.keys() - defined) == []
    assert sorted(PENDING.keys() & read) == []


def test_every_private_name_has_a_reader():
    assert sorted(_definitions(private=True) - _read_names()) == []


def test_every_constant_has_a_reader():
    """A cap or tolerance that its last check left behind goes with it."""
    assert sorted(_constants() - _read_names()) == []


def test_every_class_member_has_a_reader():
    assert sorted(_members() - _read_names()) == []


def _fields() -> set:
    """Annotated field names of the classes in ``src/``, less those of a
    class that serialises itself with ``asdict``, which writes every field."""
    names = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and not any(
                    isinstance(sub, ast.Name) and sub.id == "asdict"
                    for sub in ast.walk(node)):
                names.update(sub.target.id for sub in node.body
                             if isinstance(sub, ast.AnnAssign)
                             and isinstance(sub.target, ast.Name))
    return names


def test_every_class_field_has_a_reader():
    """A result field that nothing reads goes.  A read is an attribute load
    or an equal string constant in ``src/``, ``bench/`` or ``tests/``;
    passing the field to the constructor is not one."""
    read = set()
    for path in SRC + BENCH + TESTS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert sorted(_fields() - read) == []


def _is_fixture(node) -> bool:
    """A function decorated ``@pytest.fixture`` or ``@pytest.fixture(...)``."""
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(dec, ast.Attribute) and dec.attr == "fixture":
            return True
    return False


def test_every_test_helper_has_a_reader():
    helpers, read = set(), set()
    for path in TESTS:
        tree = ast.parse(path.read_text())
        read |= _reads(tree)
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("test_") or _is_fixture(node):
                read.update(arg.arg for arg in node.args.args)
            if not node.name.startswith("test_"):
                helpers.add(node.name)
    assert sorted(helpers - read) == []
