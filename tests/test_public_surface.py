"""The package exports no function that exists only for its own unit tests.

Every function in ``chirped_bath.__all__`` must be named outside the module
that defines it and the package's ``__init__``: in another module of the
package, the README, the benchmark or the acceptance criteria.  Classes are exempt, since they are
result and parameter types.
"""

import inspect
import re
from pathlib import Path

import chirped_bath as cb

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chirped_bath"


def test_every_exported_function_has_a_caller():
    callers = {
        path: path.read_text() for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
    }
    callers.update((path, path.read_text()) for path in (ROOT / "bench").glob("*.py"))
    for path in (ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"):
        callers[path] = path.read_text()
    unused = []
    for name in cb.__all__:
        obj = getattr(cb, name)
        if not inspect.isfunction(obj):
            continue
        home = Path(inspect.getsourcefile(obj)).resolve()
        pattern = re.compile(rf"\b{name}\b")
        if not any(pattern.search(text) for path, text in callers.items() if path != home):
            unused.append(name)
    assert not unused, f"exported but named only in their own module: {unused}"
