"""``tools/line_coverage.py`` on a two-function module: what ran, what did not."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"

MODULE = '''"""A module with one function a caller uses and one it does not."""

LIMIT = 3


def used(x):
    """Docstrings are not statements."""
    if x > LIMIT:
        raise ValueError("too big")
    total = 0
    for i in range(x):
        total += i
    return total


def unused(x):
    def inner():
        return x

    return inner()
'''


@pytest.fixture(scope="module")
def line_coverage():
    if "line_coverage" not in sys.modules:
        spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
        sys.modules["line_coverage"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["line_coverage"])
    return sys.modules["line_coverage"]


@pytest.fixture
def package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "two.py").write_text(MODULE)
    spec = importlib.util.spec_from_file_location("two_functions", root / "two.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return root, module


def test_lists_the_statements_that_never_ran(line_coverage, package):
    root, module = package
    result, seen = line_coverage.trace_lines(root, lambda: module.used(3))
    assert result == 3
    missed = line_coverage.unrun_statements(root / "two.py", seen[str(root / "two.py")])
    assert missed == [
        (9, 'raise ValueError("too big")'),
        (17, "def inner():"),
        (18, "return x"),
        (20, "return inner()"),
    ]


def test_a_run_that_reaches_everything_lists_nothing(line_coverage, package):
    root, module = package

    def both():
        with pytest.raises(ValueError):
            module.used(4)
        return module.used(2) + module.unused(5)

    result, seen = line_coverage.trace_lines(root, both)
    assert result == 6
    text, total = line_coverage.report(root, seen)
    assert total == 0 and text == "0 function-body statements never ran"


def test_code_outside_the_package_is_not_followed(line_coverage, package, tmp_path):
    root, module = package
    _, seen = line_coverage.trace_lines(tmp_path / "elsewhere", lambda: module.used(1))
    assert seen == {}
    text, total = line_coverage.report(root, {})
    assert total == 9  # every function-body statement of the module
    assert text.splitlines()[0] == f"{(root / 'two.py').resolve()}:8: if x > LIMIT:"


def test_the_tracer_in_place_before_is_restored(line_coverage, package):
    root, module = package
    before = sys.gettrace()
    line_coverage.trace_lines(root, lambda: module.used(1))
    assert sys.gettrace() is before
