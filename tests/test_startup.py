"""Start-up cost: what importing the package loads, its namespace, and `python -m lahbell`."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lahbell

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY = "import sys; from lahbell.cli import main; sys.exit(main())"

# Modules no default-format request needs: dataclasses pulls in inspect, ast,
# dis and tokenize; json and csv serve only their own output formats.
NOT_AT_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "csv"}

# The modules an import adds, not all of sys.modules: a site hook that
# preloads one of the above must not decide the result.
ADDED = "import sys; before = set(sys.modules); import {}; print(*sorted(set(sys.modules) - before))"


def fresh(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", ["lahbell.cli", "lahbell"])
def test_import_loads_only_what_a_default_request_needs(module):
    result = fresh("-c", ADDED.format(module))
    assert (result.returncode, result.stderr) == (0, "")
    added = set(result.stdout.split())
    assert module in added
    assert added & NOT_AT_IMPORT == set()


# The public namespace, name for name and in order, as the package exported
# it when every submodule was imported eagerly.
PUBLIC = [
    "__version__",
    "Rational", "MultiPoly", "INDETERMINATES", "falling_factorial", "rising_factorial",
    "generalized_falling",
    "Triangle", "TRIANGLE_KINDS", "iter_rows", "lah", "stirling1_signed", "stirling2",
    "bell_number", "lah_bell_number", "lah_via_stirling", "stirling2_via_lah",
    "TruncatedSeries", "GF_NAMES", "gf_catalog", "identity_t", "ser_one",
    "geometric_minus_one", "exp_t_minus_one", "neg_log_one_minus_t", "degenerate_exponential",
    "FAMILIES", "poly_family", "bell_poly", "lah_bell_poly", "bivariate_bell_poly",
    "bivariate_lah_bell_poly", "degenerate_bell_poly", "degenerate_lah_bell_poly",
    "laguerre_poly", "lah_bell_recurrence_step", "lah_bell_derivative",
    "ENUMERATION_BOUNDS", "iter_set_partitions", "iter_ordered_partitions",
    "count_set_partitions", "count_ordered_partitions", "count_permutations_by_cycles",
    "CertifiedDecimal", "PrecisionNotReached", "DOBINSKI_FAMILIES", "lah_bell_dobinski",
    "bell_dobinski",
    "IdentityRecord", "CATALOG_IDS", "ORACLE_IDS", "run_suite", "oracle_records",
]
SUBMODULES = ["exact", "triangles", "series", "families", "enumeration", "dobinski", "identities"]


def test_bare_import_loads_no_submodule():
    result = fresh("-c", ADDED.format("lahbell"))
    assert (result.returncode, result.stderr) == (0, "")
    assert [name for name in result.stdout.split() if name.startswith("lahbell")] == ["lahbell"]


def test_all_is_the_public_namespace_in_order():
    assert len(PUBLIC) == 53
    assert lahbell.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC[1:])
def test_each_name_is_the_object_its_module_defines(name):
    home = f"lahbell.{lahbell._HOME[name]}"
    namespace = {}
    exec(f"from lahbell import {name}", namespace)
    obj = namespace[name]
    assert obj is getattr(importlib.import_module(home), name)
    if name == "Rational":  # the stdlib type, exported under the package's name
        assert obj is Fraction
    elif callable(obj):
        assert obj.__module__ == home


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_exports_its_row(module):
    # The row in _EXPORTS is the module's __all__, so a public name is written once.
    row = lahbell._EXPORTS[module]
    assert importlib.import_module(f"lahbell.{module}").__all__ == row
    namespace = {}
    exec(f"from lahbell.{module} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(row)


def test_readme_module_table_lists_every_module():
    # One row per row of _EXPORTS, in its order, then the command.
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `lahbell.")]
    assert listed == [*(f"lahbell.{module}" for module in lahbell._EXPORTS), "lahbell.cli"]


def test_submodules_resolve_after_a_bare_import():
    run = (
        "import sys, lahbell; print(*(getattr(lahbell, name).__name__ for name in sys.argv[1:])); "
        "from lahbell import *; print(*sorted(m for m in sys.modules if m.startswith('lahbell.')))"
    )
    result = fresh("-c", run, *SUBMODULES)
    assert (result.returncode, result.stderr) == (0, "")
    resolved, loaded = result.stdout.splitlines()
    assert resolved.split() == [f"lahbell.{name}" for name in SUBMODULES]
    assert loaded.split() == sorted(f"lahbell.{name}" for name in SUBMODULES)


def test_unknown_names_raise_and_dir_lists_every_export():
    with pytest.raises(AttributeError, match="module 'lahbell' has no attribute 'nope'"):
        lahbell.nope
    assert set(PUBLIC) <= set(dir(lahbell))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", "eq3", "--format", "json"],
            '[{"anchor":"x^n = sum_{k=0..n} S2(n,k) (x)_k","id":"eq3","range":"n <= 12","status":"pass"}]\n',
        ),
        (["table", "lah", "3", "--format", "csv"], "1\n0,1\n0,2,1\n0,6,6,1\n"),
        (["seq", "bell", "3", "--format", "csv"], "n,value\n0,1\n1,1\n2,2\n3,5\n"),
    ],
)
def test_json_and_csv_output_in_a_fresh_process(argv, expected):
    result = fresh("-c", ENTRY, *argv)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


@pytest.mark.parametrize("kind", ["bell", "lah_bell"])
def test_seq_csv_never_imports_csv(kind):
    run = (
        "import sys; before = set(sys.modules); from lahbell.cli import main; "
        "main(sys.argv[1:]); print('csv' in set(sys.modules) - before)"
    )
    result = fresh("-c", run, "seq", kind, "5", "--format", "csv")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[0] == "n,value"
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["seq", "lah_bell", "6"], ["verify", "nope"]])
def test_python_dash_m_matches_the_console_entry(argv):
    via_module = fresh("-m", "lahbell", *argv)
    via_entry = fresh("-c", ENTRY, *argv)
    assert via_module.returncode == via_entry.returncode
    assert via_module.stdout == via_entry.stdout
    assert via_module.stderr == via_entry.stderr


@pytest.mark.parametrize("path", sorted((SRC / "lahbell").glob("*.py")), ids=lambda path: path.name)
def test_modules_parse_as_python_3_10(path):
    # pyproject.toml promises Python 3.10; the interpreter running the tests
    # may be newer and would accept later syntax.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted((SRC / "lahbell").glob("*.py")), ids=lambda path: path.name)
def test_modules_import_only_the_standard_library(path):
    # Relative imports stay inside the package; every other import must ship
    # with the interpreter.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    assert {name.split(".")[0] for name in names} - sys.stdlib_module_names == set()
