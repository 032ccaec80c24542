"""README cites package names that exist."""

import importlib
import inspect
import io
import json
import pkgutil
import re

import polycenter
from conftest import DATA
from polycenter.cli import build_parser, run

MODULES = sorted(info.name for info in pkgutil.iter_modules(polycenter.__path__))

# a backticked span that opens with a module-qualified name, such as
# `model.SLACK_FLOOR = ...` or `polycenter.center.cs_step`, not a file name
CITED = re.compile(r"`(?:polycenter\.)?(%s)((?:\.(?!py\b)\w+)+)" % "|".join(MODULES))

# a name the library example reaches through the package, `pc.harmonic_center`
CALLED = re.compile(r"\bpc\.(\w+)")

# a backticked snake_case name on its own, such as `stop_tol` or `_f_at`
BARE = re.compile(r"`(_?[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)+)`")

# bare names that are notation, not names in the package
NOTATION = {"A_i", "d_i"}

# one run of each command on the unit square, for the keys of its JSON output
COMMANDS = [
    ["center", "--start", "0.25,0.5"],
    ["point", "--start", "0.25,0.5", "--axis", "1"],
    ["hyperplane", "--start", "0.25,0.5"],
    ["compare-bi", "--start", "0.25,0.5"],
    ["check", "--start", "0.5,0.5"],
]


def _resolves(module, attrs):
    obj = importlib.import_module(f"polycenter.{module}")
    for name in attrs.split(".")[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _package_names():
    """Every attribute of a polycenter module or of a class defined in
    one, and every parameter of a public function defined in one."""
    names = set()
    for module in MODULES:
        mod = importlib.import_module(f"polycenter.{module}")
        for name, obj in vars(mod).items():
            names.add(name)
            if not getattr(obj, "__module__", "").startswith("polycenter"):
                continue
            if inspect.isclass(obj):
                names.update(dir(obj))
            if inspect.isfunction(obj) and not name.startswith("_"):
                names.update(inspect.signature(obj).parameters)
    return names


def _json_keys():
    """The keys of each command's JSON output on the unit square."""
    keys = set()
    for argv in COMMANDS:
        out = io.StringIO()
        args = build_parser().parse_args(
            [argv[0], str(DATA / "square.poly"), *argv[1:], "--format", "json"]
        )
        run(args, out=out)
        keys.update(json.loads(out.getvalue()))
    return keys


def _readme():
    return (DATA.parent / "README.md").read_text(encoding="utf-8")


def test_readme_names_resolve():
    readme = _readme()
    cited = sorted(set(CITED.findall(readme)))
    assert ("lines", ".line_bracket") in cited
    stale = [module + attrs for module, attrs in cited if not _resolves(module, attrs)]
    assert stale == []


def test_library_example_names_resolve():
    called = sorted(set(CALLED.findall(_readme())))
    assert "harmonic_point_on_line" in called
    assert [name for name in called if not hasattr(polycenter, name)] == []


def test_bare_names_resolve():
    bare = set(BARE.findall(_readme()))
    assert {"stop_tol", "max_directional_sum", "exit_code", "_f_at"} <= bare
    known = _package_names() | _json_keys() | NOTATION
    assert sorted(bare - known) == []
