"""README cites package names that exist."""

import importlib
import pkgutil
import re

import polycenter
from conftest import DATA

MODULES = sorted(info.name for info in pkgutil.iter_modules(polycenter.__path__))

# a backticked span that opens with a module-qualified name, such as
# `model.SLACK_FLOOR = ...` or `polycenter.center.cs_step`, not a file name
CITED = re.compile(r"`(?:polycenter\.)?(%s)((?:\.(?!py\b)\w+)+)" % "|".join(MODULES))

# a name the library example reaches through the package, `pc.harmonic_center`
CALLED = re.compile(r"\bpc\.(\w+)")


def _resolves(module, attrs):
    obj = importlib.import_module(f"polycenter.{module}")
    for name in attrs.split(".")[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


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
