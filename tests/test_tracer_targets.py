"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` wraps module attributes such as
``polycenter.cli.harmonic_point_on_line``; a traced run fails at install
when one of them is renamed or deleted, so this checks every target.
"""

import importlib.util

from conftest import DATA


def _targets():
    path = DATA.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_exists():
    targets = _targets()
    assert targets
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in targets
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []
