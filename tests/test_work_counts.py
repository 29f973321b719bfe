"""Each command builds each stage of an activity once.

Counts the state-space closures (``compiler._closure``, behind both the
raw and the fused prioritized construction) and the confluence checks a
command makes.
"""

import sys
from collections import Counter

import pytest

import seb.compiler
from seb.cli import main
from seb.syntax import to_source

from conftest import ROOT
from oracles import random_activity


@pytest.fixture
def calls(monkeypatch):
    tally: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(seb.compiler, "_closure", counted("closure", seb.compiler._closure))
    original = seb.compiler.find_confluence_violation
    wrapper = counted("confluence", original)
    # ``from .compiler import ...`` copies the name into other modules.
    for name, module in list(sys.modules.items()):
        if name.startswith("seb") and getattr(module, "find_confluence_violation", None) is original:
            monkeypatch.setattr(module, "find_confluence_violation", wrapper)
    return tally


@pytest.mark.parametrize(
    "flags, closures, confluence",
    [((), 1, 0), (("--check-properties",), 1, 1)],
    ids=["plain", "check-properties"],
)
def test_compile_runs_one_closure(flags, closures, confluence, calls, tmp_path):
    path = tmp_path / "gen.seb"
    path.write_text(to_source(random_activity(5, depth=4)), encoding="utf-8")
    for stage in ("prio", "min"):
        calls.clear()
        assert main(["compile", str(path), "--stage", stage, *flags]) == 0
        assert calls == Counter(closure=closures, confluence=confluence), stage


@pytest.mark.parametrize(
    "manifest, activities",
    [("fixtures/flooding.cfg", 2), ("bench/inputs/qc-deployed/deployed.cfg", 4)],
)
def test_check_runs_one_closure_per_activity(manifest, activities, calls):
    assert main(["check", str(ROOT / manifest), "--max-configs", "10"]) == 4
    assert calls == Counter(closure=activities)
