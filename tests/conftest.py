from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).parent))

# Activities whose raw closures take seconds to minutes to build
# (quotecomparer's has 53,494 states, and fixtures/qc3/comparer.seb is a
# copy of it; the qc5 client's has 526,890), as paths relative to ROOT.
# Suites that build every stage leave out their raw route and check
# their other stages from the fused route.
RAW_TOO_LARGE = frozenset({
    "corpus/quotecomparer.seb",
    "fixtures/qc3/comparer.seb",
    "fixtures/qc4/client.seb",
    "fixtures/qc5/client.seb",
})

# The do part is cancelled and its unfolding reset, silently and forever:
# a raw graph with a silent cycle, from which no later stage can be built.
SILENT_LOOP = "(rep (do (pic :jcd false (on (rec s b) (nil)))) (until (pic (on (rec s c) (nil)))))"

from seb.parser import parse_activity_file  # noqa: E402


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return ROOT / "corpus"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return ROOT / "fixtures"


@pytest.fixture(scope="session")
def quotecomparer(corpus_dir):
    return parse_activity_file(corpus_dir / "quotecomparer.seb")


def corpus_activities():
    return sorted((ROOT / "corpus").glob("*.seb"))
