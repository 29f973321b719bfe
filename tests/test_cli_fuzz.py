"""Any input ends in a documented exit code, never in a traceback.

``seb.cli.main`` runs in-process on three families of input: corpus and
fixture text with a few random edits, random s-expressions, and
generated manifests (``oracles.ManifestGenerator``) with one file
edited.  Every command must return one of the documented exit codes 0-4
(never 5, the internal error) and print no traceback.

The random s-expressions nest fewer than 50 levels: pytest and
hypothesis run ``main`` on a deeper stack than ``python -m seb`` has, so
the reader's nesting limit is exercised by ``test_deep_nesting.py`` in a
fresh process instead.
"""

from __future__ import annotations

import io
import random
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from seb.cli import main
from seb.transforms import STAGES

from conftest import ROOT
from oracles import ManifestGenerator

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}
FUZZ = settings(derandomize=True, deadline=None, database=None)

ACTIVITY_SOURCES = sorted((ROOT / "corpus").glob("*.seb")) + sorted(
    (ROOT / "fixtures").rglob("*.seb")
)
MANIFEST_SOURCES = sorted((ROOT / "corpus").glob("*.cfg")) + sorted(
    (ROOT / "fixtures").rglob("*.cfg")
)
WORDS = (
    "(", ")", "()", "seq", "flo", "pic", "on", "rep", "do", "until", "ses", "inv",
    "rec", "nil", "unf", "s", "s0", "p", "p0", "x", "y", "op", "l1", ":src", ":tgt",
    ":jcd", ":lnk", "and", "or", "not", "true", "false", "service", "client",
    ":file", ":at", ":bind", '"v"', ";", '"', "client.seb",
)


def manifest_files(cfg: Path) -> dict[str, str]:
    """The manifest's text and the activity files it names, by relative name."""
    text = cfg.read_text(encoding="utf-8")
    files = {cfg.name: text}
    for quoted, bare in re.findall(r':file\s+(?:"([^"]*)"|(\S+))', text):
        name = quoted or bare
        files[name] = (cfg.parent / name).read_text(encoding="utf-8")
    return files


MANIFESTS = [manifest_files(cfg) for cfg in MANIFEST_SOURCES]
PINGPONG = manifest_files(ROOT / "corpus" / "pingpong.cfg")


def pingpong_client(text: str) -> dict[str, str]:
    """The ping service with a client that pings it, then runs ``text``."""
    return {
        **PINGPONG,
        "pingpong.cfg": "(service ping :file pingpong_service.seb :at loc)\n"
        '(client :file client.seb :bind (p loc) (x "v"))\n',
        "client.seb": f"(seq (ses s p) (inv s ping (x)) {text})",
    }


@st.composite
def edited(draw, text: str) -> str:
    """``text`` after one to three random deletions, insertions or copies."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 40)))
        kind = draw(st.sampled_from(("delete", "insert", "copy", "replace")))
        if kind == "delete":
            text = text[:i] + text[j:]
        elif kind == "insert":
            text = f"{text[:i]} {draw(st.sampled_from(WORDS))} {text[i:]}"
        elif kind == "copy":
            k = draw(st.integers(0, len(text)))
            text = text[:k] + text[i:j] + text[k:]
        else:
            text = text[:i] + draw(st.characters(max_codepoint=0x7F)) + text[j:]
    return text


ATOMS = (
    "(nil)", "(inv s a)", "(inv s a (x))", "(rec s a (x))", "(rec s b)", "(ses s p)",
    "(rec s0 a (x))", "(inv s0 b (x p0))", "(ses t p)", "(rec t a (p0))",
)
FIELDS = ("", ":src (l1)", ":tgt (l1)", ":tgt (l1) :jcd (not l1)", ":lnk (l1)")


def grammar(children: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """One level of the activity grammar around ``children``."""
    branch = st.tuples(st.sampled_from(ATOMS[3:5]), children).map(lambda t: "(on %s %s)" % t)
    pic = st.lists(branch, min_size=1, max_size=3).map(lambda bs: f"(pic {' '.join(bs)})")
    return st.one_of(
        st.tuples(
            st.sampled_from(("seq", "flo")),
            st.sampled_from(FIELDS),
            st.lists(children, min_size=1, max_size=3),
        ).map(lambda t: f"({t[0]} {t[1]} {' '.join(t[2])})"),
        pic,
        st.tuples(pic, pic).map(lambda t: "(rep (do %s) (until %s))" % t),
    )


def soup(children: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """The grammar's levels, or a list of anything."""
    anything = st.lists(children | st.sampled_from(WORDS), max_size=4)
    return grammar(children) | anything.map(lambda xs: f"({' '.join(xs)})")


def depth(text: str) -> int:
    level = deepest = 0
    for ch in text:
        level += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, level)
    return deepest


@st.composite
def nested_sexprs(draw) -> str:
    """Up to 10 atoms in the grammar or in a soup, wrapped in up to 40 more levels."""
    atoms = st.sampled_from(ATOMS)
    inner = draw(
        st.recursive(atoms, grammar, max_leaves=10)
        | st.recursive(atoms | st.sampled_from(WORDS), soup, max_leaves=10)
    )
    wrapper = draw(st.sampled_from(("seq", "flo", "pic (on (rec s a)")))
    levels = draw(st.integers(0, 40))
    closing = ")" * wrapper.count("(")
    text = f"({wrapper} " * levels + inner + f"){closing}" * levels
    assume(depth(text) < 50)
    return text


def run(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def run_on_activity(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.seb"
        path.write_text(text, encoding="utf-8")
        run("validate", "--report-vars", str(path))
        for stage in STAGES:
            run("compile", str(path), "--stage", stage, "--max-states", "2000")
        run("compile", str(path), "--check-properties", "--max-states", "2000")


def run_on_manifest(files: dict[str, str]) -> None:
    # The manifest sits one level down for every ".." its names hold, so
    # every file it names lands inside the temporary directory.
    climb = max(Path(name).parts.count("..") for name in files)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        base = root.joinpath(*["m"] * climb)
        for name, text in files.items():
            target = (base / name).resolve()
            assert target.is_relative_to(root), name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        cfg = next(name for name in files if name.endswith(".cfg"))
        run("check", str(base / cfg), "--max-configs", "200")
        run("simulate", str(base / cfg), "--steps", "20")


@FUZZ
@given(st.data())
def test_edited_corpus_and_fixture_text(data):
    if data.draw(st.booleans()):
        source = data.draw(st.sampled_from(ACTIVITY_SOURCES), label="activity")
        run_on_activity(data.draw(edited(source.read_text(encoding="utf-8"))))
    else:
        files = dict(data.draw(st.sampled_from(MANIFESTS), label="manifest"))
        name = data.draw(st.sampled_from(sorted(files)), label="edited file")
        files[name] = data.draw(edited(files[name]))
        run_on_manifest(files)


@FUZZ
@given(nested_sexprs())
def test_random_sexprs(text):
    run_on_activity(text)
    run_on_manifest({"input.cfg": text})
    run_on_manifest(pingpong_client(text))


@FUZZ
@given(st.integers(0, 10_000), st.data())
def test_edited_generated_manifests(seed, data):
    files = ManifestGenerator(random.Random(seed)).manifest()
    name = data.draw(st.sampled_from(sorted(files)), label="edited file")
    files[name] = data.draw(edited(files[name]))
    run_on_manifest(files)
