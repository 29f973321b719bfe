"""Golden digests of ``validate --report-vars`` output.

The digests were recorded before validation was changed to read the
precedence pairs and containment crossings off its link tables and to
search cycles iteratively.  Each digest covers, in order, the exit code
and the SHA-256 of stdout and of stderr (with the input's path replaced,
so temporary paths do not count) of every input it names.

Inputs: each corpus and fixture activity on its own, and 400 generated
activities in batches of 50.  A generated activity is
``random_activity(seed, depth=3)`` with up to three extra links added
between random nodes (see ``mutated_activity``); some names are reused
and some links are declared in the nearest enclosing flo, so cycles,
containment crossings, duplicate and unscoped links all occur, next to
activities that stay well formed and get a variable report.  The exit
code of every generated activity is also kept in the clear, one digit
per seed.
"""

import dataclasses
import hashlib
import random

import pytest

from seb.cli import main
from seb.diagnostics import CONTAINMENT_CROSS, CYCLE, DUP_LINK, UNSCOPED_LINK
from seb.syntax import Flo, Nil, Pic, Rep, Seq, all_links, subacts, to_source
from seb.wellformed import validate_well_formed

from conftest import ROOT
from oracles import random_activity

BATCH = 50
GENERATED_SEEDS = range(400)


def _replace_at(node, path, change):
    """``node`` with ``change`` applied to its subactivity at ``path``."""
    if not path:
        return change(node)
    i, rest = path[0], path[1:]
    if isinstance(node, (Seq, Flo)):
        children = list(node.children)
        children[i] = _replace_at(children[i], rest, change)
        return dataclasses.replace(node, children=tuple(children))
    if isinstance(node, Pic):
        branches = [list(b) for b in node.branches]
        branches[i // 2][i % 2] = _replace_at(branches[i // 2][i % 2], rest, change)
        return dataclasses.replace(node, branches=tuple(tuple(b) for b in branches))
    if isinstance(node, Rep):
        name = ("do_pic", "until_pic")[i]
        return dataclasses.replace(node, **{name: _replace_at(getattr(node, name), rest, change)})
    raise TypeError(node)


def mutated_activity(seed: int):
    """A generated activity with up to three extra links between random nodes."""
    rng = random.Random(seed)
    act = random_activity(seed, depth=3)
    for k in range(rng.randrange(0, 4)):
        paths = [p for p, sub in subacts(act).items() if not isinstance(sub, Nil)]
        a, b = rng.choice(paths), rng.choice(paths)
        existing = sorted(all_links(act))
        name = rng.choice(existing) if existing and rng.random() < 0.25 else f"m{k}"
        act = _replace_at(act, a, lambda n: dataclasses.replace(n, src=n.src | {name}))
        act = _replace_at(act, b, lambda n: dataclasses.replace(n, tgt=n.tgt | {name}))
        if rng.random() < 0.6:
            common = 0
            while common < min(len(a), len(b)) and a[common] == b[common]:
                common += 1
            scope = a[:common]
            subs = subacts(act)
            while scope and not isinstance(subs[scope], Flo):
                scope = scope[:-1]
            if isinstance(subs[scope], Flo):
                act = _replace_at(act, scope, lambda n: dataclasses.replace(n, lnk=n.lnk | {name}))
    return act


def input_text(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def validate_digest(texts, tmp_path, capsys) -> tuple[str, str]:
    """Validate each text in turn; return the combined digest and the exit codes."""
    path = tmp_path / "input.seb"
    digest = hashlib.sha256()
    codes = ""
    for text in texts:
        path.write_text(text, encoding="utf-8")
        code = main(["validate", str(path), "--report-vars"])
        captured = capsys.readouterr()
        out = captured.out.replace(str(path), "<input>")
        err = captured.err.replace(str(path), "<input>")
        out = hashlib.sha256(out.encode("utf-8")).hexdigest()
        err = hashlib.sha256(err.encode("utf-8")).hexdigest()
        digest.update(f"{code} | {out} | {err}\n".encode("utf-8"))
        codes += str(code)
    return digest.hexdigest(), codes


def batch_texts(start: int) -> list[str]:
    return [to_source(mutated_activity(seed)) + "\n" for seed in range(start, start + BATCH)]


def input_names() -> list[str]:
    files = sorted((ROOT / "corpus").glob("*.seb")) + sorted((ROOT / "fixtures").glob("*.seb"))
    return [str(p.relative_to(ROOT)) for p in files]


# input name -> (digest, exit code)
GOLDEN_FILES = {
    "corpus/looping_client.seb": ("610e93b3378c205f750ff3513057f9f72ec23a7d373fb6fa273b978ed24879da", "0"),
    "corpus/looping_service.seb": ("5fdf1263485e82a5edcd56adc4b0742ee6f8383659f5c1d789dea1cd5552d8a2", "0"),
    "corpus/pingpong_client.seb": ("2808ce07fb023241529ef798e720a69846107e0239554e3c44c4aded8bde70d9", "0"),
    "corpus/pingpong_service.seb": ("f41c8a9df2eb0b2fbd2864b61d9ba395c7b9e6050af5283ab903e95d7b79a66c", "0"),
    "corpus/quotecomparer.seb": ("8fdd69d5f1f8266cfe440cda19a9714726124426a94f82ddfdbfee6bde7e4cad", "0"),
    "fixtures/atomic_inv.seb": ("0c3ec7870146b32ac3fcbc1eb33988c89e248a67541f9eb06163615ce430c621", "0"),
    "fixtures/containment_cross.seb": ("26bb656c42d1766505a2b52e454ab9271d5a60402f3b040e4dd2d6ad0b7dabb0", "1"),
    "fixtures/cycle.seb": ("634189a869ea677fccffe255e03273b73e88f6702e88c9e962a2b2521ca3939f", "1"),
    "fixtures/dup_link.seb": ("5c4383f2340efcdf6cbf1c90108cddd31d78885707931003d64ba4be5ef7733c", "1"),
    "fixtures/linked_pick.seb": ("420ab6ab404bc5892ac3278c4c9db749cbc276376bdc8b68d41c8e60144dfb4b", "0"),
    "fixtures/mismatch_client.seb": ("2808ce07fb023241529ef798e720a69846107e0239554e3c44c4aded8bde70d9", "0"),
    "fixtures/rep_escape.seb": ("8fbff75f806b197b9a63a3b25e7ee046dc38283766e64619db671f9dbc984dce", "1"),
    "fixtures/rep_incoming.seb": ("15a52426fee477534bd9b34933c9e3cb63af70174078f0a825b7db4b6274717e", "1"),
    "fixtures/rep_outgoing.seb": ("db895e14984c32c4bc611c563f4fbfbd72bb827bf3672ad2cdbb18d2e703f36f", "1"),
    "fixtures/unscoped_link.seb": ("e8af1588a8a1900d0a80dc4a812b7ec9aea6ec3910249b331049bb1168d02b87", "1"),
}

# first seed of a batch -> (digest, exit code of each seed)
GOLDEN_BATCHES = {
    0: ("4c36e66290d179b708686898a0ee2f5e2934116ea2c47d6caa09fc9b3539a006", "11011101110111011110111111010010011110111100110110"),
    50: ("581fcbdd855486c58f864e11486fcd1200e4e646614001d27ec0fd56704ca7d2", "11111000111111110010010101111111111101101011111111"),
    100: ("3473b80e9b705e89814d880e8f6f886d196b2444a6c6abde5030c1424dbaa27d", "11110111111110111111101011001111111110100011111110"),
    150: ("abc4a3cd8779df6f2c233ef5e66260292cdaf0e4ffecddf77f172f584b147922", "11111111110101001101111101010110101011110111010001"),
    200: ("d803f3c78f65bf6980dbf3263cdf20ab5a19b3973a2e02c80087330b8c36e5ae", "00101101101111101111110101111110111111100011110111"),
    250: ("e3ce307443b43665bf9c99adbae2b1aec616f7a73d5802e77d4ede86798155ec", "11011011001111110110111110101110000110111111110111"),
    300: ("fb6f6356f48e883fccff66ba791ed8accb033ba7f8afa3b50966474e6172f88e", "11101110100110110101111011001101111101011101111111"),
    350: ("fea7742347a7c17ea1d3c94461153ba061407a94d096c237e1b0bdd8f55d9f43", "11101101101111010011010011110011011011110111110010"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_validate_output_matches_golden(name, tmp_path, capsys):
    assert validate_digest([input_text(name)], tmp_path, capsys) == GOLDEN_FILES[name]


@pytest.mark.parametrize("start", sorted(GOLDEN_BATCHES))
def test_validate_generated_output_matches_golden(start, tmp_path, capsys):
    assert validate_digest(batch_texts(start), tmp_path, capsys) == GOLDEN_BATCHES[start]


def test_golden_covers_every_input():
    assert sorted(GOLDEN_FILES) == input_names()
    assert sorted(GOLDEN_BATCHES) == list(range(GENERATED_SEEDS.start, GENERATED_SEEDS.stop, BATCH))


def test_generated_inputs_hit_every_link_diagnostic():
    seen = set()
    for seed in GENERATED_SEEDS:
        seen |= {d.code for d in validate_well_formed(mutated_activity(seed))}
    assert {CYCLE, CONTAINMENT_CROSS, DUP_LINK, UNSCOPED_LINK} <= seen
