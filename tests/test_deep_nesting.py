"""Deeply nested activities at the reader's nesting limit and one past it.

At ``MAX_NESTING`` parentheses every command must finish with a
documented exit code and no traceback; one level deeper the reader
rejects the input with a syntax error that names its line and column.
The commands at the limit run in a fresh ``python -m seb.cli`` process,
because the limit is measured against the stack a real run has.
"""

import pytest

from seb.cli import main
from seb.parser import MAX_NESTING, SebSyntaxError, parse_activity

from conftest import ROOT
from test_cli import run_cli

# kind -> (text opening one level, text closing it, parentheses per level)
LEVELS = {
    "seq": ("(seq ", ")", 1),
    "flo": ("(flo ", ")", 1),
    "pic": ("(pic (on (rec s a) ", "))", 2),
    "rep": ("(rep (do (pic (on (rec s a) ", "))) (until (pic (on (rec s b) (nil)))))", 4),
}
# innermost activities, by how deep their parentheses nest
INNER = {1: "(inv s a)", 2: "(inv s a (x))", 3: "(seq (inv s a (x)))", 4: "(seq (seq (inv s a (x))))"}


def nested(kind: str, depth: int) -> str:
    """An activity whose parentheses nest exactly ``depth`` deep."""
    opening, closing, step = LEVELS[kind]
    inner = (depth - 1) % step + 1
    levels = (depth - inner) // step
    return opening * levels + INNER[inner] + closing * levels


def max_depth(text: str) -> int:
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


def write_inputs(tmp_path, kind: str, depth: int):
    """An activity nested ``depth`` deep and a manifest whose client is as deep."""
    activity = tmp_path / "deep.seb"
    activity.write_text(nested(kind, depth))
    client = tmp_path / "client.seb"
    client.write_text(f"(seq (ses s p) (inv s ping (msg)) {nested(kind, depth - 1)})")
    manifest = tmp_path / "deep.cfg"
    manifest.write_text(
        f"(service ping :file {ROOT / 'corpus' / 'pingpong_service.seb'} :at loc)\n"
        f'(client :file {client} :bind (p loc) (msg "marco"))\n'
    )
    assert max_depth(activity.read_text()) == max_depth(client.read_text()) == depth
    return activity, client, manifest


@pytest.mark.parametrize("kind", LEVELS)
def test_every_command_finishes_at_the_limit(kind, tmp_path):
    activity, _, manifest = write_inputs(tmp_path, kind, MAX_NESTING)
    commands = [("validate", activity), ("compile", activity, "--check-properties")]
    if LEVELS[kind][2] == 1:
        # One parenthesis per level makes the deepest trees, so these two
        # kinds run every command; a nested pic or rep compiles for seconds.
        stages = ("raw", "prio", "compress", "rtc", "min")
        commands += [("compile", activity, "--stage", stage) for stage in stages]
        commands.append(("check", manifest))
    for command in commands:
        proc = run_cli(*map(str, command))
        assert proc.returncode in (0, 1, 4), (command, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr, command


@pytest.mark.parametrize("kind", LEVELS)
def test_one_level_past_the_limit_is_a_syntax_error(kind, tmp_path, capsys):
    activity, client, manifest = write_inputs(tmp_path, kind, MAX_NESTING + 1)
    for command, culprit in (("validate", activity), ("compile", activity), ("check", manifest)):
        path = client if command == "check" else activity
        text = path.read_text()
        with pytest.raises(SebSyntaxError) as exc:
            parse_activity(text)
        assert exc.value.message == f"nesting deeper than {MAX_NESTING} levels"
        assert text.splitlines()[exc.value.line - 1][exc.value.col - 1 :].startswith("(")
        assert main([command, str(culprit)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {exc.value}\n"
