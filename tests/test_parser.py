import pytest

from seb.configs import Data
from seb.manifest import load_manifest
from seb.parser import SebSyntaxError, Str, parse_activity, read_forms
from seb.syntax import (
    And,
    Flo,
    Inv,
    LinkRef,
    Nil,
    Pic,
    Rec,
    Rep,
    Seq,
    Ses,
    TRUE,
    to_source,
)

from oracles import random_activity


def test_invocation_with_links_and_join():
    act = parse_activity("(inv s0 notFound :tgt (l6 l8) :jcd (and l6 l8))")
    assert act == Inv(
        "s0",
        "notFound",
        (),
        tgt=frozenset({"l6", "l8"}),
        src=frozenset(),
        jcd=And(LinkRef("l6"), LinkRef("l8")),
    )


def test_nil():
    assert parse_activity("(nil)") == Nil()


def test_defaults_applied_throughout():
    act = parse_activity("(seq (ses s EZshop) (inv s getQuote (desc)))")
    assert act == Seq((Ses("s", "EZshop"), Inv("s", "getQuote", ("desc",))))
    for sub in (act, *act.children):
        assert sub.tgt == frozenset()
        assert sub.src == frozenset()
        assert sub.jcd == TRUE


def test_empty_argument_list_is_optional():
    assert parse_activity("(inv s op)") == parse_activity("(inv s op ())")


def test_pic_and_rep_shapes():
    act = parse_activity(
        "(pic (on (rec s0 ping (x)) (inv s0 pong (x))))"
    )
    assert isinstance(act, Pic)
    head, cont = act.branches[0]
    assert head == Rec("s0", "ping", ("x",))
    assert cont == Inv("s0", "pong", ("x",))

    rep = parse_activity(
        "(rep (do (pic (on (rec s a ()) (nil))))"
        " (until (pic (on (rec s b ()) (nil)))))"
    )
    assert isinstance(rep, Rep)
    assert isinstance(rep.do_pic, Pic)
    assert isinstance(rep.until_pic, Pic)


def test_flo_lnk_field():
    act = parse_activity("(flo :lnk (l m) (inv s a :src (l)) (rec s b :tgt (l) :jcd l))")
    assert isinstance(act, Flo)
    assert act.lnk == frozenset({"l", "m"})


def test_comments_are_ignored():
    act = parse_activity("; heading\n(inv s op (x)) ; trailing\n")
    assert act == Inv("s", "op", ("x",))


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("(inv s0 notFound", "unclosed"),
        ("(frob s op)", "unknown activity keyword"),
        ("(pic (on (inv s op) (nil)))", "must be a reception"),
        ("(inv s op :lnk (l))", ":lnk is only legal on flo"),
        ("(inv $x op)", "reserved"),
        ("(rep (do (nil)) (until (pic (on (rec s b ()) (nil)))))", "must be a pic"),
        ("(inv s op) (inv s op)", "trailing input"),
        ("", "empty input"),
        ("(seq)", "at least one child"),
    ],
)
def test_syntax_errors(source, fragment):
    with pytest.raises(SebSyntaxError) as err:
        parse_activity(source)
    assert fragment in str(err.value)


def test_errors_carry_position():
    with pytest.raises(SebSyntaxError) as err:
        parse_activity("(flo\n  (frob s op))")
    assert err.value.line == 2
    assert err.value.col == 4


@pytest.mark.parametrize(
    "source, col",
    [('(inv s "op)', 8), ('(msg "marco)', 6)],
    ids=["activity", "binding"],
)
def test_unterminated_string_is_an_error_at_its_quote(source, col):
    with pytest.raises(SebSyntaxError) as err:
        read_forms(source)
    assert (err.value.message, err.value.line, err.value.col) == ("unterminated string", 1, col)


def test_semicolon_inside_a_string_is_text():
    [form] = read_forms('(msg "a;b") ; a comment')
    assert form.items[1] == Str("a;b", 1, 6)


def test_manifest_data_value_may_contain_a_semicolon(tmp_path, corpus_dir):
    manifest = tmp_path / "m.cfg"
    manifest.write_text(
        f"(service ping :file {corpus_dir}/pingpong_service.seb :at pingloc)\n"
        f'(client :file {corpus_dir}/pingpong_client.seb :bind (p pingloc) (msg "a;b"))\n'
    )
    assert dict(load_manifest(manifest).client.var_map)["msg"] == Data("a;b")


def test_parse_print_roundtrip_on_generated_trees():
    for seed in range(150):
        act = random_activity(seed, depth=3)
        assert parse_activity(to_source(act)) == act


@pytest.mark.parametrize(
    "source, message",
    [
        ("(nil x)", "1:6: (nil) takes no arguments"),
        ("(ses s)", "1:1: ses needs a session variable and a location variable"),
        ("(inv s)", "1:1: inv needs a session variable and an operation name"),
        ("(rec s)", "1:1: rec needs a session variable and an operation name"),
        ("(ses (a) p)", "1:6: expected session variable"),
        ("(ses s 1p)", "1:8: '1p' is not a valid location variable"),
        ("(inv $x op)", "1:6: '$x': the '$' prefix is reserved for generated links"),
        ("(inv s op (x 1))", "1:14: '1' is not a valid variable"),
        ("(ses s p (nil))", "1:10: ses takes no body"),
        ("(inv s op (x) (nil))", "1:15: inv takes no body"),
        ("(rec s op (x) (nil))", "1:15: rec takes no body"),
        ("(inv s op :src)", "1:11: field ':src' needs a value"),
        ("(inv s op :bogus (a))", "1:11: unknown field ':bogus'"),
        ("(inv s op :src (a) :src (b))", "1:20: duplicate field ':src'"),
        ("(seq :jcd a :jcd b (nil))", "1:13: duplicate field ':jcd'"),
        ("(inv s op :lnk (l))", "1:11: :lnk is only legal on flo"),
        ("(inv s op :src a)", "1:16: expected a parenthesized list of link names"),
        ("(inv s op :jcd ())", "1:16: expected 'and', 'or' or 'not'"),
        ("(inv s op :jcd (and a))", "1:16: 'and' takes exactly two operands"),
        ("(inv s op :jcd (not a b))", "1:16: 'not' takes exactly one operand"),
        ("(inv s op :jcd (xor a b))", "1:17: unknown join operator 'xor'"),
        ('(inv s op :jcd "a")', "1:16: expected a join condition"),
        ("(seq)", "1:1: seq needs at least one child activity"),
        ("(flo :lnk (l))", "1:1: flo needs at least one child activity"),
        ("(pic)", "1:1: pic needs at least one (on ...) branch"),
        ("(pic (x))", "1:6: pic branches have the form (on <rec> <activity>)"),
        ("(pic (on (inv s op) (nil)))", "1:10: a pic branch head must be a reception"),
        ("(rep (do (nil)))", "1:1: rep has the form (rep (do <pic>) (until <pic>))"),
        ("(rep (until (nil)) (do (nil)))", "1:6: expected (do <pic>)"),
        ("(rep (do (nil)) (until (nil)))", "1:10: the do part of rep must be a pic"),
        (
            "(rep (do (pic (on (rec s a) (nil)))) (until (nil)))",
            "1:45: the until part of rep must be a pic",
        ),
        ("(frob s op)", "1:2: unknown activity keyword 'frob'"),
        ("x", "1:1: expected an activity"),
        ("()", "1:1: expected an activity keyword"),
        ("((nil))", "1:1: expected an activity keyword"),
    ],
)
def test_reader_error_message_and_position(source, message):
    with pytest.raises(SebSyntaxError) as err:
        parse_activity(source)
    assert str(err.value) == message
