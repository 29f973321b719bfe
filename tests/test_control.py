import pytest
from hypothesis import given, strategies as st

from seb.control import LinkMap, eval_join
from seb.syntax import And, LinkRef, Lit, Not, Or, TRUE

# --------------------------------------------------------------------------
# Join evaluation


def test_boolean_evaluation_when_defined():
    c = LinkMap.of({"l1": True, "l2": False, "l3": False})
    expr = Or(And(LinkRef("l1"), LinkRef("l2")), LinkRef("l3"))
    assert eval_join(c, expr, {"l1", "l2", "l3"}) is False


def test_any_undefined_target_blocks_even_unmentioned():
    c = LinkMap.of({"l1": None})
    assert eval_join(c, TRUE, {"l1"}) is None


def test_vacuous_evaluation_is_true():
    assert eval_join(LinkMap.of({}), TRUE, set()) is True


def test_leaf_outside_targets_is_a_contract_violation():
    c = LinkMap.of({"l1": True, "l2": True})
    with pytest.raises(ValueError):
        eval_join(c, LinkRef("l2"), {"l1"})


def test_not_operator():
    c = LinkMap.of({"l": False})
    assert eval_join(c, Not(LinkRef("l")), {"l"}) is True


# --------------------------------------------------------------------------
# Substitution


def test_set_single_link():
    c = LinkMap.of({"l": None})
    assert c.set_links(True, {"l"}) == LinkMap.of({"l": True})


def test_empty_substitution_is_identity():
    c = LinkMap.of({"l": True})
    assert c.set_links(False, set()) is c


def test_set_many():
    c = LinkMap.of({"l": True, "m": None})
    assert c.set_links(False, {"l", "m"}) == LinkMap.of({"l": False, "m": False})


def test_outside_domain_rejected():
    with pytest.raises(ValueError):
        LinkMap.of({"l": None}).set_links(True, {"zz"})


# --------------------------------------------------------------------------
# Algebraic properties

links = st.lists(
    st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True
)
values = st.sampled_from([True, False, None])


@st.composite
def link_maps(draw):
    names = draw(links)
    return LinkMap.of({n: draw(values) for n in names})


@st.composite
def join_exprs(draw, names):
    depth = draw(st.integers(0, 3))

    def build(d):
        if d == 0:
            return draw(
                st.one_of(
                    st.sampled_from([Lit(True), Lit(False)]),
                    st.sampled_from([LinkRef(n) for n in names]),
                )
            )
        op = draw(st.sampled_from(["and", "or", "not"]))
        if op == "not":
            return Not(build(d - 1))
        left, right = build(d - 1), build(d - 1)
        return And(left, right) if op == "and" else Or(left, right)

    return build(depth)


@given(st.data())
def test_set_links_is_idempotent(data):
    c = data.draw(link_maps())
    names = data.draw(st.sets(st.sampled_from(sorted(c.domain())), max_size=3))
    value = data.draw(values)
    once = c.set_links(value, names)
    assert once.set_links(value, names) == once


@given(st.data())
def test_eval_join_stable_under_changes_outside_targets(data):
    c = data.draw(link_maps())
    domain = sorted(c.domain())
    targets = data.draw(st.sets(st.sampled_from(domain), max_size=len(domain)))
    expr = data.draw(join_exprs(sorted(targets) or ["a"])) if targets else TRUE
    if targets:
        verdict = eval_join(c, expr, targets)
    else:
        verdict = eval_join(c, TRUE, targets)
        expr = TRUE
    if verdict is None:
        return
    # any map agreeing on the targets gives the same verdict
    changed = dict(c.as_dict())
    for n in changed:
        if n not in targets:
            changed[n] = data.draw(values)
    assert eval_join(LinkMap.of(changed), expr, targets) == verdict


# --------------------------------------------------------------------------
# Initial map


def test_initial_map_of_nil_is_empty():
    from seb.control import initial_link_map
    from seb.syntax import Nil

    assert initial_link_map(Nil()) == LinkMap.of({})


def test_initial_map_covers_declared_links():
    from seb.control import initial_link_map
    from seb.parser import parse_activity

    act = parse_activity(
        "(flo :lnk (l) (inv s a :src (l)) (rec s b :tgt (l) :jcd l))"
    )
    assert initial_link_map(act) == LinkMap.of({"l": None})


def test_initial_map_includes_generated_sequencing_links(quotecomparer):
    from seb.control import initial_link_map
    from seb.wellformed import desugar_seq

    domain = initial_link_map(desugar_seq(quotecomparer)).domain()
    assert {f"l{i}" for i in range(1, 9)} <= domain
    assert any(name.startswith("$seq") for name in domain)
