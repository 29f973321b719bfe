import pytest

from seb.configs import Data, ServiceLoc
from seb.diagnostics import (
    DOMAIN_MISMATCH,
    FREE_SESSION,
    NONFREE_DEFINED,
    NOT_PIC,
    P0_REBOUND,
    ROOT_SESSION,
    S0_INITIATED,
    UNDEFINED_FREE,
)
from seb.parser import parse_activity
from seb.transforms import compile_stages, minimize, tau_compress, tau_prioritize
from seb.variables import (
    check_deployable,
    classify_occurrences,
    free_vars,
    free_vars_of_graph,
    open_for_reception,
)

from oracles import small_random_activities

# --------------------------------------------------------------------------
# Occurrence classification


def test_binding_and_usage_of_session_then_send():
    act = parse_activity("(seq (ses s p) (inv s op (x)))")
    report = classify_occurrences(act)
    assert report.binding == {"s"}
    assert report.usage == {"p", "s", "x"}
    assert report.all_vars == {"s", "p", "x"}


def test_nil_has_no_variables():
    report = classify_occurrences(parse_activity("(nil)"))
    assert report.all_vars == report.binding == report.usage == frozenset()
    assert report.free == frozenset()


def test_rebinding_own_location_is_forbidden():
    report = classify_occurrences(parse_activity("(rec s0 op (p0))"))
    assert [d.code for d in report.forbidden] == [P0_REBOUND]


def test_initiating_the_root_session_is_forbidden():
    report = classify_occurrences(parse_activity("(ses s0 p)"))
    assert [d.code for d in report.forbidden] == [S0_INITIATED]


def test_reception_params_are_bindings():
    report = classify_occurrences(parse_activity("(rec s op (y z))"))
    assert report.binding == {"y", "z"}
    assert report.usage == {"s"}


# --------------------------------------------------------------------------
# Freeness


def test_session_bound_before_use_is_not_free():
    act = parse_activity("(seq (ses s p) (inv s op (x)))")
    assert free_vars(act) == {"p", "x"}


def test_reception_session_is_free_but_param_is_not():
    act = parse_activity("(rec s op (y))")
    assert free_vars(act) == {"s"}


def test_nil_free_vars_empty():
    assert free_vars(parse_activity("(nil)")) == frozenset()


def test_free_use_on_some_interleaving_counts():
    # x is sent in parallel with the reception that would bind it
    act = parse_activity("(flo (inv s op (x)) (rec r op2 (x)))")
    assert "x" in free_vars(act)


def test_freeness_stable_across_equivalence_preserving_stages():
    for n, (act, raw) in enumerate(small_random_activities(30)):
        prio = tau_prioritize(raw)
        comp = tau_compress(prio)
        assert (
            free_vars_of_graph(raw)
            == free_vars_of_graph(prio)
            == free_vars_of_graph(comp)
            == free_vars_of_graph(minimize(comp))
        ), n


def test_free_vars_subset_of_usage():
    for n, (act, _) in enumerate(small_random_activities(40)):
        report = classify_occurrences(act)
        assert report.free <= report.usage, n


# --------------------------------------------------------------------------
# Open for reception


def test_open_for_reception_matches_session_variable():
    act = parse_activity("(rec s quote (q))")
    g = compile_stages(act, "min")
    assert open_for_reception(g, g.init, "s")
    assert not open_for_reception(g, g.init, "r")


def test_sink_states_are_never_open():
    act = parse_activity("(rec s quote (q))")
    g = compile_stages(act, "min")
    [sink] = g.sinks()
    assert not open_for_reception(g, sink, "s")


def test_open_for_reception_rejects_foreign_state():
    act = parse_activity("(rec s quote (q))")
    g = compile_stages(act, "min")
    with pytest.raises(ValueError):
        open_for_reception(g, 99, "s")


# --------------------------------------------------------------------------
# Deployability


def quotecomparer_map(act):
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc("qc")
    var_map["EZshop"] = ServiceLoc("ez")
    var_map["QuickBuy"] = ServiceLoc("qb")
    return var_map


def test_quotecomparer_is_deployable(quotecomparer):
    assert check_deployable(quotecomparer_map(quotecomparer), quotecomparer) == []


def test_quotecomparer_free_vars(quotecomparer):
    assert free_vars(quotecomparer) == {"s0", "EZshop", "QuickBuy"}


def test_branch_on_foreign_session_rejected():
    act = parse_activity("(pic (on (rec s op (x)) (nil)))")
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc("loc")
    codes = [d.code for d in check_deployable(var_map, act)]
    assert ROOT_SESSION in codes


def test_missing_free_value_rejected(quotecomparer):
    var_map = quotecomparer_map(quotecomparer)
    var_map["EZshop"] = None
    codes = [d.code for d in check_deployable(var_map, quotecomparer)]
    assert codes == [UNDEFINED_FREE]


def test_non_pic_rejected():
    act = parse_activity("(inv s0 op)")
    assert [d.code for d in check_deployable({}, act)] == [NOT_PIC]


def test_nonfree_must_stay_undefined():
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": None, "x": Data("oops"), "p0": ServiceLoc("loc")}
    codes = [d.code for d in check_deployable(var_map, act)]
    assert codes == [NONFREE_DEFINED]


@pytest.mark.parametrize("value", [Data("x"), ServiceLoc("nowhere")], ids=["data", "location"])
def test_root_session_must_stay_undefined(value):
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": value, "x": None, "p0": ServiceLoc("loc")}
    assert [str(d) for d in check_deployable(var_map, act)] == [
        "ROOT_SESSION at /: 's0' is bound when an instance starts and must stay undefined"
    ]


def test_domain_must_match_occurring_variables():
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": None, "p0": ServiceLoc("loc"), "ghost": None, "x": None}
    codes = [d.code for d in check_deployable(var_map, act)]
    assert DOMAIN_MISMATCH in codes


def test_free_session_beyond_root_rejected():
    act = parse_activity("(pic (on (rec s0 op (x)) (inv r push (x))))")
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc("loc")
    codes = [d.code for d in check_deployable(var_map, act)]
    assert FREE_SESSION in codes
