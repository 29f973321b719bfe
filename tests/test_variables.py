import pytest

from seb import compiler
from seb.configs import Data, ServiceLoc, make_client, make_service
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
from seb.transforms import build_stages, minimize, tau_compress, tau_prioritize
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
    act = parse_activity("(nil)")
    report = classify_occurrences(act)
    assert report.all_vars == report.binding == report.usage == frozenset()
    assert free_vars(act) == frozenset()


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
        assert free_vars(act) <= classify_occurrences(act).usage, n


# --------------------------------------------------------------------------
# Open for reception


def test_open_for_reception_matches_session_variable():
    act = parse_activity("(rec s quote (q))")
    g = build_stages(act)["min"]
    assert open_for_reception(g, g.init, "s")
    assert not open_for_reception(g, g.init, "r")


def test_sink_states_are_never_open():
    act = parse_activity("(rec s quote (q))")
    g = build_stages(act)["min"]
    [sink] = g.sinks()
    assert not open_for_reception(g, sink, "s")


def test_open_for_reception_rejects_foreign_state():
    act = parse_activity("(rec s quote (q))")
    g = build_stages(act)["min"]
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
    assert check_deployable(quotecomparer_map(quotecomparer), quotecomparer, free_vars(quotecomparer)) == []


def test_quotecomparer_free_vars(quotecomparer):
    assert free_vars(quotecomparer) == {"s0", "EZshop", "QuickBuy"}


def test_branch_on_foreign_session_rejected():
    act = parse_activity("(pic (on (rec s op (x)) (nil)))")
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc("loc")
    codes = [d.code for d in check_deployable(var_map, act, free_vars(act))]
    assert ROOT_SESSION in codes


def test_missing_free_value_rejected(quotecomparer):
    var_map = quotecomparer_map(quotecomparer)
    var_map["EZshop"] = None
    codes = [d.code for d in check_deployable(var_map, quotecomparer, free_vars(quotecomparer))]
    assert codes == [UNDEFINED_FREE]


def test_non_pic_rejected():
    act = parse_activity("(inv s0 op)")
    assert [d.code for d in check_deployable({}, act, free_vars(act))] == [NOT_PIC]


def test_nonfree_must_stay_undefined():
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": None, "x": Data("oops"), "p0": ServiceLoc("loc")}
    codes = [d.code for d in check_deployable(var_map, act, free_vars(act))]
    assert codes == [NONFREE_DEFINED]


@pytest.mark.parametrize("value", [Data("x"), ServiceLoc("nowhere")], ids=["data", "location"])
def test_root_session_must_stay_undefined(value):
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": value, "x": None, "p0": ServiceLoc("loc")}
    assert [str(d) for d in check_deployable(var_map, act, free_vars(act))] == [
        "ROOT_SESSION at /: 's0' is bound when an instance starts and must stay undefined"
    ]


def test_domain_must_match_occurring_variables():
    act = parse_activity("(pic (on (rec s0 op (x)) (nil)))")
    var_map = {"s0": None, "p0": ServiceLoc("loc"), "ghost": None, "x": None}
    codes = [d.code for d in check_deployable(var_map, act, free_vars(act))]
    assert DOMAIN_MISMATCH in codes


def test_free_session_beyond_root_rejected():
    act = parse_activity("(pic (on (rec s0 op (x)) (inv r push (x))))")
    report = classify_occurrences(act)
    var_map = {v: None for v in report.all_vars | {"p0"}}
    var_map["p0"] = ServiceLoc("loc")
    codes = [d.code for d in check_deployable(var_map, act, free_vars(act))]
    assert FREE_SESSION in codes


@pytest.mark.parametrize(
    "source, diagnostic",
    [
        (
            "(pic (on (rec s0 ping (x)) (seq (inv s0 pong (x)) (ses s0 p0))))",
            "S0_INITIATED at /1/1: 's0' is implicitly bound at service "
            "instantiation and cannot be initiated",
        ),
        (
            "(pic (on (rec s0 ping (p0)) (inv s0 pong (p0))))",
            "P0_REBOUND at /0: 'p0' holds the own location and cannot be "
            "rebound by a reception",
        ),
    ],
    ids=["initiates-root-session", "rebinds-own-location"],
)
def test_forbidden_occurrence_is_not_deployable(source, diagnostic):
    act = parse_activity(source)
    var_map = {v: None for v in classify_occurrences(act).all_vars}
    var_map["p0"] = ServiceLoc("loc")
    assert [str(d) for d in check_deployable(var_map, act, free_vars(act))] == [diagnostic]


def test_occurrence_reports_and_deployability_compile_nothing(quotecomparer, monkeypatch):
    service_free = free_vars(quotecomparer)
    service_graph = build_stages(quotecomparer)["min"]
    client = parse_activity("(seq (ses s p) (inv s request (item)))")
    client_free = free_vars(client)
    client_graph = build_stages(client)["min"]

    def no_closure(*args):
        raise AssertionError("a control graph was compiled")

    monkeypatch.setattr(compiler, "_closure", no_closure)
    report = classify_occurrences(quotecomparer)
    assert {"s0", "EZshop", "QuickBuy"} <= report.usage
    var_map = quotecomparer_map(quotecomparer)
    assert check_deployable(var_map, quotecomparer, service_free) == []
    service = make_service("qc", var_map, quotecomparer, service_graph, service_free)
    client_map = {"s": None, "p": ServiceLoc("qc"), "item": Data("book")}
    instance = make_client(client_map, client_graph, [service], client_free)
    assert instance.graph is client_graph
