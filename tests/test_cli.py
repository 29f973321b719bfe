import os
import subprocess
import sys

import pytest

from seb.cli import main
from seb.compiler import StateCapExceeded
from seb.export import to_aut
from seb.manifest import ManifestError, load_manifest
from seb.parser import parse_activity_file
from seb.transforms import STAGES, build_stages

from conftest import ROOT, SILENT_LOOP


def run_cli(*args, cwd=ROOT, hash_seed=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "seb.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# --------------------------------------------------------------------------
# Manifest loading


def test_manifest_loads_pingpong(corpus_dir):
    loaded = load_manifest(corpus_dir / "pingpong.cfg")
    assert [svc.name for svc in loaded.services] == ["ping"]
    assert loaded.client.origin == "client"


def test_manifest_unknown_binding_rejected(tmp_path, corpus_dir):
    target = tmp_path / "bad.cfg"
    target.write_text(
        f"(service ping :file {corpus_dir}/pingpong_service.seb :at loc)\n"
        f"(client :file {corpus_dir}/pingpong_client.seb :bind (p loc) (msg \"x\") (ghost loc))\n"
    )
    with pytest.raises(ManifestError, match="unknown variables"):
        load_manifest(target)


def test_manifest_requires_client(tmp_path, corpus_dir):
    target = tmp_path / "bad.cfg"
    target.write_text(f"(service ping :file {corpus_dir}/pingpong_service.seb :at loc)\n")
    with pytest.raises(ManifestError, match="no client"):
        load_manifest(target)


def test_manifest_rejects_non_deployable_service(tmp_path, fixtures_dir):
    target = tmp_path / "bad.cfg"
    target.write_text(
        f"(service odd :file {fixtures_dir}/atomic_inv.seb :at loc)\n"
        f"(client :file {fixtures_dir}/atomic_inv.seb)\n"
    )
    with pytest.raises(ManifestError, match="not deployable"):
        load_manifest(target)


# --------------------------------------------------------------------------
# validate


def test_validate_ok_exit_zero(capsys):
    assert main(["validate", "corpus/quotecomparer.seb"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_diagnostics_exit_one(capsys):
    assert main(["validate", "fixtures/dup_link.seb"]) == 1
    assert "DUP_LINK" in capsys.readouterr().out


def test_validate_missing_file_exit_two():
    assert main(["validate", "definitely_missing.seb"]) == 2


def test_validate_report_vars(capsys):
    assert main(["validate", "corpus/pingpong_client.seb", "--report-vars"]) == 0
    out = capsys.readouterr().out
    assert "free:" in out
    assert "msg" in out


def test_validate_multiple_files(capsys):
    code = main(
        [
            "validate",
            "corpus/pingpong_client.seb",
            "corpus/pingpong_service.seb",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.count("ok") == 2


# --------------------------------------------------------------------------
# compile


def test_compile_atomic_raw_aut(capsys):
    assert main(["compile", "fixtures/atomic_inv.seb", "--stage", "raw"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "des (0, 1, 2)"
    assert '(0, "s!hello(x)", 1)' in out


def test_compile_rtc_dot_has_five_terminals(capsys):
    assert (
        main(
            [
                "compile",
                "corpus/quotecomparer.seb",
                "--stage",
                "rtc",
                "--format",
                "dot",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("doublecircle") == 5


def test_compile_min_aut_single_sink(capsys):
    assert main(["compile", "corpus/quotecomparer.seb", "--stage", "min"]) == 0
    out = capsys.readouterr().out
    g = build_stages(parse_activity_file(ROOT / "corpus/quotecomparer.seb"))["min"]
    assert out == to_aut(g)
    assert len(g.sinks()) == 1


def test_compile_state_cap_exit_three(tmp_path):
    wide = tmp_path / "wide.seb"
    wide.write_text("(flo (inv s a) (inv s b) (inv s c) (inv s d) (inv s e))")
    assert main(["compile", str(wide), "--stage", "raw", "--max-states", "5"]) == 3


@pytest.mark.parametrize("stage", ["prio", "min"])
def test_compile_state_cap_exit_three_on_a_silent_chain(stage, tmp_path, capsys):
    # min compresses to a single state, so the cap must also count the
    # states the silent chase passes through.
    chain = tmp_path / "chain.seb"
    chain.write_text("(seq" + " (flo (nil))" * 100 + ")")
    args = ["compile", str(chain), "--stage", stage, "--max-states", "50"]
    assert main(args) == 3
    assert "safety cap of 50" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (("compile", "fixtures/atomic_inv.seb", "--max-states", "-7"), "--max-states: must be at least 1, got -7"),
        (("compile", "fixtures/atomic_inv.seb", "--max-states", "0"), "--max-states: must be at least 1, got 0"),
        (("check", "corpus/pingpong.cfg", "--max-configs", "-3"), "--max-configs: must be at least 1, got -3"),
        (("check", "corpus/pingpong.cfg", "--max-configs", "0"), "--max-configs: must be at least 1, got 0"),
        (("check", "corpus/pingpong.cfg", "--max-queue", "-1"), "--max-queue: must be at least 0, got -1"),
        (("simulate", "corpus/pingpong.cfg", "--steps", "-1"), "--steps: must be at least 0, got -1"),
        (("check", "corpus/pingpong.cfg", "--max-configs", "many"), "--max-configs: invalid int value: 'many'"),
    ],
)
def test_bound_out_of_range_is_a_usage_error(args, message, capsys):
    assert main(list(args)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seb {args[0]} ")
    assert err.endswith(f"error: argument {message}\n")


def test_least_bounds_are_accepted(capsys):
    assert main(["compile", "fixtures/atomic_inv.seb", "--max-states", "2"]) == 0
    assert main(["compile", "fixtures/atomic_inv.seb", "--max-states", "1"]) == 3
    assert main(["check", "corpus/pingpong.cfg", "--max-configs", "1", "--max-queue", "0"]) == 4
    assert "1 configurations, max-configs=1, max-queue=0" in capsys.readouterr().out


def test_compile_invalid_input_exit_one():
    assert main(["compile", "fixtures/dup_link.seb"]) == 1


def test_compile_check_properties(capsys):
    assert main(["compile", "corpus/pingpong_client.seb", "--check-properties"]) == 0


@pytest.mark.parametrize("stage", ["min", "raw"])
def test_check_properties_reports_a_silent_cycle_of_the_raw_graph(stage, tmp_path, capsys):
    path = tmp_path / "loop.seb"  # not in fixtures/, which the golden tests glob
    path.write_text(SILENT_LOOP)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["compile", str(path), "--check-properties", "--stage", stage]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}: [raw] silent cycle through states [0, 1, 0]\n"
        f"{path}: [raw] silent step at state 0 (to 1) does not commute with s?c() (to 2)\n"
    )


def test_fused_route_stops_a_silent_cycle_at_the_state_cap(tmp_path, capsys):
    path = tmp_path / "loop.seb"
    path.write_text(SILENT_LOOP)
    assert main(["compile", str(path), "--max-states", "50"]) == 3
    assert capsys.readouterr().err == "error: state count exceeded the safety cap of 50\n"


def test_compile_output_file(tmp_path, capsys):
    out_path = tmp_path / "g.aut"
    assert (
        main(["compile", "fixtures/atomic_inv.seb", "-o", str(out_path)]) == 0
    )
    assert out_path.read_text().startswith("des ")


def test_compile_keep_payloads_dot_shows_links(capsys):
    assert (
        main(
            [
                "compile",
                "corpus/quotecomparer.seb",
                "--stage",
                "rtc",
                "--format",
                "dot",
                "--keep-payloads",
            ]
        )
        == 0
    )
    assert "l6" in capsys.readouterr().out


# --------------------------------------------------------------------------
# check / simulate


def test_check_pingpong_verified(capsys):
    assert main(["check", "corpus/pingpong.cfg"]) == 0
    assert "Verified" in capsys.readouterr().out


def test_check_mismatch_unsafe_with_trace(capsys):
    assert main(["check", "fixtures/mismatch.cfg", "--trace"]) == 1
    out = capsys.readouterr().out
    assert "UNSAFE" in out
    assert "SES1" in out and "SES2" in out and "INV" in out


def test_check_flooding_exhausted(capsys):
    assert main(["check", "fixtures/flooding.cfg", "--max-configs", "10"]) == 4
    assert "Exhausted" in capsys.readouterr().out


def test_check_manifest_error_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("(client :file nothing.seb)")
    assert main(["check", str(bad)]) == 2


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize(
    "manifest, code",
    [
        ("fixtures/dup_location.cfg", "DUP_LOCATION"),
        ("fixtures/dangling_partner.cfg", "DANGLING_PARTNER"),
    ],
)
def test_badly_partnered_manifest_is_an_input_error(command, manifest, code, capsys):
    assert main([command, manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {manifest}: {code} at /: ")


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize(
    "manifest, message",
    [
        (
            "fixtures/bind_root_session.cfg",
            "service 'ping' is not deployable: ROOT_SESSION at /: "
            "'s0' is bound when an instance starts and must stay undefined",
        ),
        (
            "fixtures/client_binds_nonfree.cfg",
            "client is not valid: NONFREE_DEFINED at /: "
            "variable 'y' is not free and must stay undefined",
        ),
    ],
)
def test_binding_a_value_that_is_never_read_is_an_input_error(
    command, manifest, message, capsys
):
    assert main([command, manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {manifest}: {message}"]


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize(
    "manifest, message",
    [
        (
            "fixtures/initiates_root.cfg",
            "service 'ping' is not deployable: S0_INITIATED at /1/1: "
            "'s0' is implicitly bound at service instantiation and cannot be initiated",
        ),
        (
            "fixtures/rebinds_own_location.cfg",
            "service 'ping' is not deployable: P0_REBOUND at /0: "
            "'p0' holds the own location and cannot be rebound by a reception",
        ),
    ],
)
def test_service_with_a_forbidden_occurrence_is_an_input_error(
    command, manifest, message, capsys
):
    assert main([command, manifest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {manifest}: {message}"]


PING = "(service ping :file pingpong_service.seb :at pingloc"
CLIENT = '(client :file pingpong_client.seb :bind (p pingloc) (msg "marco"))'


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize(
    "text, message",
    [
        (f"{PING} :bogus 1)\n{CLIENT}\n", "1:54: unknown keyword ':bogus'"),
        (f"{PING})\n{CLIENT.replace(' :bind', ' :at x :bind')}\n", "2:35: unknown keyword ':at'"),
        (f"{PING} :at other)\n{CLIENT}\n", "1:54: duplicate keyword ':at'"),
        (f"{PING})\n{PING[:-7]}pongloc)\n{CLIENT}\n", "2:1: service 'ping' is declared twice"),
    ],
    ids=["unknown", "misplaced", "repeated", "duplicate-service"],
)
def test_malformed_manifest_entry_is_an_input_error(
    command, text, message, tmp_path, corpus_dir, capsys
):
    for name in ("pingpong_service.seb", "pingpong_client.seb"):
        (tmp_path / name).write_text((corpus_dir / name).read_text())
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    assert main([command, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize(
    "manifest",
    [
        "fixtures/dup_keyword.cfg",
        "fixtures/dup_service.cfg",
        "fixtures/dup_location.cfg",
        "fixtures/dangling_partner.cfg",
    ],
)
def test_every_manifest_error_names_the_manifest(manifest, capsys):
    assert main(["check", manifest]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {manifest}: ")


def test_missing_activity_file_names_the_activity(tmp_path, capsys):
    manifest = tmp_path / "m.cfg"
    manifest.write_text("(client :file client.seb)\n", encoding="utf-8")
    assert main(["check", str(manifest)]) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'client.seb'}: No such file or directory\n"
    )


@pytest.mark.parametrize(
    "args, target",
    [
        (("check", "corpus/pingpong.cfg"), "seb.manifest.build_stages"),
        (("simulate", "corpus/pingpong.cfg"), "seb.manifest.build_stages"),
        (
            ("validate", "corpus/pingpong_client.seb", "--report-vars"),
            "seb.variables.build_prioritized_cg",
        ),
    ],
    ids=["check", "simulate", "validate-report-vars"],
)
def test_state_cap_exits_three_in_every_command(args, target, monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise StateCapExceeded(10)

    monkeypatch.setattr(target, capped)
    assert main(list(args)) == 3
    assert capsys.readouterr().err == "error: state count exceeded the safety cap of 10\n"


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("seb.cli.explore_safety", broken)
    assert main(["check", "corpus/pingpong.cfg"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("seb.cli.explore_safety", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "corpus/pingpong.cfg"])


def test_simulate_trace_contains_all_rules(capsys):
    assert main(["simulate", "corpus/pingpong.cfg", "--steps", "6", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for tag in ("SES1", "SES2", "INV", "REC"):
        assert tag in out


def test_simulate_zero_steps(capsys):
    assert main(["simulate", "corpus/pingpong.cfg", "--steps", "0"]) == 0
    out = capsys.readouterr().out
    assert "instances: 1" in out


# --------------------------------------------------------------------------
# Determinism across processes (distinct hash seeds)


def test_compile_byte_identical_across_hash_seeds(tmp_path):
    # Every stage is numbered from unsorted derived steps, so every stage
    # is compared, payloads included.  quotecomparer's raw graph has 53k
    # states; smaller activities stand in for it there.  A run with one
    # unnumbered successor is not sorted, which gen0009's 748 raw states
    # meet often.
    chain = tmp_path / "chain.seb"
    chain.write_text("(seq" + " (flo (nil))" * 25 + ")")
    cases = [("corpus/pingpong_client.seb", "raw"), (str(chain), "raw")]
    cases += [("bench/inputs/properties/gen0009.seb", "raw")]
    cases += [("corpus/quotecomparer.seb", stage) for stage in STAGES[1:]]
    for path, stage in cases:
        outs = set()
        for hash_seed in ("1", "2"):
            proc = run_cli(
                "compile", path, "--stage", stage, "--format", "dot", "--keep-payloads",
                hash_seed=hash_seed,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, (path, stage)


@pytest.mark.parametrize(
    "args, code",
    [
        (("fixtures/mismatch.cfg", "--trace"), 1),
        (("fixtures/flooding.cfg", "--max-configs", "300"), 4),
        (("bench/inputs/qc-deployed/deployed.cfg", "--max-configs", "10000"), 0),
        (("fixtures/flooding.cfg",), 4),
    ],
)
def test_check_byte_identical_across_hash_seeds(args, code):
    outs = set()
    for hash_seed in ("1", "2"):
        proc = run_cli("check", *args, hash_seed=hash_seed)
        assert proc.returncode == code, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_python_dash_m_seb_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "seb", "check", "corpus/pingpong.cfg"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Verified")


def test_simulate_byte_identical_across_runs():
    one = run_cli("simulate", "corpus/pingpong.cfg", "--steps", "8", "--seed", "42")
    two = run_cli("simulate", "corpus/pingpong.cfg", "--steps", "8", "--seed", "42")
    assert one.stdout == two.stdout
    assert one.returncode == two.returncode == 0


def test_simulate_reports_quiescence(capsys):
    assert main(["simulate", "corpus/pingpong.cfg", "--steps", "50", "--seed", "3"]) == 0
    assert "quiescent at step" in capsys.readouterr().out


NOT_UTF8 = b"(inv s \xff)\n"


def test_validate_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.seb"
    bad.write_bytes(NOT_UTF8)
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


def test_compile_non_utf8_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.seb"
    bad.write_bytes(NOT_UTF8)
    assert main(["compile", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("bad_name", ["client.seb", "bad.cfg"])
def test_check_non_utf8_input_exit_two(bad_name, tmp_path, capsys):
    manifest = tmp_path / "bad.cfg"
    manifest.write_text("(client :file client.seb)\n", encoding="utf-8")
    (tmp_path / "client.seb").write_text("(rec s0 a)\n", encoding="utf-8")
    (tmp_path / bad_name).write_bytes(NOT_UTF8)
    assert main(["check", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / bad_name}: 'utf-8' codec can't decode byte 0xff")


def test_compile_output_to_unwritable_path_exit_two(tmp_path, capsys):
    out_path = tmp_path / "missing" / "g.aut"
    assert main(["compile", "fixtures/atomic_inv.seb", "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out_path}: No such file or directory\n"


def test_check_unreadable_activity_names_the_activity(tmp_path, capsys):
    manifest = tmp_path / "m.cfg"
    manifest.write_text("(client :file client.seb)\n", encoding="utf-8")
    (tmp_path / "client.seb").mkdir()
    assert main(["check", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'client.seb'}: Is a directory\n"
