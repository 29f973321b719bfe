import os
import subprocess
import sys

import pytest

from seb.cli import main
from seb.manifest import ManifestError, load_manifest

from conftest import ROOT


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
    from seb.export import from_aut

    assert len(from_aut(out).sinks()) == 1


def test_compile_state_cap_exit_three(tmp_path):
    wide = tmp_path / "wide.seb"
    wide.write_text("(flo (inv s a) (inv s b) (inv s c) (inv s d) (inv s e))")
    assert main(["compile", str(wide), "--stage", "raw", "--max-states", "5"]) == 3


def test_compile_invalid_input_exit_one():
    assert main(["compile", "fixtures/dup_link.seb"]) == 1


def test_compile_check_properties(capsys):
    assert main(["compile", "corpus/pingpong_client.seb", "--check-properties"]) == 0


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


def test_check_looping_exhausted(capsys):
    assert main(["check", "corpus/looping.cfg", "--max-configs", "10"]) == 4
    assert "Exhausted" in capsys.readouterr().out


def test_check_manifest_error_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("(client :file nothing.seb)")
    assert main(["check", str(bad)]) == 2


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


def test_compile_byte_identical_across_hash_seeds():
    outs = set()
    for hash_seed in ("1", "2"):
        proc = run_cli(
            "compile", "corpus/quotecomparer.seb", "--stage", "min", hash_seed=hash_seed
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


@pytest.mark.parametrize(
    "args, code",
    [
        (("fixtures/mismatch.cfg", "--trace"), 1),
        (("corpus/looping.cfg", "--max-configs", "300"), 4),
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
