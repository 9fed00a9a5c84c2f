"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def test_designs_command(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "sdram_controller" in out
    assert "or1200_icfsm" in out


@pytest.mark.parametrize("argv", [
    ["-c", "import repro"],
    ["-m", "repro", "designs"],
])
def test_startup_does_not_import_scipy_stats(argv):
    # scipy.stats costs about a second of import time; only the
    # functions that need it may pull it in.  ``-X importtime`` lists
    # every module the fresh interpreter imported on stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "repro" in imported
    assert "scipy.stats" not in imported
    # networkx is an optional dependency (the ``graph`` extra), used
    # only by ``netlist_to_networkx``.
    assert "networkx" not in imported


def test_verilog_command_stdout(capsys):
    assert main(["verilog", "or1200_icfsm"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("// generated")
    assert "module or1200_icfsm" in out


def test_verilog_command_file(tmp_path, capsys):
    target = tmp_path / "design.v"
    assert main(["verilog", "sdram", "--out", str(target)]) == 0
    from repro.netlist import read_verilog

    parsed = read_verilog(target)
    assert parsed.name == "sdram_controller"


def test_campaign_command(capsys):
    assert main([
        "campaign", "or1200_icfsm",
        "--workloads", "2", "--cycles", "60", "--collapse",
    ]) == 0
    out = capsys.readouterr().out
    assert "fault-experiments" in out
    assert "Algorithm 1" in out


def test_campaign_command_saves(tmp_path, capsys):
    target = tmp_path / "campaign.npz"
    assert main([
        "campaign", "or1200_icfsm",
        "--workloads", "2", "--cycles", "60", "--out", str(target),
    ]) == 0
    from repro.io import load_campaign

    loaded = load_campaign(target)
    assert loaded.netlist_name == "or1200_icfsm"


def test_campaign_command_checkpoint_resume(tmp_path, capsys,
                                            monkeypatch):
    """An interrupted ``campaign --store`` exits 130 pointing at the
    store; rerunning with the same ``--store`` completes it and prints
    what an uninterrupted run prints."""
    from repro.sim.bitparallel import BitParallelSimulator

    monkeypatch.delenv("REPRO_STORE", raising=False)
    store = tmp_path / "store"
    common = ["campaign", "or1200_icfsm", "--workloads", "2",
              "--cycles", "60", "--shard-size", "200"]
    assert main(common) == 0
    reference = capsys.readouterr().out

    real = BitParallelSimulator.run_fault_passes
    passes = {"n": 0}

    def dying(self, *args, **kwargs):
        if passes["n"] == 1:
            raise KeyboardInterrupt
        passes["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BitParallelSimulator, "run_fault_passes", dying)
    assert main(common + ["--store", str(store)]) == 130
    assert "rerun with the same --store" in capsys.readouterr().err
    passes["n"] = 0
    # Without a store there is nothing to resume from: no such hint.
    assert main(common) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err and "--store" not in err

    monkeypatch.setattr(BitParallelSimulator, "run_fault_passes", real)
    assert main(common + ["--store", str(store)]) == 0
    resumed = capsys.readouterr().out

    def untimed(text):
        return [line for line in text.splitlines()
                if "fault-experiments in" not in line]

    assert untimed(resumed) == untimed(reference)


def test_campaign_command_retry_flags(capsys):
    assert main([
        "campaign", "or1200_icfsm", "--workloads", "2",
        "--cycles", "60", "--timeout", "600", "--retries", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "Algorithm 1" in out


def test_analyze_command(capsys):
    assert main([
        "analyze", "or1200_icfsm", "--workloads", "6", "--cycles", "80",
    ]) == 0
    out = capsys.readouterr().out
    assert "gcn_accuracy" in out
    assert "GCN" in out and "EBM" in out
    assert "pearson" in out


def test_explain_command(capsys):
    assert main([
        "explain", "or1200_icfsm", "--workloads", "6", "--cycles", "80",
    ]) == 0
    out = capsys.readouterr().out
    assert "criticality score" in out


def test_unknown_design_rejected():
    with pytest.raises(SystemExit):
        main(["analyze", "not_a_design"])


def test_reset_check_command(capsys):
    assert main(["reset-check", "or1200_icfsm"]) == 0
    out = capsys.readouterr().out
    assert "unknown control flops: 0" in out


def test_optimize_command(tmp_path, capsys):
    target = tmp_path / "opt.v"
    assert main(["optimize", "sdram", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert "equivalence check: PASS" in out
    assert target.exists()


def test_harden_command(capsys):
    assert main([
        "harden", "or1200_icfsm", "--workloads", "6", "--cycles", "80",
        "--budget", "6",
    ]) == 0
    out = capsys.readouterr().out
    assert "mission failure probability" in out
