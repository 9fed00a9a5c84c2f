"""Shared fixtures.

Expensive artifacts (designs, workload suites, campaigns, trained
analyzers) are session-scoped so the suite stays fast while integration
tests exercise the real pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    build_or1200_icfsm,
    build_or1200_if,
    build_sdram_controller,
    random_netlist,
)
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.netlist import Netlist


@pytest.fixture(scope="session")
def stored_campaign():
    """Run a campaign on an artifact store and cache it whole, the way
    ``repro campaign --store`` does (which drops its units); returns
    the result."""
    from repro.fi import run_campaign
    from repro.store import memoized_campaign

    def run(store, netlist, workloads, **options):
        return memoized_campaign(
            store, netlist, workloads,
            collapse=options.get("collapse", False),
            compute=lambda store: run_campaign(netlist, workloads,
                                               store=store, **options),
        )

    return run


@pytest.fixture(scope="session")
def sdram():
    return build_sdram_controller()


@pytest.fixture(scope="session")
def or1200_if():
    return build_or1200_if()


@pytest.fixture(scope="session")
def icfsm():
    return build_or1200_icfsm()


@pytest.fixture(scope="session")
def all_designs(sdram, or1200_if, icfsm):
    return [sdram, or1200_if, icfsm]


@pytest.fixture(scope="session")
def small_random_netlist():
    return random_netlist(n_inputs=6, n_gates=40, n_flops=5,
                          n_outputs=4, seed=11)


@pytest.fixture()
def tiny_netlist():
    """a AND b -> y, with an inverter tap: fresh per test (mutable)."""
    netlist = Netlist("tiny")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    y = netlist.add_gate("AN2", [a, b], instance="U1")
    inv = netlist.add_gate("IV", [y], instance="U2")
    netlist.add_output(y, "y")
    netlist.add_output(inv, "yn")
    return netlist


@pytest.fixture(scope="session")
def icfsm_analyzer(icfsm):
    """A fully-run analyzer on the smallest design (session-cached)."""
    config = AnalyzerConfig(n_workloads=12, workload_cycles=150, seed=0)
    analyzer = FaultCriticalityAnalyzer(icfsm, config)
    analyzer.classifier  # force the expensive stages once
    analyzer.regressor
    return analyzer
