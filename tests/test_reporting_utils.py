"""Tests for report rendering and shared utilities."""

import numpy as np
import pytest

from repro.metrics import roc_curve
from repro.reporting import bar_chart, grouped_bar_chart, render_table, roc_ascii
from repro.utils import SeedSequence, derive_rng, rng_from_seed


class TestTables:
    def test_render_basic(self):
        rows = [{"design": "sdram", "acc": 0.9},
                {"design": "if", "acc": 0.94}]
        text = render_table(rows, title="Results")
        assert "Results" in text
        assert "sdram" in text and "0.94" in text
        # header + separator + 2 rows + borders
        assert text.count("\n") >= 5

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="Empty")

    def test_render_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = render_table(rows, columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[1]


class TestCharts:
    def test_bar_chart(self):
        text = bar_chart({"GCN": 0.9, "MLP": 0.75}, title="Fig3",
                         width=20)
        assert "Fig3" in text and "GCN" in text
        gcn_line = [line for line in text.splitlines() if "GCN" in line][0]
        mlp_line = [line for line in text.splitlines() if "MLP" in line][0]
        assert gcn_line.count("#") > mlp_line.count("#")

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart({})

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart(
            {"sdram": {"GCN": 0.9}, "if": {"GCN": 0.94}}
        )
        assert "sdram:" in text and "if:" in text

    def test_roc_ascii(self):
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0] * 5)
        rng = np.random.default_rng(0)
        curves = {
            "good": roc_curve(y, y + rng.normal(0, 0.3, len(y))),
            "rand": roc_curve(y, rng.random(len(y))),
        }
        text = roc_ascii(curves, title="Fig4")
        assert "Fig4" in text
        assert "AUC=" in text
        assert "> FPR" in text


class TestRng:
    def test_rng_from_seed_types(self):
        assert rng_from_seed(3).integers(10) == rng_from_seed(3).integers(10)
        generator = np.random.default_rng(0)
        assert rng_from_seed(generator) is generator
        tuple_a = rng_from_seed((1, "x")).integers(1000)
        tuple_b = rng_from_seed((1, "x")).integers(1000)
        assert tuple_a == tuple_b

    def test_derive_rng_label_independence(self):
        a = derive_rng(7, "alpha").integers(10_000)
        b = derive_rng(7, "beta").integers(10_000)
        a_again = derive_rng(7, "alpha").integers(10_000)
        assert a == a_again
        assert a != b  # overwhelmingly likely

    def test_seed_sequence_children(self):
        seeds = SeedSequence(11)
        first = seeds.child("w").integers(10_000)
        second = SeedSequence(11).child("w").integers(10_000)
        assert first == second
        streams = list(seeds.children("m", 3))
        values = [stream.integers(10_000) for stream in streams]
        assert len(set(values)) == 3
