"""Tests for the per-figure experiment harness (small-scale smoke + shape checks)."""

from repro.experiments import (
    experiment_names,
    experiment_rows,
    format_table,
    measure_onion_setup,
    measure_onion_throughput,
    measure_slicing_setup,
    measure_slicing_throughput,
    setup_latency_sweep,
    throughput_vs_path_length,
)
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE

SMALL = 0.05  # scale factor: keep the whole module under a minute


def test_registry_contains_every_figure():
    expected = {f"fig{n:02d}" for n in range(7, 18)} | {
        "microbench",
        "anonbench",
        "chaumbench",
        "cryptobench",
        "dataplane-bench",
        "gfbench",
        "sphinxbench",
        "distbench",
        "distsweep",
        "distinguishability",
        "ablation_as_selection",
        "ablation_network_coding",
        "ablation_transforms",
    }
    # Scenario-matrix cells (``scn-*``) register dynamically from spec files.
    assert expected == {
        name for name in experiment_names() if not name.startswith("scn-")
    }


def test_fig07_shape():
    rows = experiment_rows("fig07", scale=SMALL)
    assert rows[0]["fraction_malicious"] < rows[-1]["fraction_malicious"]
    # Low-f anonymity is near 1, and degrades as f grows.
    assert rows[0]["source_anonymity"] > 0.9
    assert rows[-1]["source_anonymity"] < rows[0]["source_anonymity"]
    assert rows[0]["chaum_source_anonymity"] > 0.8


def test_fig11_slicing_beats_onion_on_lan():
    rows = throughput_vs_path_length(
        LAN_PROFILE, path_lengths=[2, 4], d=2, num_messages=60
    )
    for row in rows:
        assert row["slicing_mbps"] > row["onion_mbps"]
        assert row["slicing_delivered"] == 60


def test_fig12_slicing_beats_onion_on_wan():
    rows = throughput_vs_path_length(
        PLANETLAB_PROFILE, path_lengths=[3], d=2, num_messages=20
    )
    assert rows[0]["slicing_mbps"] > rows[0]["onion_mbps"]


def test_fig14_setup_orderings():
    rows = setup_latency_sweep(LAN_PROFILE, path_lengths=[2, 5], split_factors=(2, 4))
    for row in rows:
        # Setup cost grows with the split factor; onion (no slicing work) is
        # the cheapest, exactly as in Fig. 14.
        assert row["onion_seconds"] < row["slicing_d2_seconds"]
        assert row["slicing_d2_seconds"] < row["slicing_d4_seconds"]
    # And it grows with path length.
    assert rows[0]["slicing_d2_seconds"] < rows[1]["slicing_d2_seconds"]


def test_setup_latency_wan_slower_than_lan():
    lan = measure_slicing_setup(LAN_PROFILE, 4, d=3)
    wan = measure_slicing_setup(PLANETLAB_PROFILE, 4, d=3)
    assert wan.setup_seconds > lan.setup_seconds
    lan_onion = measure_onion_setup(LAN_PROFILE, 4)
    wan_onion = measure_onion_setup(PLANETLAB_PROFILE, 4)
    assert wan_onion.setup_seconds > lan_onion.setup_seconds


def test_fig16_slicing_dominates_onion_erasure():
    rows = experiment_rows("fig16")
    for row in rows:
        assert row["information_slicing_success"] >= row["onion_erasure_success"] - 1e-9
    # Higher failure probability lowers success at equal redundancy.
    p01 = [r for r in rows if r["node_failure_prob"] == 0.1]
    p03 = [r for r in rows if r["node_failure_prob"] == 0.3]
    assert p01[3]["information_slicing_success"] > p03[3]["information_slicing_success"]


def test_fig17_slicing_reaches_high_success_with_little_redundancy():
    rows = experiment_rows("fig17", scale=0.3)
    by_redundancy = {row["added_redundancy"]: row for row in rows}
    assert by_redundancy[1.5]["information_slicing_success"] > 0.7
    assert (
        by_redundancy[1.5]["information_slicing_success"]
        > by_redundancy[1.5]["onion_erasure_success"]
    )
    # Standard onion routing is flat and low regardless of redundancy.
    assert by_redundancy[2.0]["standard_onion_success"] < 0.5


def test_microbenchmark_rows():
    rows = experiment_rows("microbench", scale=0.2)
    assert [row["d"] for row in rows] == [2, 3, 4, 5, 6, 8]
    for row in rows:
        assert row["encode_us_per_packet"] > 0
        assert row["max_output_mbps"] > 0


def test_throughput_result_fields():
    result = measure_slicing_throughput(LAN_PROFILE, 3, d=2, num_messages=30)
    assert result.protocol == "information-slicing"
    assert result.messages_delivered == 30
    onion = measure_onion_throughput(LAN_PROFILE, 3, num_messages=30)
    assert onion.protocol == "onion-routing"
    assert onion.messages_delivered == 30


def test_format_table_renders_all_columns():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    text = format_table(rows)
    assert "a" in text and "b" in text and "0.2500" in text
    assert format_table([]) == "(no rows)"
