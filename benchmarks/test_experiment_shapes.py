"""Figs. 7-17 and the §9.1/§4.4.1/§9.4a ablations: one shape check each.

Every entry of ``SHAPES`` runs one registered experiment once through the
runner (``experiment_rows(name, scale)``, exactly what ``repro-experiments
run <name>`` executes), asserts the shape the paper reports, and prints the
rows the paper plots.  The anonymity figures (fig07-fig10) evaluate each
Monte-Carlo chunk with the vectorised engine (``simulate_anonymity_batch``);
see docs/anonymity-math.md for the model.  The speedup gates keep files of
their own, because CI runs them by path.
"""

import pytest

from repro.experiments import experiment_names, experiment_rows, format_table

#: Registry name -> the assertions its rows must satisfy, each an expression
#: over ``rows`` (the experiment's row dictionaries, in order).
SHAPES = {
    # Fig. 7: source/destination anonymity vs. fraction of malicious nodes,
    # compared against Chaum mixes (N=10000, L=8, d=3).
    "fig07": [
        "rows[0]['source_anonymity'] > 0.9",
        "rows[-1]['source_anonymity'] < rows[0]['source_anonymity']",
    ],
    # Fig. 8: anonymity vs. the split factor d for f=0.1 and f=0.4.
    "fig08": [
        "rows[0]['split_factor'] == 2",
        "all(0.0 <= r['destination_anonymity_f0.4'] <= 1.0 for r in rows)",
    ],
    # Fig. 9: anonymity vs. path length L (d=3, f=0.1); both curves rise with L.
    "fig09": [
        "rows[-1]['source_anonymity'] >= rows[0]['source_anonymity'] - 0.05",
    ],
    # Fig. 10: anonymity vs. added redundancy (d=3, L=8, f=0.1); destination
    # anonymity decreases as redundancy grows.
    "fig10": [
        "rows[0]['destination_anonymity'] >= rows[-1]['destination_anonymity'] - 0.05",
    ],
    # Fig. 11: LAN throughput vs. path length; information slicing (d=2) beats
    # onion routing at every path length.
    "fig11": [
        "all(r['slicing_mbps'] > r['onion_mbps'] for r in rows)",
    ],
    # Fig. 12: PlanetLab-profile throughput vs. path length; slicing wins.
    "fig12": [
        "all(r['slicing_mbps'] > r['onion_mbps'] for r in rows)",
    ],
    # Fig. 13: aggregate throughput vs. number of concurrent flows on a
    # 100-node overlay (d=3, L=5); throughput scales then saturates.
    "fig13": [
        "rows[-1]['network_throughput_mbps'] >= rows[0]['network_throughput_mbps']",
    ],
    # Fig. 14: LAN route-setup latency vs. path length for onion routing and
    # slicing with d=2,3,4; larger d means longer setup.
    "fig14": [
        "all(r['slicing_d2_seconds'] < r['slicing_d4_seconds'] for r in rows)",
        "all(r['onion_seconds'] < r['slicing_d2_seconds'] for r in rows)",
    ],
    # Fig. 15: PlanetLab-profile route-setup latency vs. path length and d.
    # Individual points are noisy because the heterogeneous profile redraws
    # node loads per run, so the d=2 < d=4 ordering is asserted on the sweep
    # average (as in the tier-1 tests).
    "fig15": [
        "sum(r['slicing_d2_seconds'] for r in rows) / len(rows)"
        " < sum(r['slicing_d4_seconds'] for r in rows) / len(rows)",
    ],
    # Fig. 16: analytical transfer-success probability vs. added redundancy
    # (Eqs. 6-7, L=5, d=2, p=0.1/0.3); slicing dominates onion+erasure.
    "fig16": [
        "all(r['information_slicing_success'] >= r['onion_erasure_success'] - 1e-9"
        " for r in rows)",
    ],
    # Fig. 17: probability of completing a 30-minute transfer on a churning
    # overlay vs. added redundancy (L=5, d=2).
    "fig17": [
        "rows[-1]['information_slicing_success'] > rows[-1]['onion_erasure_success']",
        "rows[-1]['information_slicing_success'] > rows[0]['information_slicing_success']",
    ],
    # §9.1: against an adversary who owns the largest AS and fills the overlay
    # with nodes from its own address space, AS-diverse selection sharply cuts
    # the fraction of chosen relays the adversary controls.
    "ablation_as_selection": [
        "rows[1]['adversary_capture_fraction'] < rows[0]['adversary_capture_fraction']",
    ],
    # §4.4.1: same churn pattern, same redundancy (d=2, d'=3).  With
    # regeneration disabled a relay that lost a parent cannot replace the
    # missing slice, so downstream failures compound, which is exactly the
    # gap between Eq. 6 and Eq. 7.
    "ablation_network_coding": [
        "rows[0]['success_rate'] >= rows[1]['success_rate']",
    ],
    # §9.4a: CPU overhead of the per-hop anti-pattern transform on top of
    # plain coding for a 1500-byte packet, across split factors.  The
    # overhead should stay a small fraction of the coding cost itself.
    "ablation_transforms": [
        "all(row['transform_chain_us'] > 0 for row in rows)",
    ],
}


def test_every_shape_names_a_registered_experiment():
    assert set(SHAPES) <= set(experiment_names())


@pytest.mark.parametrize("name", list(SHAPES))
def test_experiment_shape(benchmark, scale, name):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": name, "scale": scale}, iterations=1, rounds=1
    )
    for check in SHAPES[name]:
        assert eval(check, {"rows": rows}), f"{name}: {check}"
    print()
    print(format_table(rows))
