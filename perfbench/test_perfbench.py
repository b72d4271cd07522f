"""Tests of the wall-clock transfer benchmark, at a tiny scale.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import transfers  # noqa: E402
from repro.overlay import runtime as runtime_api  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def invoke(capsys, workload: str, trace: int, seed: int = 5):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        shape_name="tiny",
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_workloads_match_benchmark_file():
    assert WORKLOADS == list(transfers.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_named_metric(capsys, workload):
    code, result, lines = invoke(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert any(" error_ratio = 0 ratio" in line for line in lines)
    assert json.loads(lines[0].removeprefix("provenance "))["workload"] == workload

    code, result, _ = invoke(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == declared
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    # Self times plus the unaccounted remainder make up the traced wall time.
    shares = sum(value for name, value in metrics.items() if name.endswith(".share"))
    assert shares + metrics["unaccounted_share"] == pytest.approx(1.0)
    assert (metrics["net.secure.calls"] > 0) == (workload == "aio-secure")
    assert (metrics["overlay.aio.calls"] > 0) == workload.startswith("aio")
    assert (metrics["core.packet.calls"] > 0) == workload.startswith("aio")
    assert metrics["crypto.symmetric.calls"] > 0 and metrics["core.gf.calls"] > 0


@pytest.mark.parametrize("damage", ["corrupt", "drop"])
def test_damaged_delivery_fails_the_command(capsys, monkeypatch, damage):
    original = runtime_api.SlicingProtocolRuntime.delivered_plaintexts
    damaged = []

    def delivered_plaintexts(self):
        delivered = dict(original(self))
        if not damaged:
            seq = min(delivered)
            if damage == "corrupt":
                delivered[seq] = bytes([delivered[seq][0] ^ 1]) + delivered[seq][1:]
            else:
                del delivered[seq]
            damaged.append(seq)
        return delivered

    monkeypatch.setattr(
        runtime_api.SlicingProtocolRuntime, "delivered_plaintexts", delivered_plaintexts
    )
    code, result, _ = invoke(capsys, "lan-bulk", trace=0)
    assert damaged and code != 0 and result["correct"] is False
    assert result["failed"] == (1 if damage == "corrupt" else 0)


def test_traced_run_restores_every_wrapped_attribute():
    sites = spans.all_patch_sites()
    before = [vars(owner)[name] for owner, name in sites]
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError, match="abort"):
        with spans.traced(recorder):
            wrapped = [vars(owner)[name] for owner, name in sites]
            transfers.run_workload(
                transfers.WORKLOADS["aio-secure"], 1, transfers.TINY, cycles=1
            )
            raise RuntimeError("abort")
    after = [vars(owner)[name] for owner, name in sites]
    assert all(now is then for now, then in zip(after, before))
    assert not any(inside is then for inside, then in zip(wrapped, before))
    assert len(recorder) > 0
    # By-name import sites are patched too, not just the defining module.
    assert {owner.__name__ for owner, name in sites if name == "robust_decode"} >= {
        "repro.core.integrity",
        "repro.core.flow_decoder",
        "repro.core.relay",
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_reproduces_digests_and_counts(workload):
    spec = transfers.WORKLOADS[workload]
    first = transfers.run_workload(spec, 7, transfers.TINY, cycles=2)
    second = transfers.run_workload(spec, 7, transfers.TINY, cycles=2)
    assert first.correct and second.correct
    assert first.digest() == second.digest()
    assert first.totals() == second.totals()
    assert first.delivered_ratio == second.delivered_ratio
    other = transfers.run_workload(spec, 8, transfers.TINY, cycles=2)
    assert other.digest() != first.digest()


def test_tail_is_the_highest_statistic_with_ten_samples_above():
    assert transfers.tail([float(value) for value in range(100)]) == (89.0, 90.0)
    assert transfers.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
