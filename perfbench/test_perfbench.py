"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py

They check the self-time arithmetic, the tracer's wrapper installation, the
fixed benchmark inputs and the oracle's rejection of corrupted outputs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mirrorchain import cli  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    # Children [1, 4] and [3, 6] cover [1, 6]; a child reaching past its
    # parent is clipped to the parent's interval.
    assert tracing.self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])[0] == 5.0
    assert tracing.self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])[0] == 8.0


def test_tracer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    root = tracer.open("root")
    outer(10_000)
    tracer.close(root)
    summary = tracer.summary()
    assert summary["inner.calls"] == 2 and summary["outer.calls"] == 1
    assert summary["trace.min_self_s"] >= 0.0
    assert math.isclose(summary["trace.self_sum_s"], summary["trace.root_sum_s"], rel_tol=1e-9)


def test_tracer_counts_failures_and_keeps_the_stack():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    tracer.close(tracer.open("after"))
    assert tracer.counters["boom.failed"] == 1
    assert tracer.parents == [-1, -1]


def test_install_reaches_names_bound_by_from_imports():
    from mirrorchain import chain, transfer

    original = chain.chain_propagator
    assert transfer.chain_propagator is original
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert transfer.chain_propagator is chain.chain_propagator is not original
        transfer.transfer_single(3, 1, np.array([1.0, 0.0]))
    finally:
        restore()
    assert transfer.chain_propagator is chain.chain_propagator is original
    metrics = tracing.layer_metrics(tracer.summary())
    assert metrics["chain.chain_propagator.calls"] == 1
    assert metrics["transfer.transfer_single.calls"] == 1
    assert metrics["numpy.eigh.calls"] == 1
    assert metrics["numpy.eigh.d3_sum"] == 8**3


def test_mirror_gate_input_is_the_engineered_three_site_propagator():
    dec = workloads.MIRROR_GATE_3
    factors = [(f["word"], f["angle"]) for f in dec["factors"]]
    U = oracle.product_unitary(factors, complex(*dec["global_phase"]))
    V = oracle.xy_propagator(oracle.engineered_couplings(3), [0.0] * 3, math.pi / 2)
    assert np.abs(U - V).max() < 1e-12


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = []
    for name in ("a", "b"):
        _, manifest = workloads.build("synth", 7, Path(name, "in"), Path(name, "out"))
        digests.append(manifest["input_digest"])
    _, other = workloads.build("synth", 8, Path("c", "in"), Path("c", "out"))
    assert digests[0] == digests[1] != other["input_digest"]


def test_oracle_rejects_a_flipped_factor_angle(tmp_path):
    out = tmp_path / "dec.json"
    assert cli.main(["-q", "decompose", "--engineered", "4", "-o", str(out)]) == 0
    params = {"target": {"engineered": 4}}
    assert oracle.check("decompose", params, out, tmp_path) == []

    record = json.loads(out.read_text())
    record["decomposition"]["factors"][0]["angle"] *= -1.0
    out.write_text(json.dumps(record))
    errors = oracle.check("decompose", params, out, tmp_path)
    assert any("recomputed reconstruction fidelity" in e for e in errors)


def test_oracle_rejects_a_pulse_that_does_not_match_its_fidelity(tmp_path):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(workloads.NMR_THREE_SPIN))
    out, pulse = tmp_path / "grape.json", tmp_path / "pulse.csv"
    argv = ["-q", "grape", "--system", str(system), "--target-gate", "YXZ:0.47", "--steps", "5",
            "--max-iterations", "3", "--rf-scales", "1.0", "--min-fidelity", "0",
            "--pulse-csv", str(pulse), "-o", str(out)]
    assert cli.main(argv) == 0
    params = {"system": str(system), "gate": ("YXZ", 0.47), "rf_scales": [1.0],
              "pulse_csv": str(pulse)}
    assert oracle.check("grape", params, out, tmp_path) == []

    record = json.loads(out.read_text())
    record["result"]["fidelity"] += 1e-6
    out.write_text(json.dumps(record))
    assert oracle.check("grape", params, out, tmp_path)


def test_oracle_rejects_a_wrong_spectrum_verdict(tmp_path):
    out = tmp_path / "spectrum.json"
    assert cli.main(["-q", "spectrum", "--engineered", "6", "-o", str(out)]) == 0
    assert oracle.check("spectrum", {"engineered": 6, "satisfied": True}, out, tmp_path) == []
    assert oracle.check("spectrum", {"engineered": 6, "satisfied": False}, out, tmp_path)


def test_engineered_transfer_prediction_matches_the_cli(tmp_path):
    for n, source in ((5, ["--site", "1"]), (6, ["--bell", "1,2", "phi+"])):
        out = tmp_path / f"transfer{n}.json"
        assert cli.main(["-q", "transfer", "--engineered", str(n), *source, "-o", str(out)]) == 0
        params = {"min_fidelity": 0.999999, "expected_output": (n, source[0] == "--bell")}
        assert oracle.check("transfer", params, out, tmp_path) == []
