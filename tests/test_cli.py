"""End-to-end command-line checks.

Most cases drive ``mirrorchain.cli.main`` in process for speed; a few go
through ``python -m mirrorchain`` in a subprocess where the interpreter
boundary matters (thread-count environment handling, byte determinism).
"""

import errno
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from mirrorchain.chain import MIRROR_TIME, ChainSpec, chain_propagator
from mirrorchain.cli import build_parser, main
from mirrorchain.decompose import (
    DecompositionError,
    PeelTrace,
    closed_form,
    decompose,
    gate_fidelity,
    reconstruct,
)
from mirrorchain.pauli import PauliString, pauli_matrix

ENGINEERED_4 = [math.sqrt(i * (4 - i)) for i in range(1, 4)]
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_python(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.pop("MIRRORCHAIN_THREADS", None)
    # The child may run in another directory, where a relative path would not resolve.
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, full_env.get("PYTHONPATH")) if p
    )
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd,
    )


def run_module(*args, env=None, cwd=None):
    return run_python("-m", "mirrorchain", *args, env=env, cwd=cwd)


# ---------------------------------------------------------------- spectrum

def test_spectrum_engineered_report(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--engineered", "5", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "mirror condition satisfied" in text
    rec = load(out)
    assert rec["chain"]["n"] == 5
    assert rec["chain"]["engineered"] is True
    report = rec["report"]
    assert report["satisfied"] is True
    assert report["witnesses"] == [-1, -1, 0, 0, 1]
    assert report["global_phase"] == pytest.approx(0.0, abs=1e-9)


def test_spectrum_expect_mirror_exit_code(tmp_path):
    spec = write_json(
        tmp_path / "uniform.json",
        {"n": 3, "couplings": [1.0, 1.0], "fields": [0.0, 0.0, 0.0]},
    )
    out = tmp_path / "spectrum.json"
    # Reporting alone succeeds; the expectation flag turns the verdict
    # into the exit code.
    assert main(["spectrum", "--spec", spec, "-o", str(out)]) == 0
    assert load(out)["report"]["satisfied"] is False
    assert main(["spectrum", "--spec", spec, "--expect-mirror", "-o", str(out)]) == 1


def test_spectrum_honors_tau(tmp_path):
    # Doubling every coupling halves the inversion time.
    spec = write_json(
        tmp_path / "doubled.json",
        {"n": 4, "couplings": [2.0 * j for j in ENGINEERED_4], "fields": [0.0] * 4},
    )
    out = tmp_path / "spectrum.json"
    args = ["spectrum", "--spec", spec, "--expect-mirror", "-o", str(out)]
    assert main(args + ["--tau", repr(math.pi / 4.0)]) == 0
    assert load(out)["report"]["satisfied"] is True
    assert main(args) == 1


def test_spectrum_reports_the_minus_pi_tie_as_pi(tmp_path):
    spec = write_json(tmp_path / "one.json", {"n": 1, "couplings": [], "fields": [2.0]})
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--spec", spec, "-o", str(out)]) == 0
    assert load(out)["report"]["global_phase"] == math.pi


def test_spectrum_rejects_single_site(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--engineered", "1", "-o", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_quiet_flag_works_in_both_positions(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["-q", "spectrum", "--engineered", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    # The parser is shared between calls; a quiet call leaves the next one loud.
    assert main(["spectrum", "--engineered", "3", "-o", str(out)]) == 0
    assert "mirror condition satisfied" in capsys.readouterr().out
    assert main(["spectrum", "-q", "--engineered", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["spectrum", "--engineered", "3", "-o", str(out)]) == 0
    assert "mirror condition satisfied" in capsys.readouterr().out


# --------------------------------------------------------------- decompose

def test_decompose_engineered_two_sites(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert main(["decompose", "--engineered", "2", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "2 factors:" in text
    rec = load(out)
    factors = rec["decomposition"]["factors"]
    assert [f["word"] for f in factors] == ["XX", "YY"]
    for f in factors:
        assert f["angle"] == pytest.approx(math.pi / 4.0)
    assert rec["decomposition"]["global_phase"] == pytest.approx([1.0, 0.0])
    assert rec["reconstruction_fidelity"] >= 1.0 - 1e-9
    assert rec["source"]["tau"] == pytest.approx(math.pi / 2.0)
    assert len(rec["trace"]["steps"]) == 2


def test_decompose_closed_form_five_sites(tmp_path):
    out = tmp_path / "closed.json"
    assert main(["decompose", "--engineered", "5", "--closed-form", "-o", str(out)]) == 0
    rec = load(out)
    dec = rec["decomposition"]
    assert [f["word"] for f in dec["factors"]] == [
        "XZZZY", "YZZZX", "IXZYI", "IYZXI", "XYIYX",
    ]
    assert [f["angle"] for f in dec["factors"]] == pytest.approx(
        [-math.pi / 4.0] * 4 + [-math.pi / 2.0]
    )
    assert dec["global_phase"] == pytest.approx([0.0, 1.0])
    assert rec["trace"] is None
    assert rec["reconstruction_fidelity"] >= 1.0 - 1e-9
    U = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    assert rec["reconstruction_fidelity"] == gate_fidelity(reconstruct(closed_form(5)), U)


def test_decompose_closed_form_rejects_tau(tmp_path, capsys):
    out = tmp_path / "closed.json"
    rc = main([
        "decompose", "--engineered", "4", "--closed-form",
        "--tau", "1.0", "-o", str(out),
    ])
    assert rc == 2
    assert "tau" in capsys.readouterr().err


def test_decompose_closed_form_needs_engineered_couplings(tmp_path, capsys):
    spec = write_json(
        tmp_path / "uniform.json",
        {"n": 4, "couplings": [1.0, 1.0, 1.0], "fields": [0.0] * 4},
    )
    out = tmp_path / "closed.json"
    rc = main(["decompose", "--spec", spec, "--closed-form", "-o", str(out)])
    assert rc == 2
    assert "engineered" in capsys.readouterr().err


def test_decompose_unitary_file(tmp_path):
    theta = 0.3
    word = pauli_matrix(PauliString("XY"))
    U = math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * word
    path = tmp_path / "gate.npy"
    np.save(path, U)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 0
    rec = load(out)
    factors = rec["decomposition"]["factors"]
    assert [f["word"] for f in factors] == ["XY"]
    assert factors[0]["angle"] == pytest.approx(theta)
    assert rec["source"] == {"unitary": str(path)}


def test_decompose_says_when_the_fallback_ran(tmp_path, capsys):
    from test_decompose import FALLBACK_PRODUCT, rotation

    U = np.eye(32, dtype=complex)
    for word, angle in FALLBACK_PRODUCT:
        U = U @ rotation(word, angle)
    path = tmp_path / "fallback.npy"
    np.save(path, U)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("peel stalled at level")
    assert lines[0].endswith("; peeled on heaviest subgroups instead")
    assert "heaviest" not in out.read_text()


def peel_source(tmp_path, kind, n):
    """The CLI source flags for a peel job, and the matrix the peel is given."""
    if kind == "engineered":
        return ["--engineered", str(n)], chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
    if kind == "fallback":
        from test_decompose import FALLBACK_PRODUCT, rotation

        U = np.eye(1 << n, dtype=complex)
        for word, angle in FALLBACK_PRODUCT:
            U = U @ rotation(word, angle)
        path = tmp_path / "fallback.npy"
        np.save(path, U)
        return ["--unitary", str(path)], np.load(path)
    if kind == "uniform":
        path = os.path.join(REPO, "demos", "specs", f"uniform_{n}.json")
    else:
        rng = np.random.default_rng(n)
        path = write_json(tmp_path / "seeded.json", {
            "n": n,
            "couplings": rng.uniform(0.5, 1.5, n - 1).tolist(),
            "fields": rng.uniform(-0.5, 0.5, n).tolist(),
        })
    return ["--spec", path], chain_propagator(ChainSpec.load(path), MIRROR_TIME)


@pytest.mark.parametrize(
    "kind, n",
    [("engineered", n) for n in range(2, 9)]
    + [("uniform", 5), ("seeded", 4), ("seeded", 5), ("seeded", 6), ("fallback", 5)],
)
def test_decompose_reports_the_peel_fidelity(tmp_path, kind, n):
    # The report carries the overlap the peel checked, not a second dense rebuild;
    # d is a power of two, so the two agree to the bit.
    source, U = peel_source(tmp_path, kind, n)
    out = tmp_path / "dec.json"
    assert main(["-q", "decompose", *source, "-o", str(out)]) == 0
    dec, trace = decompose(U)
    fidelity = gate_fidelity(reconstruct(dec), U)
    assert trace.fidelity == fidelity
    assert load(out)["reconstruction_fidelity"] == fidelity


def test_decompose_refuses_an_oversized_chain_before_the_propagator(
    tmp_path, monkeypatch, capsys
):
    def propagator_not_allowed(*args):
        raise AssertionError("chain_propagator ran for a chain the peel refuses")

    monkeypatch.setattr("mirrorchain.chain.chain_propagator", propagator_not_allowed)
    spec = write_json(
        tmp_path / "uniform_9.json", {"n": 9, "couplings": [1.0] * 8, "fields": [0.0] * 9}
    )
    out = tmp_path / "dec.json"
    for source in (["--engineered", "9"], ["--spec", spec]):
        assert main(["decompose", *source, "-o", str(out)]) == 2
        assert "support scan beyond 8 sites is not supported" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_refuses_an_oversized_unitary_before_the_unitarity_check(tmp_path, capsys):
    # The site count comes from the shape, so a 9-site file is refused as
    # too large for the support scan, not after an O(d^3) product as non-unitary.
    path = tmp_path / "zeros_9.npy"
    np.save(path, np.zeros((512, 512)))
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 2
    assert "support scan beyond 8 sites is not supported" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_dense_unitary_round_trip(tmp_path):
    # A Haar-ish unitary is not a short product, but repeated peeling
    # still reassembles it exactly.
    rng = np.random.default_rng(61)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(M)
    path = tmp_path / "dense.npy"
    np.save(path, Q)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 0
    rec = load(out)
    assert rec["reconstruction_fidelity"] >= 1.0 - 1e-9
    assert len(rec["decomposition"]["factors"]) > 4


def test_decompose_unitary_rejects_closed_form(tmp_path, capsys):
    path = tmp_path / "gate.npy"
    np.save(path, np.eye(4, dtype=complex))
    rc = main(["decompose", "--unitary", str(path), "--closed-form",
               "-o", str(tmp_path / "dec.json")])
    assert rc == 2
    assert "chain" in capsys.readouterr().err


def test_decompose_unitary_rejects_tau(tmp_path, capsys):
    path = tmp_path / "gate.npy"
    np.save(path, np.eye(4, dtype=complex))
    out = tmp_path / "dec.json"
    rc = main(["decompose", "--unitary", str(path), "--tau", "0.3", "-o", str(out)])
    assert rc == 2
    assert "--tau" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_empty_unitary_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "gate.npy"
    path.write_bytes(b"")
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 2
    assert f"unitary file {str(path)!r}: " in capsys.readouterr().err
    assert not out.exists()


def test_decompose_npz_unitary_file_is_refused_and_closed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gate.npz"
    np.savez(path, U=np.eye(4, dtype=complex))
    loaded = []
    real_load = np.load

    def load(*args, **kwargs):
        loaded.append(real_load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(np, "load", load)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--unitary", str(path), "-o", str(out)]) == 2
    assert f"unitary file {str(path)!r}: " in capsys.readouterr().err
    assert not out.exists()
    assert loaded[0].fid is None  # NpzFile.close() drops its file handle


def test_decompose_failure_writes_partial_trace(tmp_path, monkeypatch, capsys):
    def stall(U, chain=None):
        raise DecompositionError("peel stalled at level 1", PeelTrace(()))

    monkeypatch.setattr("mirrorchain.decompose.decompose", stall)
    out = tmp_path / "dec.json"
    assert main(["decompose", "--engineered", "2", "-o", str(out)]) == 1
    assert "decomposition failed" in capsys.readouterr().out
    rec = load(out)
    assert sorted(rec.keys()) == ["error", "source", "trace"]
    assert "stalled" in rec["error"]
    assert rec["trace"] == {"steps": []}


def test_decompose_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json", encoding="utf-8")
    rc = main(["decompose", "--spec", str(bad), "-o", str(tmp_path / "dec.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_missing_source_is_usage_error(tmp_path, capsys):
    assert main(["decompose", "-o", str(tmp_path / "dec.json")]) == 2
    assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------------- transfer

def test_transfer_single_site_pure(tmp_path, capsys):
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--engineered", "5", "--site", "1", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert "sites (1) -> (5)" in text
    report = load(out)["report"]
    assert report["mode"] == "pure"
    assert report["fidelity"] >= 1.0 - 1e-9
    assert report["destination_sites"] == [5]
    assert report["bell_label"] is None


def test_transfer_bell_labels(tmp_path, capsys):
    out = tmp_path / "transfer.json"
    rc = main(["transfer", "--engineered", "5", "--bell", "1,2", "phi+", "-o", str(out)])
    assert rc == 0
    assert "output classified as phi-" in capsys.readouterr().out
    report = load(out)["report"]
    assert report["bell_label"] == "phi-"
    assert report["destination_sites"] == [4, 5]

    rc = main(["transfer", "--engineered", "5", "--bell", "1,2", "psi+",
               "--mode", "deviation", "-o", str(out)])
    assert rc == 0
    report = load(out)["report"]
    assert report["mode"] == "deviation"
    assert report["bell_label"] == "psi+"
    assert report["fidelity"] >= 1.0 - 1e-9


def test_transfer_threshold_exit_code(tmp_path):
    spec = write_json(
        tmp_path / "uniform.json",
        {"n": 5, "couplings": [1.0] * 4, "fields": [0.0] * 5},
    )
    out = tmp_path / "transfer.json"
    # A uniform chain misses the default near-unity bar but clears a lax one.
    assert main(["transfer", "--spec", spec, "--site", "1", "-o", str(out)]) == 1
    assert load(out)["report"]["fidelity"] < 0.99
    assert main(["transfer", "--spec", spec, "--site", "1",
                 "--min-fidelity", "0.1", "-o", str(out)]) == 0


def test_transfer_single_site_chain_deviation(tmp_path):
    # One site in a field: the mirror is the site itself, and the X
    # deviation precesses by h tau against the engineered reference.
    spec = write_json(tmp_path / "one.json", {"n": 1, "couplings": [], "fields": [0.3]})
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--spec", spec, "--site", "1", "--mode", "deviation",
                 "--min-fidelity", "0", "-o", str(out)]) == 0
    report = load(out)["report"]
    assert report["destination_sites"] == [1]
    assert report["fidelity"] == pytest.approx(math.cos(0.3 * math.pi / 2), abs=1e-12)


def test_transfer_beyond_the_dense_site_count(tmp_path, capsys):
    # transfer works from the N x N one-excitation propagator: no dense 2^N site cap
    out = tmp_path / "transfer.json"
    assert main(["-q", "transfer", "--engineered", "13", "--site", "1",
                 "--mode", "deviation", "-o", str(out)]) == 0
    assert load(out)["report"]["destination_sites"] == [13]
    assert main(["-q", "transfer", "--engineered", "200", "--bell", "1,2", "psi-",
                 "-o", str(out)]) == 0
    rec = load(out)["report"]
    assert rec["destination_sites"] == [199, 200]
    assert rec["bell_label"] == "psi-"
    assert len(rec["sector_phases"]["phases"]) == 201
    # a single-site deviation output of 2^(N-1) scale is no float past 1024 sites
    assert main(["-q", "transfer", "--engineered", "1025", "--site", "1",
                 "--mode", "deviation", "-o", str(out)]) == 2
    capsys.readouterr()
    # past the chain-length cap no N x N array is built
    for command in (["spectrum"], ["transfer", "--site", "1"]):
        assert main(["-q", *command, "--engineered", "2049", "-o", str(out)]) == 2
        assert "2049 sites exceeds the chain-length cap of 2048" in capsys.readouterr().err


def test_transfer_rejects_malformed_bell_pair(tmp_path, capsys):
    rc = main(["transfer", "--engineered", "5", "--bell", "1-2", "phi+",
               "-o", str(tmp_path / "t.json")])
    assert rc == 2
    assert "--bell pair" in capsys.readouterr().err


def test_transfer_rejects_out_of_range_site(tmp_path, capsys):
    rc = main(["transfer", "--engineered", "5", "--site", "7",
               "-o", str(tmp_path / "t.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- grape

ONE_SPIN = {
    "n": 1,
    "shifts_hz": [0.0],
    "couplings_hz": [[0.0]],
    "channels": [[1]],
    "weights": [1.0],
}
TWO_SPIN = {
    "n": 2,
    "shifts_hz": [0.0, 0.0],
    "couplings_hz": [[0.0, 10.0], [10.0, 0.0]],
    "channels": [[1], [2]],
    "weights": [1.0, 1.0],
}


def test_grape_identity_needs_no_iterations(tmp_path, capsys):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    out = tmp_path / "grape.json"
    csv = tmp_path / "pulse.csv"
    rc = main([
        "grape", "--system", system, "--target-gate", "identity",
        "--init", "zero", "--steps", "5", "--dt", "1e-4", "--amp-max", "100",
        "-o", str(out), "--pulse-csv", str(csv),
    ])
    assert rc == 0
    assert "after 0 iterations (converged)" in capsys.readouterr().out
    result = load(out)["result"]
    assert result["iterations"] == 0
    assert result["converged"] is True
    assert result["fidelity"] > 1.0 - 1e-12
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,channel,amp_x_hz,amp_y_hz"
    assert lines[1] == "0,0,0.0,0.0"
    assert len(lines) == 1 + 5  # header plus one row per step per channel


def test_grape_x_gate_pulse(tmp_path):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    out = tmp_path / "grape.json"
    csv = tmp_path / "pulse.csv"
    rc = main([
        "grape", "--system", system, "--target-gate", "X",
        "--steps", "20", "--dt", "1e-4", "--amp-max", "2000",
        "--stop-fidelity", "0.9999", "--seed", "1", "--rf-scales", "1.0",
        "-o", str(out), "--pulse-csv", str(csv),
    ])
    assert rc == 0
    result = load(out)["result"]
    assert result["fidelity"] >= 0.9999
    assert result["converged"] is True
    assert result["trajectory"] == sorted(result["trajectory"])
    assert len(csv.read_text(encoding="utf-8").splitlines()) == 1 + 20


def test_grape_decomposition_and_gate_targets_agree(tmp_path):
    system = write_json(tmp_path / "sys.json", TWO_SPIN)
    angle = math.pi / 4.0
    raw = {
        "n": 2,
        "global_phase": [1.0, 0.0],
        "factors": [{"word": "ZZ", "angle": angle}],
    }
    tuning = [
        "--steps", "25", "--dt", "0.002", "--amp-max", "500",
        "--seed", "2", "--stop-fidelity", "0.995",
    ]

    results = []
    for name, target in [
        ("raw.json", raw),
        ("wrapped.json", {"decomposition": raw, "source": "elsewhere"}),
    ]:
        dec = write_json(tmp_path / name, target)
        out = tmp_path / ("out_" + name)
        rc = main([
            "grape", "--system", system, "--target-decomposition", dec,
            *tuning, "-o", str(out), "--pulse-csv", str(tmp_path / "p.csv"),
        ])
        assert rc == 0
        results.append(load(out)["result"])

    out = tmp_path / "out_gate.json"
    rc = main([
        "grape", "--system", system, "--target-gate", f"ZZ:{angle!r}",
        *tuning, "-o", str(out), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 0
    results.append(load(out)["result"])

    assert all(r["fidelity"] >= 0.995 for r in results)
    assert results[0] == results[1] == results[2]


def test_grape_infeasible_exit_code(tmp_path):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    out = tmp_path / "grape.json"
    rc = main([
        "grape", "--system", system, "--target-gate", "X",
        "--steps", "1", "--dt", "1e-4", "--amp-max", "10",
        "--seed", "4", "--max-iterations", "60",
        "-o", str(out), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 1
    result = load(out)["result"]
    assert result["converged"] is False
    assert result["fidelity"] < 0.9


def test_grape_rejects_bad_scale_list(tmp_path, capsys):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    rc = main([
        "grape", "--system", system, "--target-gate", "X",
        "--rf-scales", "fast,slow",
        "-o", str(tmp_path / "g.json"), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


GRAPE_X = ["grape", "--system", "{system}", "--target-gate", "X", "--pulse-csv", "{csv}"]
GRAPE_DEC = ["grape", "--system", "{system}", "--pulse-csv", "{csv}"]


# Each case names its id, as pytest first derived it from the row position,
# so that a row inserted anywhere renames no other case.
@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(GRAPE_X + ["--dt", "nan"], "--dt", id="argv0---dt"),
        pytest.param(GRAPE_X + ["--stop-fidelity", "nan"], "--stop-fidelity",
                     id="argv1---stop-fidelity"),
        pytest.param(GRAPE_X + ["--min-fidelity", "inf"], "--min-fidelity",
                     id="argv2---min-fidelity"),
        pytest.param(GRAPE_X + ["--amp-max", "nan"], "--amp-max", id="argv3---amp-max"),
        pytest.param(GRAPE_X + ["--rf-scales", "1.0,nan"], "rf_scales", id="argv4-rf_scales"),
        pytest.param(GRAPE_X + ["--target-gate", "X:nan"], "angle", id="argv5-angle"),
        pytest.param(GRAPE_X + ["--system", "{nan_system}"], "shifts_hz", id="argv6-shifts_hz"),
        pytest.param(["transfer", "--engineered", "3", "--site", "1", "--min-fidelity", "nan"],
                     "--min-fidelity", id="argv7---min-fidelity"),
        pytest.param(["spectrum", "--engineered", "3", "--tau", "nan"], "--tau", id="argv8---tau"),
        pytest.param(["decompose", "--unitary", "{nan_unitary}"], "unitary", id="argv9-unitary"),
        pytest.param(GRAPE_X + ["--rf-scales", "0"], "rf_scales", id="argv10-rf_scales"),
        pytest.param(GRAPE_DEC + ["--target-decomposition", "{nan_angle}"], "angle",
                     id="argv11-angle"),
        pytest.param(GRAPE_DEC + ["--target-decomposition", "{inf_phase}"], "global_phase",
                     id="argv12-global_phase"),
        pytest.param(["decompose", "--unitary", "{scalar_unitary}"], "unitary",
                     id="argv13-unitary"),
        pytest.param(["decompose", "--unitary", "{empty_unitary}"], "unitary",
                     id="argv14-unitary"),
        pytest.param(["decompose", "--unitary", "{one_by_one_unitary}"], "unitary",
                     id="argv15-unitary"),
        pytest.param(["decompose", "--unitary", "{string_unitary}"], "unitary",
                     id="argv16-unitary"),
        pytest.param(["decompose", "--unitary", "{object_unitary}"], "unitary",
                     id="argv17-unitary"),
        pytest.param(GRAPE_X + ["--rf-scales", "1.0,abc"], "--rf-scales", id="argv18---rf-scales"),
        pytest.param(GRAPE_X + ["--target-gate", "X:abc"], "angle", id="argv19-angle"),
        pytest.param(GRAPE_X + ["--seed", "-1"], "--seed", id="argv20---seed"),
        pytest.param(["spectrum", "--engineered", "3", "--tau", "1e308"], "tau must be finite",
                     id="argv23-tau must be finite"),
        pytest.param(["decompose", "--engineered", "3", "--tau", "1e308"], "tau must be finite",
                     id="argv24-tau must be finite"),
    ],
)
def test_non_finite_inputs_are_usage_errors(tmp_path, capsys, argv, field):
    paths = {
        "system": write_json(tmp_path / "sys.json", ONE_SPIN),
        "nan_system": write_json(tmp_path / "nan.json", {**ONE_SPIN, "shifts_hz": [math.nan]}),
        "nan_unitary": str(tmp_path / "nan.npy"),
        "scalar_unitary": str(tmp_path / "scalar.npy"),
        "empty_unitary": str(tmp_path / "empty.npy"),
        "one_by_one_unitary": str(tmp_path / "one_by_one.npy"),
        "string_unitary": str(tmp_path / "string.npy"),
        "object_unitary": str(tmp_path / "object.npy"),
        "nan_angle": write_json(tmp_path / "nan_angle.json", {
            "n": 1, "global_phase": [1.0, 0.0], "factors": [{"word": "X", "angle": math.nan}]}),
        "inf_phase": write_json(tmp_path / "inf_phase.json", {
            "n": 1, "global_phase": [math.inf, 0.0], "factors": [{"word": "X", "angle": 0.5}]}),
        "csv": str(tmp_path / "p.csv"),
    }
    np.save(paths["nan_unitary"], np.full((4, 4), np.nan))
    np.save(paths["scalar_unitary"], np.array(1.0))
    np.save(paths["empty_unitary"], np.zeros((0, 0)))
    np.save(paths["one_by_one_unitary"], np.ones((1, 1)))
    np.save(paths["string_unitary"], np.array([["1", "0"], ["0", "1"]]))
    np.save(paths["object_unitary"], np.array([[1, None], [None, 1]]), allow_pickle=True)
    argv = [a.format(**paths) for a in argv] + ["-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "did not converge" not in err


@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param(5, "malformed decomposition record",
                     id="5-malformed decomposition record"),
        pytest.param(None, "malformed decomposition record",
                     id="None-malformed decomposition record"),
        pytest.param({"n": 1, "global_phase": [1.0, 0.0],
                      "factors": [{"word": 7, "angle": 0.5}]},
                     "factors[0].word", id="record2-factors[0].word"),
    ],
)
def test_grape_malformed_target_decomposition_is_a_usage_error(tmp_path, capsys, record, message):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    dec = write_json(tmp_path / "dec.json", record)
    rc = main([
        "grape", "--system", system, "--target-decomposition", dec,
        "-o", str(tmp_path / "g.json"), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{}"], ids=["text", "binary"])
@pytest.mark.parametrize("kind", ["spec", "system", "decomposition"])
def test_input_file_that_is_not_json_is_named(tmp_path, capsys, kind, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    grape = ["grape", "--pulse-csv", str(tmp_path / "p.csv")]
    argv = {
        "spec": ["spectrum", "--spec", str(path)],
        "system": [*grape, "--system", str(path), "--target-gate", "X"],
        "decomposition": [*grape, "--system", system, "--target-decomposition", str(path)],
    }[kind]
    assert main([*argv, "-o", str(tmp_path / "out.json")]) == 2
    assert f"file {str(path)!r} is not UTF-8 JSON: " in capsys.readouterr().err


BAD_RECORD_CASES = {
    "bad-letter": ("decomposition", {"n": 1, "global_phase": [1.0, 0.0],
                                     "factors": [{"word": "Q", "angle": 0.5}]},
                   "factors[0].word: invalid Pauli letters"),
    "short-phase": ("decomposition", {"n": 1, "global_phase": [1.0],
                                      "factors": [{"word": "X", "angle": 0.5}]},
                    "global_phase must be two numbers"),
    "factor-not-object": ("decomposition", {"n": 1, "global_phase": [1.0, 0.0], "factors": [5]},
                          "factors[0] must be an object"),
    "chain-array": ("spec", [1, 2], "chain record must be an object"),
    "system-array": ("system", [], "system record must be an object"),
    "factor-without-word": ("decomposition", {"n": 1, "global_phase": [1.0, 0.0], "factors": [
        {"word": "X", "angle": 0.1}, {"angle": 0.2}]}, "factors[1].word is missing"),
    "factor-without-angle": ("decomposition", {"n": 1, "global_phase": [1.0, 0.0],
                                               "factors": [{"word": "X"}]},
                             "factors[0].angle is missing"),
    "chain-without-n": ("spec", {"couplings": [1.0], "fields": [0.0, 0.0]}, "n is missing"),
    "system-without-n": ("system", {k: v for k, v in ONE_SPIN.items() if k != "n"},
                         "n is missing"),
    "decomposition-without-n": ("decomposition", {"global_phase": [1.0, 0.0], "factors": []},
                                "n is missing"),
    "chain-nan-coupling": ("spec", {"n": 2, "couplings": [math.nan], "fields": [0.0, 0.0]},
                           "couplings[0] must be finite"),
    "chain-past-cap": ("spec", {"n": 2049, "engineered": True},
                       "2049 sites exceeds the chain-length cap of 2048"),
}


@pytest.mark.parametrize("case", BAD_RECORD_CASES)
def test_record_errors_name_the_field(tmp_path, capsys, case):
    kind, record, message = BAD_RECORD_CASES[case]
    path = write_json(tmp_path / "record.json", record)
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    grape = ["grape", "--pulse-csv", str(tmp_path / "p.csv")]
    argv = {
        "decomposition": [*grape, "--system", system, "--target-decomposition", path],
        "spec": ["spectrum", "--spec", path],
        "system": [*grape, "--system", path, "--target-gate", "X"],
    }[kind]
    assert main([*argv, "-o", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err


def test_grape_rejects_word_size_mismatch(tmp_path, capsys):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    rc = main([
        "grape", "--system", system, "--target-gate", "XX",
        "-o", str(tmp_path / "g.json"), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 2
    assert "not 1 spins" in capsys.readouterr().err


def test_grape_rejects_decomposition_size_mismatch(tmp_path, capsys):
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    dec = write_json(
        tmp_path / "dec.json",
        {"n": 2, "global_phase": [1.0, 0.0],
         "factors": [{"word": "ZZ", "angle": 0.5}]},
    )
    rc = main([
        "grape", "--system", system, "--target-decomposition", dec,
        "-o", str(tmp_path / "g.json"), "--pulse-csv", str(tmp_path / "p.csv"),
    ])
    assert rc == 2
    assert "2 sites" in capsys.readouterr().err


# ------------------------------------------------------- subcommands

def test_selftest_is_not_a_subcommand(capsys):
    assert main(["selftest"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_docstring_lists_the_parser_subcommands():
    import argparse

    import mirrorchain.cli as cli

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = cli.__doc__.split("Subcommands\n-----------\n", 1)[1].split("\n\n", 1)[0]
    # A row starts at column 0; continuation lines are indented.
    listed = [line.split()[0] for line in table.splitlines() if line[:1].strip()]
    assert listed == list(sub.choices)


# ------------------------------------------------- repeated main() calls

@pytest.fixture
def parsers_built(monkeypatch):
    """Drop the cached parser and list the prog of every parser built after that."""
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    yield built
    build_parser.cache_clear()


def test_parser_is_built_once_across_calls(tmp_path, parsers_built, capsys):
    runs = [
        (["spectrum", "--engineered", "3", "-o", str(tmp_path / "s.json")], 0),
        (["decompose", "--engineered", "2", "-o", str(tmp_path / "d.json")], 0),
        (["decompose", "-o", str(tmp_path / "d.json")], 2),
        (["transfer", "--engineered", "3", "--site", "1", "-o", str(tmp_path / "t.json")], 0),
        (["spectrum", "--engineered", "4", "-o", str(tmp_path / "s.json")], 0),
    ]
    assert parsers_built == []
    assert main(runs[0][0]) == runs[0][1]
    first = list(parsers_built)
    for argv, code in runs[1:]:
        assert main(argv) == code
    assert parsers_built == first
    assert first.count("mirrorchain") == 1


def test_importing_the_cli_builds_no_parser():
    r = run_python(
        "-c", "import mirrorchain.cli as c; print(c.build_parser.cache_info().currsize)"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0"


def test_usage_error_leaves_the_next_call_intact(tmp_path, capsys):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    r = run_module("decompose", "--engineered", "3", "-o", "dec.json", cwd=str(fresh))
    assert r.returncode == 0, r.stderr
    out = tmp_path / "dec.json"
    assert main(["decompose", "-o", str(out)]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["decompose", "--engineered", "3", "-o", str(out)]) == 0
    assert out.read_bytes() == (fresh / "dec.json").read_bytes()


def test_help_exits_zero_and_later_calls_work(tmp_path, capsys):
    assert main(["-h"]) == 0
    assert main(["decompose", "-h"]) == 0
    assert "--closed-form" in capsys.readouterr().out
    assert main(["spectrum", "--engineered", "3", "-o", str(tmp_path / "s.json")]) == 0
    assert "mirror condition satisfied" in capsys.readouterr().out


def test_each_parse_gets_fresh_defaults():
    parser = build_parser()
    assert build_parser() is parser
    grape = ["grape", "--system", "sys.json", "--target-gate", "identity"]
    given = parser.parse_args([*grape, "--rf-scales", "1.0", "--min-fidelity", "0.5"])
    assert (given.rf_scales, given.min_fidelity) == ((1.0,), 0.5)
    first, second = parser.parse_args(grape), parser.parse_args(grape)
    assert first is not second
    for args in (first, second):
        # The string default is converted again on each parse.
        assert args.rf_scales == (0.95, 1.0, 1.05)
        assert args.min_fidelity == 0.99
    transfer = ["transfer", "--engineered", "3", "--site", "1"]
    assert parser.parse_args([*transfer, "--min-fidelity", "0.5"]).min_fidelity == 0.5
    assert parser.parse_args(transfer).min_fidelity == 1.0 - 1e-9


# ------------------------------------------------------- report format

def test_every_report_is_one_line_of_sorted_json(tmp_path):
    # one line of sorted-key JSON plus a newline, which json.loads round-trips
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    runs = {
        "spectrum": ["spectrum", "--engineered", "4"],
        "decompose": ["decompose", "--engineered", "3"],
        "transfer": ["transfer", "--engineered", "5", "--bell", "1,5", "phi+",
                     "--mode", "deviation"],
        "grape": ["grape", "--system", system, "--target-gate", "X", "--steps", "4",
                  "--max-iterations", "3", "--min-fidelity", "0",
                  "--pulse-csv", str(tmp_path / "p.csv")],
    }
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(["-q", *argv, "-o", str(out)]) == 0, name
        text = out.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n"), name
        assert json.dumps(json.loads(text), sort_keys=True) + "\n" == text, name


def output_argv(tmp_path, kind, path):
    """A run that writes `path`: a spectrum report, or a grape pulse CSV."""
    if kind == "report":
        return ["-q", "spectrum", "--engineered", "3", "-o", str(path)]
    system = write_json(tmp_path / "sys.json", ONE_SPIN)
    return ["-q", "grape", "--system", system, "--target-gate", "identity", "--init", "zero",
            "--steps", "5", "--dt", "1e-4", "--amp-max", "100",
            "-o", str(tmp_path / "grape.json"), "--pulse-csv", str(path)]


def fresh_output(tmp_path, kind):
    path = tmp_path / f"fresh-{kind}"
    assert main(output_argv(tmp_path, kind, path)) == 0
    return path.read_bytes()


@pytest.mark.parametrize("kind", ["report", "pulse-csv"])
def test_rerun_over_a_longer_or_shorter_file_leaves_exactly_the_new_bytes(tmp_path, kind):
    expected = fresh_output(tmp_path, kind)
    out = tmp_path / "out"
    for old in (b"x" * 10240, b"x" * 10):
        out.write_bytes(old)
        assert main(output_argv(tmp_path, kind, out)) == 0
        assert out.read_bytes() == expected


@pytest.mark.parametrize("kind", ["report", "pulse-csv"])
def test_output_through_a_symlink_writes_its_target_in_place(tmp_path, kind):
    expected = fresh_output(tmp_path, kind)
    target = tmp_path / "target"
    target.write_bytes(b"x" * 10240)
    target.chmod(0o640)
    inode = target.stat().st_ino
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main(output_argv(tmp_path, kind, link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == expected
    assert target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.parametrize("kind", ["report", "pulse-csv"])
def test_output_to_the_null_device(tmp_path, kind):
    # Not a regular file, so it is written but never truncated.
    assert main(output_argv(tmp_path, kind, os.devnull)) == 0


@pytest.mark.parametrize("kind", ["report", "pulse-csv"])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, kind, where):
    path, code = {
        "directory": (tmp_path, errno.EISDIR),
        "missing-directory": (tmp_path / "missing" / "out", errno.ENOENT),
    }[where]
    assert main(output_argv(tmp_path, kind, path)) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno {code}] {os.strerror(code)}: {str(path)!r}\n"


# -------------------------------------------------- module entry point

def test_module_entry_matches_the_in_process_call(tmp_path, capsys):
    child = tmp_path / "child"
    child.mkdir()
    r = run_module("-q", "spectrum", "--engineered", "3", "-o", "spectrum.json", cwd=str(child))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ""
    out = tmp_path / "spectrum.json"
    assert main(["-q", "spectrum", "--engineered", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (child / "spectrum.json").read_bytes()


def test_module_entry_outputs_are_byte_identical(tmp_path):
    paths = []
    for name in ("first", "second"):
        sub = tmp_path / name
        sub.mkdir()
        r = run_module("decompose", "--engineered", "4", "-o", "dec.json", cwd=str(sub))
        assert r.returncode == 0, r.stderr
        paths.append(sub / "dec.json")
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.endswith(b"\n")
    # The automatic chain is the only strategy; there is no flag to name it.
    assert main(["decompose", "--engineered", "4", "--auto-chain"]) == 2


def test_module_entry_fallback_peel_is_byte_identical(tmp_path):
    # The canonical tower stalls on this product, so the peel re-chooses
    # each child by weight; two interpreters must still agree byte for byte.
    from test_decompose import FALLBACK_PRODUCT, rotation

    U = np.eye(32, dtype=complex)
    for word, angle in FALLBACK_PRODUCT:
        U = U @ rotation(word, angle)
    path = tmp_path / "fallback.npy"
    np.save(path, U)
    outputs = []
    for name in ("first", "second"):
        sub = tmp_path / name
        sub.mkdir()
        r = run_module("decompose", "--unitary", str(path), "-o", "dec.json", cwd=str(sub))
        assert r.returncode == 0, r.stderr
        outputs.append((sub / "dec.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["decomposition"]["factors"]) == 7


def test_module_entry_grape_outputs_are_byte_identical(tmp_path):
    system = write_json(tmp_path / "sys.json", TWO_SPIN)
    outputs = []
    for name in ("first", "second"):
        sub = tmp_path / name
        sub.mkdir()
        r = run_module(
            "grape", "--system", system, "--target-gate", "ZZ:0.7",
            "--steps", "12", "--dt", "0.002", "--amp-max", "500",
            "--rf-scales", "0.95,1.0,1.05", "--seed", "9", "--max-iterations", "25",
            "--min-fidelity", "0", "-o", "grape.json", "--pulse-csv", "pulse.csv",
            cwd=str(sub),
        )
        assert r.returncode == 0, r.stderr
        outputs.append(((sub / "grape.json").read_bytes(), (sub / "pulse.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["result"]["iterations"] > 0


def test_thread_count_override(tmp_path):
    for bad in ("abc", "\u00b2", "\u0663"):  # a superscript two and an Arabic-Indic three
        r = run_module(
            "spectrum", "--engineered", "3", "-o", str(tmp_path / "s.json"),
            env={"MIRRORCHAIN_THREADS": bad},
        )
        assert r.returncode == 2, bad
        assert "MIRRORCHAIN_THREADS" in r.stderr

    r = run_module(
        "spectrum", "--engineered", "3", "-o", str(tmp_path / "s.json"),
        env={"MIRRORCHAIN_THREADS": "0"},
    )
    assert r.returncode == 2

    r = run_module(
        "spectrum", "--engineered", "3", "-o", str(tmp_path / "s.json"),
        env={"MIRRORCHAIN_THREADS": "2"},
    )
    assert r.returncode == 0, r.stderr


def test_unknown_subcommand_is_usage_error():
    r = run_module("mirror")
    assert r.returncode == 2
    assert "usage" in r.stderr
