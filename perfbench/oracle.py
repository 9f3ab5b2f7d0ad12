"""Per-job correctness checks for the benchmark.

The references here are built from numpy alone, independently of the
`mirrorchain` code under test, so that a faster layer cannot pass by
agreeing with itself.  The one exception is the GRAPE check, which by
design recomputes the reported fidelity from the written pulse with the
package's own `propagate` and `fidelity_hs`.

Conventions match the package: site 1 is the most significant qubit, the
'1' (sigma-z = +1) state is index 0 of a site, and a decomposition is
global_phase * prod_k exp(-i angle_k word_k) with factors[0] leftmost.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Minimum reconstruction fidelity of a decomposition (the CLI's own bar).
RECONSTRUCTION_MIN = 1.0 - 1e-9
#: Allowed gap between a reported and a recomputed fidelity.
RECOMPUTE_TOL = 1e-9
#: Allowed gap between a reported and an expected eigenvalue or matrix entry.
VALUE_TOL = 1e-6

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def word_matrix(word: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for letter in word:
        out = np.kron(out, _PAULI[letter])
    return out


def product_unitary(
    factors: list[tuple[str, float]], phase: complex = 1.0
) -> np.ndarray:
    """phase * prod_k exp(-i angle_k word_k), factors[0] leftmost."""
    d = 1 << len(factors[0][0])
    out = phase * np.eye(d, dtype=complex)
    for word, angle in factors:
        out = out @ (math.cos(angle) * np.eye(d) - 1j * math.sin(angle) * word_matrix(word))
    return out


def engineered_couplings(n: int) -> list[float]:
    """J_i = sqrt(i (N - i)), the perfect-transfer couplings."""
    return [math.sqrt(i * (n - i)) for i in range(1, n)]


def xy_propagator(couplings: list[float], fields: list[float], tau: float) -> np.ndarray:
    """exp(-i H tau) for H = sum J_i (XX + YY)/2 + sum h_i (Z + 1)/2."""
    n = len(fields)
    d = 1 << n
    H = np.zeros((d, d), dtype=complex)
    for i, J in enumerate(couplings):
        for letter in "XY":
            word = "I" * i + letter * 2 + "I" * (n - i - 2)
            H += 0.5 * J * word_matrix(word)
    for i, h in enumerate(fields):
        H += 0.5 * h * (word_matrix("I" * i + "Z" + "I" * (n - i - 1)) + np.eye(d))
    evals, evecs = np.linalg.eigh(H)
    return (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T


def overlap_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """|Tr(U^dag V)| / d."""
    return float(abs(np.trace(U.conj().T @ V))) / U.shape[0]


def engineered_transfer_output(n: int, bell: bool) -> np.ndarray:
    """Reduced output of the engineered chain at the mirror site(s).

    The k-excitation sector picks up p_k = a^k (-1)^(k(k-1)/2) with
    a = (-i)^(N-1) (Christandl et al., PRL 92, 187902), so relative to the
    vacuum the one-excitation amplitude gains a and the two-excitation
    amplitude gains -a^2 = (-1)^N.  Inputs are the CLI's: (|0> + |1>)/sqrt 2
    for a single site and phi+ for a pair.
    """
    a = (-1j) ** (n - 1)
    if bell:
        ket = np.array([(-1.0) ** n, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    else:
        ket = np.array([a, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.outer(ket, ket.conj())


def _matrix(entries: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _chain_target(target: dict, root: Path) -> np.ndarray:
    if "unitary" in target:
        return np.load(root / target["unitary"])
    if "engineered" in target:
        n = target["engineered"]
        return xy_propagator(engineered_couplings(n), [0.0] * n, math.pi / 2)
    chain = _load_json(root / target["chain"])
    return xy_propagator(chain["couplings"], chain["fields"], math.pi / 2)


def check_decompose(out: dict, params: dict, root: Path) -> list[str]:
    dec = out["decomposition"]
    factors = [(f["word"], float(f["angle"])) for f in dec["factors"]]
    phase = complex(*dec["global_phase"])
    U = _chain_target(params["target"], root)
    fidelity = overlap_fidelity(product_unitary(factors, phase), U)
    errors = []
    if not fidelity >= RECONSTRUCTION_MIN:
        errors.append(f"recomputed reconstruction fidelity {fidelity!r} < {RECONSTRUCTION_MIN!r}")
    reported = out["reconstruction_fidelity"]
    if reported is None or not abs(reported - fidelity) <= RECOMPUTE_TOL:
        errors.append(f"reported fidelity {reported!r} != recomputed {fidelity!r}")
    return errors


def check_spectrum(out: dict, params: dict, root: Path) -> list[str]:
    chain = _load_json(root / params["chain"]) if "chain" in params else None
    n = params.get("engineered") or chain["n"]
    couplings = engineered_couplings(n) if chain is None else chain["couplings"]
    fields = [0.0] * n if chain is None else chain["fields"]
    H1 = np.diag(fields) + np.diag(couplings, 1) + np.diag(couplings, -1)
    expected = np.linalg.eigvalsh(H1)
    report = out["report"]
    errors = []
    if report["satisfied"] is not params["satisfied"]:
        errors.append(f"verdict {report['satisfied']!r}, expected {params['satisfied']!r}")
    got = np.array(report["eigenvalues"])
    if got.shape != expected.shape or not np.abs(got - expected).max() <= VALUE_TOL:
        errors.append("eigenvalues differ from the reference spectrum")
    return errors


def check_transfer(out: dict, params: dict, root: Path) -> list[str]:
    report = out["report"]
    fidelity = report["fidelity"]
    errors = []
    if not (math.isfinite(fidelity) and params["min_fidelity"] <= fidelity <= 1.0 + VALUE_TOL):
        errors.append(f"fidelity {fidelity!r} outside [{params['min_fidelity']!r}, 1]")
    if "expected_output" in params:
        n, bell = params["expected_output"]
        expected = engineered_transfer_output(n, bell)
        got = _matrix(report["output_matrix"])
        if got.shape != expected.shape or not np.abs(got - expected).max() <= VALUE_TOL:
            errors.append("reduced output differs from the engineered-chain prediction")
    return errors


def _read_pulse_csv(path: Path, steps: int, channels: int) -> np.ndarray:
    amps = np.full((steps, channels, 2), np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    for t, c, x, y in rows[1:]:
        amps[int(t), int(c)] = (float(x), float(y))
    return amps


def check_grape(out: dict, params: dict, root: Path) -> list[str]:
    from mirrorchain import grape

    system = grape.NmrSystemSpec.load(str(root / params["system"]))
    if "gate" in params:
        word, angle = params["gate"]
        target = product_unitary([(word, angle)])
    else:
        dec = _load_json(root / params["decomposition"])
        factors = [(f["word"], float(f["angle"])) for f in dec["factors"]]
        target = product_unitary(factors, complex(*dec["global_phase"]))
    result = out["result"]
    amps = np.array(result["amplitudes"], dtype=float)
    errors = []
    written = _read_pulse_csv(root / params["pulse_csv"], *amps.shape[:2])
    if not np.array_equal(written, amps):
        errors.append("pulse CSV and JSON amplitudes differ")
    fidelities = [
        grape.fidelity_hs(target, grape.propagate(system, grape.PulseSequence(result["dt"], s * written)))
        for s in params["rf_scales"]
    ]
    recomputed = sum(fidelities) / len(fidelities)
    if not abs(recomputed - result["fidelity"]) <= RECOMPUTE_TOL:
        errors.append(f"reported fidelity {result['fidelity']!r} != recomputed {recomputed!r}")
    return errors


CHECKS = {
    "decompose": check_decompose,
    "spectrum": check_spectrum,
    "transfer": check_transfer,
    "grape": check_grape,
}


def check(kind: str, params: dict, output: Path, root: Path) -> list[str]:
    """Errors found in one job's JSON output; an empty list means it passed."""
    try:
        return CHECKS[kind](_load_json(output), params, root)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
