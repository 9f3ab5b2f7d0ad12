"""Seeded inputs and fixed job lists of the three benchmark workloads.

Every job is one `mirrorchain` CLI call, `mirrorchain.cli.main(argv)`, on
files written here from the workload seed; the program sees only those
files.  README.md gives the reason for each workload and each job.  In
short: `synth` loads `pauli` and `decompose`, `mirror-transfer` loads
`chain`, `states` and `transfer` on dense 2^N arrays, and `pulse` loads
`grape`.

The three main pulse jobs are capped at 60 iterations because time to solution
varies with the GRAPE seed: on seeds 0..11 the plain job reached
F >= 0.995 after 57 iterations on one seed and missed it within 200 on
seven.  Capped, the seed moves the work by a few percent, not threefold.

The seeded synth inputs are XY-chain propagators at the mirror time, not
random Pauli products.  The greedy peel reaches only some unitaries (it
raises `DecompositionError` when every descent stalls), and it stalled on
about 0.3% of random 4-factor and 2-3% of random 5- and 6-factor products at
N = 6, so such a job has no exit code known in advance.  Seeded chains
peeled to the same factor count every time (12 at N = 4, 20 at N = 5), and
the peel decomposed every one of several thousand of them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import engineered_couplings, xy_propagator

#: The 3-spin weak-coupling system of the package's GRAPE demo.
NMR_THREE_SPIN = {
    "n": 3,
    "shifts_hz": [150.0, -80.0, 220.0],
    "couplings_hz": [[0.0, 45.0, 18.0], [45.0, 0.0, 60.0], [18.0, 60.0, 0.0]],
    "channels": [[1], [2], [3]],
    "weights": [1.0, 1.0, 1.0],
}

#: Closed-form product of the engineered 3-site chain at the mirror time.
MIRROR_GATE_3 = {
    "n": 3,
    "global_phase": [0.0, -1.0],
    "factors": [
        {"word": "XZY", "angle": math.pi / 4},
        {"word": "YZX", "angle": math.pi / 4},
        {"word": "XIX", "angle": math.pi / 2},
    ],
}

#: Small seeded chains per synth pass.  Their many short scans and peels
#: hold the middle of the job-time distribution, so job_p50_s measures
#: per-call cost over many seeded inputs rather than one job's luck.
SMALL_CHAINS = 16
#: Seeded 5-site chains per synth pass: peel-bound, 20 factors each.
LARGE_CHAINS = 2
#: Couplings of the seeded synth chains are drawn uniformly from this range.
COUPLING_RANGE = (0.5, 1.5)
PERTURBATION = 0.05
MIN_FIDELITY = 0.999999
GRAPE_CAP = "60"
#: Short seeded compiles per pulse pass; like SMALL_CHAINS, they hold the
#: middle of the job-time distribution for job_p50_s.
SHORT_COMPILES = 8
SHORT_CAP = "8"


@dataclass(frozen=True, eq=False)
class Job:
    """One CLI call, the exit code it must return and how to check its output."""

    name: str
    argv: tuple[str, ...]
    expect_exit: int
    check: str
    params: dict
    outputs: tuple[str, ...]


class _Builder:
    def __init__(self, inputs: Path, outputs: Path) -> None:
        self.inputs = inputs
        self.outputs = outputs
        self.jobs: list[Job] = []
        self.files: list[Path] = []

    def write_json(self, name: str, payload: dict) -> str:
        path = self.inputs / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        self.files.append(path)
        return str(path)

    def write_npy(self, name: str, array: np.ndarray) -> str:
        path = self.inputs / name
        np.save(path, array)
        self.files.append(path)
        return str(path)

    def add(self, name: str, argv: list[str], check: str, params: dict, expect_exit: int = 0) -> None:
        out = str(self.outputs / f"{name}.json")
        outputs = [out]
        argv = ["-q", *argv, "-o", out]
        if argv[1] == "grape":
            csv_path = str(self.outputs / f"{name}.csv")
            argv += ["--pulse-csv", csv_path]
            outputs.append(csv_path)
            params = {**params, "pulse_csv": csv_path}
        self.jobs.append(Job(name, tuple(argv), expect_exit, check, params, tuple(outputs)))


def _random_chain(rng: np.random.Generator, n: int) -> dict:
    """An XY chain with seeded couplings and no fields."""
    couplings = rng.uniform(*COUPLING_RANGE, n - 1)
    return {"n": n, "couplings": [float(J) for J in couplings], "fields": [0.0] * n}


def _perturbed_chain(rng: np.random.Generator, n: int) -> dict:
    """Engineered couplings times (1 + 0.05 g), kept palindromic."""
    base = engineered_couplings(n)
    g = rng.standard_normal(n // 2)
    scale = [1.0 + PERTURBATION * g[min(i, n - 2 - i)] for i in range(n - 1)]
    return {"n": n, "couplings": [J * s for J, s in zip(base, scale)], "fields": [0.0] * n}


def _synth(b: _Builder, rng: np.random.Generator) -> None:
    for n in range(4, 9):
        b.add(f"engineered-{n}", ["decompose", "--engineered", str(n)], "decompose",
              {"target": {"engineered": n}})
    uniform = b.write_json("uniform_5.json", {"n": 5, "couplings": [1.0] * 4, "fields": [0.0] * 5})
    b.add("uniform-5", ["decompose", "--spec", uniform], "decompose", {"target": {"chain": uniform}})
    for i in range(LARGE_CHAINS):
        path = b.write_json(f"chain_5_{i}.json", _random_chain(rng, 5))
        b.add(f"chain-5-{i}", ["decompose", "--spec", path], "decompose", {"target": {"chain": path}})
    for i in range(SMALL_CHAINS):
        chain = _random_chain(rng, 4)
        U = xy_propagator(chain["couplings"], chain["fields"], math.pi / 2)
        path = b.write_npy(f"unitary_4_{i}.npy", U)
        b.add(f"unitary-4-{i}", ["decompose", "--unitary", path], "decompose",
              {"target": {"unitary": path}})
    for n in range(5, 9):
        b.add(f"closed-form-{n}", ["decompose", "--engineered", str(n), "--closed-form"],
              "decompose", {"target": {"engineered": n}})


def _mirror_transfer(b: _Builder, rng: np.random.Generator) -> None:
    for n in range(6, 11):
        b.add(f"spectrum-{n}", ["spectrum", "--engineered", str(n), "--expect-mirror"],
              "spectrum", {"engineered": n, "satisfied": True})
    perturbed = {}
    for n in range(6, 11):
        perturbed[n] = b.write_json(f"perturbed_{n}.json", _perturbed_chain(rng, n))
        b.add(f"spectrum-perturbed-{n}", ["spectrum", "--spec", perturbed[n], "--expect-mirror"],
              "spectrum", {"chain": perturbed[n], "satisfied": False}, expect_exit=1)
    for n in (8, 9, 10):
        for what, source in (("site", ["--site", "1"]), ("bell", ["--bell", "1,2", "phi+"])):
            for mode in ("pure", "deviation"):
                params = {"min_fidelity": MIN_FIDELITY}
                if mode == "pure" or what == "bell":
                    params["expected_output"] = (n, what == "bell")
                b.add(f"transfer-{what}-{mode}-{n}",
                      ["transfer", "--engineered", str(n), *source, "--mode", mode,
                       "--min-fidelity", repr(MIN_FIDELITY)], "transfer", params)
    b.add("transfer-perturbed-9",
          ["transfer", "--spec", perturbed[9], "--site", "1", "--mode", "deviation",
           "--min-fidelity", "0"], "transfer", {"min_fidelity": 0.0})


def _pulse(b: _Builder, rng: np.random.Generator) -> None:
    system = b.write_json("nmr_three_spin.json", NMR_THREE_SPIN)
    mirror = b.write_json("mirror_gate_3.json", MIRROR_GATE_3)
    seeds = iter(str(s) for s in rng.integers(0, 2**31 - 1, 3 + SHORT_COMPILES))
    gate = {"system": system, "gate": ("YXZ", 0.47), "rf_scales": [1.0]}

    def grape(cap: str, target: list[str], scales: str = "1.0") -> list[str]:
        return ["grape", "--system", system, "--steps", "50", "--max-iterations", cap,
                "--min-fidelity", "0", *target, "--rf-scales", scales, "--seed", next(seeds)]

    to_gate = ["--target-gate", "YXZ:0.47", "--stop-fidelity", "0.995"]
    b.add("grape-gate", grape(GRAPE_CAP, to_gate), "grape", gate)
    b.add("grape-gate-robust", grape(GRAPE_CAP, to_gate, "0.95,1.0,1.05"), "grape",
          {**gate, "rf_scales": [0.95, 1.0, 1.05]})
    b.add("grape-mirror-3",
          grape(GRAPE_CAP, ["--target-decomposition", mirror, "--stop-fidelity", "0.999"]),
          "grape", {"system": system, "decomposition": mirror, "rf_scales": [1.0]})
    for i in range(SHORT_COMPILES):
        b.add(f"grape-short-{i}", grape(SHORT_CAP, to_gate), "grape", gate)


_GENERATORS = {"synth": _synth, "mirror-transfer": _mirror_transfer, "pulse": _pulse}


def build(workload: str, seed: int, inputs: Path, outputs: Path) -> tuple[list[Job], dict]:
    """Write the workload's inputs for `seed`; return its jobs and an input manifest.

    The manifest's digest covers the input files and every job's argv, so
    it also pins the GRAPE seeds; it does not depend on where the files go.
    Paths are as the jobs see them.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    b = _Builder(inputs, outputs)
    _GENERATORS[workload](b, np.random.default_rng(seed))
    digest = hashlib.sha256()
    for path in sorted(b.files):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    for job in b.jobs:
        argv = "\0".join(job.argv).replace(str(inputs), "inputs").replace(str(outputs), "outputs")
        digest.update(argv.encode() + b"\n")
    manifest = {
        "seed": seed,
        "inputs": sorted(str(p) for p in b.files),
        "input_digest": digest.hexdigest(),
        "argv": [list(job.argv) for job in b.jobs],
    }
    return b.jobs, manifest
