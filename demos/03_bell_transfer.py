"""Sending entanglement through the engineered chain.

Mirror inversion moves whatever sits on sites (i, j) to the mirror pair
(N+1-j, N+1-i) in one shot, no swap network.  The per-excitation-sector
phases twist two-qubit states on the way: on five sites a phi+ pair
lands as phi-, while psi+ comes through untouched.  Both the pure-state
picture and the deviation-operator picture (traceless operators on a
maximally mixed background, the natural ensemble description) agree.
"""

import numpy as np

from mirrorchain.chain import ChainSpec
from mirrorchain.transfer import BELL_KINDS, transfer_entangled, transfer_single

N = 5

# Every transfer report carries the sector phases, read from the N x N
# one-excitation propagator; no 2^N matrix is built.
print(f"sector phases of the {N}-site mirror gate (one per excitation count):")
table = transfer_entangled(N, (1, 2), BELL_KINDS[0]).sector_phases
for k, phase in enumerate(table.phases):
    print(f"  {k} excitations: {phase:+.3f}")
print()

print(f"Bell pairs sent from sites (1,2) to ({N - 1},{N}):")
for mode in ("pure", "deviation"):
    print(f"  {mode} mode:")
    for kind in BELL_KINDS:
        rep = transfer_entangled(N, (1, 2), kind, mode=mode)
        print(
            f"    {kind:<4} -> {rep.bell_label:<4}  "
            f"fidelity {rep.fidelity:.12f}"
        )
print()

# Single qubits ride the same inversion; a superposition picks up the
# sector phase difference, realized here as a Z flip on the way out.
plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
print("single-qubit |+> sent from each site:")
for site in range(1, N + 1):
    rep = transfer_single(N, site, plus)
    print(
        f"  site {site} -> {rep.destination_sites[0]}: "
        f"fidelity {rep.fidelity:.12f}"
    )
print()

# Compare against a uniform chain: dispersion wrecks the handoff.
uniform = ChainSpec((1.0,) * (N - 1), (0.0,) * N)
rep = transfer_single(N, 1, plus, spec=uniform)
print(f"uniform chain, |+> from site 1: fidelity {rep.fidelity:.6f}")
