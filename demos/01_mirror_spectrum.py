"""Why the engineered chain inverts itself.

An XY chain with couplings J_i = sqrt(i (N - i)) has a single-excitation
spectrum that is an exact integer ladder: -(N-1), -(N-3), ..., N-1.  At
t = pi/2 every eigenphase realigns so that the full propagator maps each
site onto its mirror image N+1-i.  A uniform chain has no such ladder and
disperses instead.  This script prints both stories side by side.
"""

import numpy as np

from mirrorchain.chain import (
    MIRROR_TIME,
    ChainSpec,
    chain_propagator,
    check_mirror_condition,
    single_excitation_matrix,
)
from mirrorchain.states import basis_index, bit_label

for n in (4, 5, 8):
    spec = ChainSpec.engineered(n)
    print(f"engineered chain, {n} sites")
    print("  couplings:", np.array2string(np.array(spec.couplings), precision=4))
    evals = np.sort(np.linalg.eigvalsh(single_excitation_matrix(spec)))
    print("  one-excitation eigenvalues:", np.array2string(evals, precision=4))
    report = check_mirror_condition(spec, MIRROR_TIME)
    print(f"  mirror condition satisfied: {report.satisfied}")
    print(f"  parities along the ladder:  {list(report.parities)}")
    print(f"  winding numbers:            {list(report.witnesses)}")
    print(f"  global phase:               {report.global_phase:+.6f} rad")
    print()

# The propagator itself shows the inversion: column j of U is the mirror
# basis state, up to a phase that depends only on the excitation count.
n = 5
U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
print("engineered 5-site propagator, selected columns:")
for label in ("10000", "11000", "01100"):
    col = U[:, basis_index(label)]
    k = int(np.argmax(np.abs(col)))
    out = bit_label(k, n)
    print(f"  |{label}> -> {col[k]:+.3f} |{out}>")
print()

# A uniform chain misses the ladder, so no time makes it a mirror.
uniform = ChainSpec((1.0,) * (n - 1), (0.0,) * n)
evals = np.sort(np.linalg.eigvalsh(single_excitation_matrix(uniform)))
report = check_mirror_condition(uniform, MIRROR_TIME)
print(f"uniform chain, {n} sites")
print("  one-excitation eigenvalues:", np.array2string(evals, precision=4))
print(f"  mirror condition satisfied: {report.satisfied}")
