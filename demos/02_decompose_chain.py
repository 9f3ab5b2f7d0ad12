"""Factoring a mirror propagator into Pauli-word exponentials.

The mirror gate of an engineered chain lies inside a small commuting
algebra, so it splits into exactly N factors exp(-i theta_k W_k) with
theta_k = +-pi/4 (plus one +-pi/2 closer for odd N).  The factors come
out two ways: a closed form written down directly from N, and a
recursive peel that works on the raw matrix.  The peel halves a subgroup
of Pauli words at each level and strips one factor per level, growing
the identity-aligned residual norm to 1.
"""

import numpy as np

from mirrorchain.chain import MIRROR_TIME, ChainSpec, chain_propagator
from mirrorchain.decompose import closed_form, decompose, gate_fidelity, reconstruct


def show(dec, title):
    print(title)
    phase = dec.global_phase
    print(f"  global phase {phase:+.3f}")
    for word, angle in dec.factors:
        print(f"  exp(-i * {angle:+.6f} * {word})")


def main():
    # Closed form, straight from the site count.
    for n in (2, 5):
        show(closed_form(n), f"closed form, {n} sites")
        print()

    # The peel, starting from nothing but the matrix.
    n = 4
    U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
    dec, trace = decompose(U)
    show(dec, f"peeled from the dense {n}-site propagator")
    print(f"  reconstruction fidelity {gate_fidelity(reconstruct(dec), U):.12f}")
    print()

    print("peel trace (residual norm grows to 1 as factors come off):")
    print("  level  word  angle      norm before -> after")
    for s in trace.steps:
        print(
            f"  {s.level:>5}  {s.word}  {s.angle:+.6f}  "
            f"{s.norm_before:.6f} -> {s.norm_after:.6f}"
        )
    print()

    # The same machinery swallows matrices that are not short products;
    # it just needs more passes and more factors.
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(M)
    dec, _ = decompose(Q)
    fid = gate_fidelity(reconstruct(dec), Q)
    print(
        f"a Haar-ish 2-site unitary peels into {len(dec.factors)} factors "
        f"at fidelity {fid:.12f}"
    )


if __name__ == "__main__":
    main()
