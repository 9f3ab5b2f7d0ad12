"""State conventions, embeddings, and reduced density matrices.

Site 1 occupies the most significant qubit slot of every kron product, and
the computational label '1' denotes the sigma-z = +1 eigenstate.  So the
basis index of a bit string b_1 ... b_n is sum_i (1 - b_i) * 2^(n-i): the
all-ones label sits at index 0 and the all-zeros label at index 2^n - 1.

Density matrices come in three flavors, tagged on :class:`QuantumState`:
"pure" (a ket), "mixed" (a unit-trace PSD matrix), and "deviation" (the
traceless high-temperature deviation from the maximally mixed background,
as prepared in liquid-state magnetic resonance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KET_ONE",
    "KET_ZERO",
    "basis_index",
    "basis_ket",
    "bit_label",
    "excitation_numbers",
    "mirror_permutation",
    "bell_state",
    "BELL_KINDS",
    "single_qubit_state",
    "embed_at",
    "embed_operator",
    "partial_trace",
    "QuantumState",
]

#: sigma-z = +1 eigenstate, written '1'.
KET_ONE = np.array([1.0, 0.0], dtype=complex)
#: sigma-z = -1 eigenstate, written '0'.
KET_ZERO = np.array([0.0, 1.0], dtype=complex)

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def basis_index(bits: str) -> int:
    """Index of the product ket labeled by `bits` (site 1 first)."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"bit label must be nonempty over 0/1, got {bits!r}")
    n = len(bits)
    return sum((1 - int(b)) << (n - 1 - i) for i, b in enumerate(bits))


def bit_label(index: int, n_sites: int) -> str:
    """Inverse of :func:`basis_index`."""
    if not 0 <= index < (1 << n_sites):
        raise ValueError(f"index {index} out of range for {n_sites} sites")
    return "".join(
        "1" if not (index >> (n_sites - 1 - i)) & 1 else "0" for i in range(n_sites)
    )


def basis_ket(bits: str) -> np.ndarray:
    ket = np.zeros(1 << len(bits), dtype=complex)
    ket[basis_index(bits)] = 1.0
    return ket


def excitation_numbers(n_sites: int) -> np.ndarray:
    """k[j] = number of '1' sites in the label of basis index j."""
    j = np.arange(1 << n_sites)
    return n_sites - sum((j >> b) & 1 for b in range(n_sites))


def mirror_permutation(n_sites: int) -> np.ndarray:
    """perm[j] = index whose bit label is the site-reversal of label j.

    Site i sits at bit N-i of the index, so reversing the sites reverses
    the bits of the index.
    """
    j = np.arange(1 << n_sites, dtype=np.int64)
    return sum(((j >> b) & 1) << (n_sites - 1 - b) for b in range(n_sites))


def single_qubit_state(a0: complex, a1: complex) -> np.ndarray:
    """Ket a0|0> + a1|1>, normalized; rejects the zero vector."""
    ket = a0 * KET_ZERO + a1 * KET_ONE
    norm = np.linalg.norm(ket)
    if norm < 1e-12:
        raise ValueError("zero amplitude pair")
    return ket / norm


def bell_state(kind: str) -> np.ndarray:
    """Two-site Bell ket; kind in {'phi+', 'phi-', 'psi+', 'psi-'}."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {kind!r}; expected one of {BELL_KINDS}")
    s = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        ket = basis_ket("00") + s * basis_ket("11")
    else:
        ket = basis_ket("01") + s * basis_ket("10")
    return ket / np.sqrt(2.0)


def embed_at(local: np.ndarray, sites: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Place a ket on the given (1-based, distinct, ascending) sites,
    filling every other site with |0>; the sites may be adjacent.

    The local ket's qubit order follows the `sites` tuple.
    """
    k = len(sites)
    if local.shape != (1 << k,):
        raise ValueError(f"local ket of dim {local.shape} does not cover {k} sites")
    if sorted(set(sites)) != list(sites) or not all(1 <= s <= n_sites for s in sites):
        raise ValueError(f"sites {sites!r} must be distinct, ascending, within 1..{n_sites}")
    full = np.zeros(1 << n_sites, dtype=complex)
    rest = [s for s in range(1, n_sites + 1) if s not in sites]
    for local_idx in range(1 << k):
        amp = local[local_idx]
        if amp == 0.0:
            continue
        local_bits = bit_label(local_idx, k)
        bits = [""] * n_sites
        for pos, s in enumerate(sites):
            bits[s - 1] = local_bits[pos]
        for s in rest:
            bits[s - 1] = "0"
        full[basis_index("".join(bits))] = amp
    return full


def embed_operator(
    local: np.ndarray, sites: tuple[int, ...], n_sites: int
) -> np.ndarray:
    """Lift an operator on the given (1-based, ascending) sites to the full
    register, acting as identity elsewhere."""
    k = len(sites)
    dk = 1 << k
    if local.shape != (dk, dk):
        raise ValueError(f"local operator shape {local.shape} does not cover {k} sites")
    if sorted(set(sites)) != list(sites) or not all(1 <= s <= n_sites for s in sites):
        raise ValueError(f"sites {sites!r} must be distinct, ascending, within 1..{n_sites}")
    rest = [s for s in range(1, n_sites + 1) if s not in sites]
    tensor = np.kron(local, np.eye(1 << len(rest))).reshape((2,) * (2 * n_sites))
    # Current row axes carry sites in the order (sites..., rest...); map
    # each chain site to its current axis, then reorder to 1..n.
    current = list(sites) + rest
    row_perm = [current.index(s) for s in range(1, n_sites + 1)]
    perm = row_perm + [n_sites + p for p in row_perm]
    d = 1 << n_sites
    return tensor.transpose(perm).reshape((d, d))


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Reduced matrix on the (1-based, ascending) `keep` sites.

    `rho` is a density matrix, or a ket psi standing for |psi><psi|; a ket
    is reduced from its amplitudes without forming the projector.
    """
    d = 1 << n_sites
    if rho.shape not in ((d,), (d, d)):
        raise ValueError(f"density matrix shape {rho.shape} does not match {n_sites} sites")
    if sorted(set(keep)) != list(keep) or not all(1 <= s <= n_sites for s in keep):
        raise ValueError(f"keep sites {keep!r} must be distinct, ascending, within 1..{n_sites}")
    dk = 1 << len(keep)
    if rho.ndim == 1:
        # Kept sites become rows, the rest columns: rho_keep = M M^dag.
        M = np.moveaxis(rho.reshape((2,) * n_sites), [s - 1 for s in keep],
                        range(len(keep))).reshape((dk, -1))
        return M @ M.conj().T
    tensor = rho.reshape((2,) * (2 * n_sites))
    drop = [s for s in range(1, n_sites + 1) if s not in keep]
    # Trace out highest-numbered sites first so remaining axis numbers stay valid.
    for s in sorted(drop, reverse=True):
        ax = s - 1
        tensor = np.trace(tensor, axis1=ax, axis2=ax + tensor.ndim // 2)
    return tensor.reshape((dk, dk))


_STATE_KINDS = ("pure", "mixed", "deviation")


@dataclass(frozen=True)
class QuantumState:
    """A register state: a ket, a density matrix, or a deviation matrix."""

    kind: str
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in _STATE_KINDS:
            raise ValueError(f"kind must be one of {_STATE_KINDS}, got {self.kind!r}")
        arr = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", arr)
        if self.kind == "pure":
            if arr.ndim != 1:
                raise ValueError("pure state data must be a 1-d ket")
            if abs(np.linalg.norm(arr) - 1.0) > 1e-9:
                raise ValueError("pure state ket must be normalized")
        else:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("matrix state data must be square")
            if np.abs(arr - arr.conj().T).max() > 1e-9:
                raise ValueError("matrix state must be Hermitian")
            tr = complex(np.trace(arr)).real
            if self.kind == "mixed":
                if abs(tr - 1.0) > 1e-9:
                    raise ValueError("mixed state must have unit trace")
                if float(np.linalg.eigvalsh(arr).min()) < -1e-10:
                    raise ValueError("mixed state must be positive semidefinite")
            if self.kind == "deviation" and abs(tr) > 1e-9:
                raise ValueError("deviation state must be traceless")
        n = int(arr.shape[0]).bit_length() - 1
        if arr.shape[0] != 1 << n:
            raise ValueError("state dimension must be a power of two")

    @property
    def n_sites(self) -> int:
        return int(self.data.shape[0]).bit_length() - 1

    def density(self) -> np.ndarray:
        """The matrix form: |psi><psi| for kets, data itself otherwise."""
        if self.kind == "pure":
            return np.outer(self.data, self.data.conj())
        return self.data

    def evolved(self, U) -> "QuantumState":
        """The state after the unitary U: a dense matrix, or a propagator
        with an `evolve(data)` method such as a chain's SectorPropagator.

        Not validated again: unitary evolution preserves the norm, trace,
        Hermiticity and spectrum that construction checked.
        """
        if hasattr(U, "evolve"):
            data = U.evolve(self.data)
        elif self.kind == "pure":
            data = U @ self.data
        else:
            data = U @ self.data @ U.conj().T
        out = object.__new__(QuantumState)
        object.__setattr__(out, "kind", self.kind)
        object.__setattr__(out, "data", data)
        return out
