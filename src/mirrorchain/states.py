"""State conventions, embeddings, and reduced density matrices.

Site 1 occupies the most significant qubit slot of every tensor product,
and the computational label '1' denotes the sigma-z = +1 eigenstate.  So the
basis index of a bit string b_1 ... b_n is sum_i (1 - b_i) * 2^(n-i): the
all-ones label sits at index 0 and the all-zeros label at index 2^n - 1.

Embedding a local ket or operator and reducing onto kept sites all go
through one site-index map, `_site_index`: P[l, r] is the basis index with
local label l on the chosen sites and rest label r elsewhere.  Kets and
operators are scattered into, and kets gathered from, those indices, with
no Kronecker product and no loop over bit labels.  These dense 2^N forms
serve `QuantumState` and the tests; state transfer never builds them.

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


def _site_index(sites: tuple[int, ...], n_sites: int, name: str = "sites") -> np.ndarray:
    """P[l, r]: the basis index with local label l on `sites` (in tuple
    order) and rest label r on the other sites (ascending).

    The sites must be 1-based, distinct and ascending.
    """
    if sorted(set(sites)) != list(sites) or not all(1 <= s <= n_sites for s in sites):
        raise ValueError(f"{name} {sites!r} must be distinct, ascending, within 1..{n_sites}")
    # Axis i of the index tensor is site i + 1; the rest keep their order.
    index = np.arange(1 << n_sites).reshape((2,) * n_sites)
    moved = np.moveaxis(index, [s - 1 for s in sites], range(len(sites)))
    return moved.reshape(1 << len(sites), -1)


def embed_at(local: np.ndarray, sites: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Place a ket on the given (1-based, distinct, ascending) sites,
    filling every other site with |0>; the sites may be adjacent.

    The local ket's qubit order follows the `sites` tuple.
    """
    k = len(sites)
    if local.shape != (1 << k,):
        raise ValueError(f"local ket of dim {local.shape} does not cover {k} sites")
    P = _site_index(sites, n_sites)
    full = np.zeros(1 << n_sites, dtype=complex)
    # The all-'0' rest label has every index bit set: the last column.
    full[P[:, -1]] = local
    return full


def embed_operator(
    local: np.ndarray, sites: tuple[int, ...], n_sites: int
) -> np.ndarray:
    """Lift an operator on the given (1-based, ascending) sites to the full
    register, acting as identity elsewhere."""
    k = len(sites)
    if local.shape != (1 << k,) * 2:
        raise ValueError(f"local operator shape {local.shape} does not cover {k} sites")
    Q = _site_index(sites, n_sites).T
    full = np.zeros((1 << n_sites,) * 2, dtype=np.result_type(local.dtype, float))
    # One copy of `local` per rest label r, on the rows and columns Q[r].
    full[Q[:, :, None], Q[:, None, :]] = local
    return full


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Reduced matrix on the (1-based, ascending) `keep` sites.

    `rho` is a density matrix, or a ket psi standing for |psi><psi|; a ket
    is reduced from its amplitudes without forming the projector.
    """
    d = 1 << n_sites
    if rho.shape not in ((d,), (d, d)):
        raise ValueError(f"density matrix shape {rho.shape} does not match {n_sites} sites")
    P = _site_index(keep, n_sites, "keep sites")
    if rho.ndim == 1:
        # Kept sites become rows, the rest columns: rho_keep = M M^dag.
        M = rho[P]
        return M @ M.conj().T
    # rho_keep[l, m] = sum_r rho[P[l, r], P[m, r]].
    return rho[P[:, None, :], P[None, :, :]].sum(-1)


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
        if not np.isfinite(arr).all():
            raise ValueError("state data must be finite")
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

    def evolved(self, U: np.ndarray) -> "QuantumState":
        """The state after the dense unitary U.

        Not validated again: unitary evolution preserves the norm, trace,
        Hermiticity and spectrum that construction checked.
        """
        if self.kind == "pure":
            data = U @ self.data
        else:
            data = U @ self.data @ U.conj().T
        out = object.__new__(QuantumState)
        object.__setattr__(out, "kind", self.kind)
        object.__setattr__(out, "data", data)
        return out
