"""XY spin chains: Hamiltonians, propagators, and the mirror condition.

The chain Hamiltonian is

    H = (1/2) sum_i J_i (X_i X_{i+1} + Y_i Y_{i+1})
      + (1/2) sum_i h_i (Z_i + 1),

which conserves the number k of '1' labels, so it is block diagonal over
the N+1 excitation sectors, sector k holding the C(N, k) basis states
with k excitations.  `build_hamiltonian` fills the dense 2^N matrix once
by bit-flip indexing over all basis indices: the hopping term maps a
basis state to the one with sites i and i+1 exchanged, with amplitude
J_i, wherever the two sites differ, and the field adds h_i on every
excited site.  H is zero outside its sector blocks, so `chain_propagator`
overwrites each block of a complex copy of H with its exponential: the
cost is sum_k C(N, k)^3 rather than (2^N)^3, and the result is the dense
2^N unitary for `decompose` and the demos.

The chain is a free-fermion model, so the N x N one-excitation block
alone fixes the whole evolution: sector block k holds the k x k minors of
its propagator.  State transfer works from that N x N matrix only (see
:mod:`mirrorchain.transfer`), so it skips the dense site cap.

The one-excitation block, in the basis |i> = '0...010...0' with the 1 at
site i, is the real tridiagonal matrix with diagonal h and off-diagonal J.
For the engineered couplings J_i = sqrt(i (N - i)) and h = 0 that block is
twice the angular-momentum operator Jx of a spin (N-1)/2, so its spectrum
is the integer ladder -(N-1), -(N-3), ..., N-1, and evolution for time
tau = pi/2 swaps site i with site N+1-i in every excitation sector at
once, each sector with its own phase.

The mirror condition is checked spectrally: with R the site-reversal
permutation, exp(-i H1 tau) = e^{i phi0} R exactly when every
one-excitation eigenpair satisfies eps_nu tau = [2 n(nu) +- nu] pi - phi0
for integers n(nu), where the +- alternation records the reversal parity
of the eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import (
    MAX_DENSE_SITES,
    _json_array,
    _json_float,
    _json_int,
    _json_key,
    _json_object,
    _read_json,
)
from .states import excitation_numbers

__all__ = [
    "ChainSpec",
    "engineered_couplings",
    "excitation_sectors",
    "build_hamiltonian",
    "single_excitation_matrix",
    "propagator",
    "chain_propagator",
    "SpectralReport",
    "check_mirror_condition",
    "MIRROR_TIME",
    "MAX_CHAIN_SITES",
]

#: Evolution time at which the engineered chain realizes site reversal.
MIRROR_TIME = math.pi / 2.0

HERMITICITY_TOL = 1e-10
PHASE_TOL = 1e-9
SYMMETRY_TOL = 1e-9
DEGENERACY_TOL = 1e-8
MAX_WITNESS = 64
#: Longest chain accepted: the mirror test and transfer hold dense N x N
#: arrays, a few hundred MB at this cap.
MAX_CHAIN_SITES = 2048


def _check_chain_length(n_sites: int) -> None:
    """Refuse a chain past MAX_CHAIN_SITES before any of its arrays is built."""
    if n_sites > MAX_CHAIN_SITES:
        raise ValueError(f"{n_sites} sites exceeds the chain-length cap of {MAX_CHAIN_SITES}")


def _check_spec(spec: object) -> None:
    """Refuse a spec that is not a ChainSpec, naming it."""
    if not isinstance(spec, ChainSpec):
        raise ValueError(f"spec must be a ChainSpec, got {type(spec).__name__}")


def _check_phases(evals: np.ndarray, tau: float) -> None:
    """Refuse a tau that is not finite or whose phases tau * eigenvalue overflow."""
    if not math.isfinite(tau * float(np.abs(evals).max())):
        raise ValueError(f"tau must be finite, and so must tau * eigenvalue, got tau={tau!r}")


def engineered_couplings(n_sites: int) -> tuple[float, ...]:
    """J_i = sqrt(i (N - i)) for i = 1 .. N-1."""
    if (n_sites := _json_int(n_sites, "n_sites")) < 2:
        raise ValueError("engineered couplings need at least 2 sites")
    _check_chain_length(n_sites)
    return tuple(math.sqrt(i * (n_sites - i)) for i in range(1, n_sites))


@dataclass(frozen=True)
class ChainSpec:
    """An XY chain: nearest-neighbor couplings and on-site fields."""

    couplings: tuple[float, ...]
    fields: tuple[float, ...]

    def __post_init__(self) -> None:
        couplings = _json_array(self.couplings, "couplings", _json_float)
        fields = _json_array(self.fields, "fields", _json_float)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "fields", fields)
        _check_chain_length(len(fields))
        if len(fields) != len(couplings) + 1:
            raise ValueError(
                f"{len(couplings)} couplings need {len(couplings) + 1} fields, got {len(fields)}"
            )

    @property
    def n_sites(self) -> int:
        return len(self.fields)

    @classmethod
    def engineered(cls, n_sites: int) -> "ChainSpec":
        return cls(engineered_couplings(n_sites), (0.0,) * n_sites)

    @property
    def is_engineered(self) -> bool:
        """Engineered couplings and zero fields; a single site never is."""
        if self.n_sites < 2 or any(abs(h) > SYMMETRY_TOL for h in self.fields):
            return False
        ref = engineered_couplings(self.n_sites)
        return all(abs(a - b) <= SYMMETRY_TOL for a, b in zip(self.couplings, ref))

    @property
    def mirror_symmetric(self) -> bool:
        """Palindromic couplings and fields, within tolerance."""
        return all(
            abs(a - b) <= SYMMETRY_TOL
            for a, b in zip(self.couplings, self.couplings[::-1])
        ) and all(
            abs(a - b) <= SYMMETRY_TOL for a, b in zip(self.fields, self.fields[::-1])
        )

    def to_json(self) -> dict:
        return {
            "n": self.n_sites,
            "couplings": list(self.couplings),
            "fields": list(self.fields),
            "engineered": self.is_engineered,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainSpec":
        """Parse the chain record; engineered records may omit the arrays."""
        try:
            _json_object(data, "chain record")
            n = _json_int(_json_key(data, "n"), "n")
            _check_chain_length(n)
            engineered = data.get("engineered", False)
            if not isinstance(engineered, bool):
                raise ValueError(f"engineered must be true or false, got {engineered!r}")
            if engineered and "couplings" not in data and "fields" not in data:
                return cls.engineered(n)
            spec = cls(_json_key(data, "couplings"), _json_key(data, "fields"))
        except ValueError as exc:
            raise ValueError(f"malformed chain record: {exc}") from exc
        if spec.n_sites != n:
            raise ValueError(f"record claims {n} sites but lists {spec.n_sites} fields")
        if engineered and not spec.is_engineered:
            raise ValueError("record marked engineered but lists other couplings")
        return spec

    @classmethod
    def load(cls, path: str) -> "ChainSpec":
        return cls.from_json(_read_json(path))


def excitation_sectors(n_sites: int) -> tuple[np.ndarray, ...]:
    """The basis indices of each excitation sector k = 0 .. N, ascending."""
    k = excitation_numbers(n_sites)
    return tuple(np.flatnonzero(k == m) for m in range(n_sites + 1))


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N x 2^N chain Hamiltonian (real, symmetric).

    Site i sits at bit N-i of a basis index, and a 0 bit is an excited
    ('1') site: one array pass over the indices per coupling and per field.
    """
    _check_spec(spec)
    n = spec.n_sites
    if n > MAX_DENSE_SITES:
        raise ValueError(f"{n} sites exceeds the dense cap of {MAX_DENSE_SITES}")
    j = np.arange(1 << n)
    H = np.zeros((1 << n, 1 << n))
    for i, J in enumerate(spec.couplings, start=1):
        hop = j[((j >> (n - i)) ^ (j >> (n - i - 1))) & 1 == 1]
        H[hop ^ (3 << (n - i - 1)), hop] += J
    for i, h in enumerate(spec.fields, start=1):
        excited = j[(j >> (n - i)) & 1 == 0]
        H[excited, excited] += h
    return H


def single_excitation_matrix(spec: ChainSpec) -> np.ndarray:
    """Tridiagonal one-excitation block: diag = fields, offdiag = couplings."""
    _check_spec(spec)
    H1 = np.diag(np.array(spec.fields, dtype=float))
    off = np.array(spec.couplings, dtype=float)
    return H1 + np.diag(off, 1) + np.diag(off, -1)


def propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian matrix, via exact diagonalization."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if np.abs(H - H.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    t = _json_float(t, "tau")
    evals, evecs = np.linalg.eigh(H)
    _check_phases(evals, t)
    return _evolve(evals, evecs, t)


def _evolve(evals: np.ndarray, evecs: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) from H's eigenvalues and eigenvector columns."""
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


def chain_propagator(spec: ChainSpec, tau: float) -> np.ndarray:
    """Dense 2^N exp(-i H tau) of the chain, one `propagator` call per sector."""
    U = build_hamiltonian(spec).astype(complex)
    for idx in excitation_sectors(spec.n_sites):
        block = np.ix_(idx, idx)
        U[block] = propagator(U[block].real, tau)
    return U


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of the one-excitation mirror test at a given time."""

    mirror_time: float
    eigenvalues: tuple[float, ...]
    parities: tuple[int, ...]
    satisfied: bool
    global_phase: float | None
    witnesses: tuple[int, ...] | None
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "mirror_time": self.mirror_time,
            "eigenvalues": list(self.eigenvalues),
            "parities": list(self.parities),
            "satisfied": self.satisfied,
            "global_phase": self.global_phase,
            "witnesses": None if self.witnesses is None else list(self.witnesses),
            "degenerate": self.degenerate,
        }


def _phase_distance(a: float) -> float:
    """Distance of the angle `a` from 0 modulo 2 pi."""
    return abs(math.remainder(a, 2.0 * math.pi))


def _principal_angle(a: float) -> float:
    """The angle `a` reduced to (-pi, pi]; `math.remainder` keeps -pi on the tie."""
    r = math.remainder(a, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


def check_mirror_condition(spec: ChainSpec, tau: float) -> SpectralReport:
    """Decide whether exp(-i H1 tau) equals a phase times site reversal.

    Requires a mirror-symmetric spec with strictly positive couplings (the
    regime where one-excitation eigenvectors provably alternate in
    reversal parity).  The measured parities s_nu and eigenvalues eps_nu
    satisfy the mirror condition exactly when

        exp(-i eps_nu tau) = exp(i phi0) s_nu     for every nu,

    and the reported integer witnesses n(nu) locate each phase on the
    2 pi lattice.  phi0 carries the only phase freedom and is fixed by the
    bottom level, then reduced to (-pi, pi].
    """
    _check_spec(spec)
    tau = _json_float(tau, "tau")
    if not spec.mirror_symmetric:
        raise ValueError("mirror condition requires a mirror-symmetric chain")
    if any(j <= 0.0 for j in spec.couplings):
        raise ValueError("mirror condition requires strictly positive couplings")
    H1 = single_excitation_matrix(spec)
    evals, evecs = np.linalg.eigh(H1)
    _check_phases(evals, tau)
    degenerate = bool(len(evals) > 1 and np.diff(evals).min() < DEGENERACY_TOL)
    if degenerate:
        # Positive palindromic couplings forbid degeneracy; this path only
        # fires on near-degenerate numerics and checks the operator directly.
        return _mirror_check_direct(tau, evals, evecs)

    # Each eigenvector's overlap with its own reversal is its parity, +-1.
    overlaps = np.einsum("ij,ij->j", evecs[::-1], evecs)
    if np.abs(np.abs(overlaps) - 1.0).max() > 1e-6:
        raise AssertionError("eigenvector of a symmetric chain lost its parity")
    parities = [1 if s > 0 else -1 for s in overlaps.tolist()]

    # The bottom level fixes the only phase freedom: exp(i phi0) must equal
    # exp(-i eps_0 tau) / s_0, i.e. phi0 = -eps_0 tau plus pi when the
    # bottom eigenvector is reversal-odd.
    phi0 = -float(evals[0]) * tau
    if parities[0] < 0:
        phi0 += math.pi
    phi0 = _principal_angle(phi0)

    targets = [eps * tau + phi0 - (0.0 if s > 0 else math.pi)
               for eps, s in zip(evals.tolist(), parities)]
    witnesses = [round(t / (2.0 * math.pi)) for t in targets]
    ok = all(abs(n) <= MAX_WITNESS and _phase_distance(t) <= PHASE_TOL
             for n, t in zip(witnesses, targets))

    return SpectralReport(
        mirror_time=tau,
        eigenvalues=tuple(float(e) for e in evals),
        parities=tuple(parities),
        satisfied=ok,
        global_phase=float(phi0) if ok else None,
        witnesses=tuple(witnesses) if ok else None,
        degenerate=False,
    )


def _mirror_check_direct(
    tau: float, evals: np.ndarray, evecs: np.ndarray
) -> SpectralReport:
    """Degenerate fallback: test the propagator itself with :func:`_mirror_phase`."""
    w = _mirror_phase(_evolve(evals, evecs, tau))
    return SpectralReport(
        mirror_time=tau,
        eigenvalues=tuple(float(e) for e in evals),
        parities=(),
        satisfied=w is not None,
        global_phase=None if w is None else _principal_angle(float(np.angle(w))),
        witnesses=None,
        degenerate=True,
    )


def _mirror_phase(u: np.ndarray) -> complex | None:
    """w when the N x N one-excitation propagator u equals w R for the site
    reversal R and a unit w, within PHASE_TOL; else None."""
    w = complex(u[-1, 0])
    if abs(abs(w) - 1.0) > PHASE_TOL or np.abs(u[::-1] - w * np.eye(len(u))).max() > PHASE_TOL:
        return None
    return w
