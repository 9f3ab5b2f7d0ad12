"""End-to-end mirror-inversion checks: state transfer, Bell transfer,
excitation-sector phases, and ensemble fidelity metrics.

Two preparation modes are exposed throughout.  "pure" evolves kets with
spectator sites in |0>.  "deviation" works with ensemble operators as
prepared in liquid-state magnetic resonance: a single-site input is a
traceless 2x2 deviation operator tensored with identity on the spectators,
while a Bell input is the Bell projector with maximally mixed spectators.

Transfer fidelity is judged against the theoretical expectation.  For pure
inputs that is the phase-adjusted input at the mirror site(s): each
k-excitation component picks up the chain's k-sector phase, measured from
the propagator when it is a true mirror and otherwise taken from the
engineered reference pattern.  For single-site deviation inputs the
transferred coherence is entangled with Z strings on the intervening
spins, so the reduced matrix alone is blind to it; fidelity is then
judged on the full register against the engineered chain's evolution
without forming either 2^N matrix.  Unitarity gives both norms as
2^(N-1) Tr(L^2), and the overlap is Tr(L R_V(L)), the input deviation L
against its reduction R_V(L) under V = E^dag U.  The engineered chain's
E is the site reversal times closed-form sector phases, so V is a phased
row reversal of U, and no second propagator is built.

Deviation outputs are reduced onto the mirrored sites straight from the
propagator's sector blocks (`SectorPropagator.reduced`); no operator is
lifted to the register and no 2^N matrix is evolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    MIRROR_TIME,
    ChainSpec,
    SectorPropagator,
    chain_propagator,
    excitation_sectors,
)
from .pauli import PauliString, pauli_matrix
from .states import (
    BELL_KINDS,
    QuantumState,
    bell_state,
    bit_label,
    embed_at,
    excitation_numbers,
    mirror_permutation,
    partial_trace,
)

__all__ = [
    "SectorPhaseTable",
    "TransferReport",
    "sector_phases",
    "transfer_single",
    "transfer_entangled",
    "fidelity_metric",
    "attenuated_correlation",
    "six_state_design",
]

SECTOR_TOL = 1e-9
#: Minimum Bell-projector overlap for the reduced output to earn a label.
BELL_LABEL_THRESHOLD = 1.0 - 1e-6

_MODES = ("pure", "deviation")


@dataclass(frozen=True)
class SectorPhaseTable:
    """Per-excitation-sector phase of a mirror propagator (k = 0 .. N)."""

    n_sites: int
    phases: tuple[complex, ...]

    def __post_init__(self) -> None:
        phases = tuple(complex(p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != self.n_sites + 1:
            raise ValueError(
                f"{self.n_sites} sites need {self.n_sites + 1} sector phases"
            )
        for p in phases:
            if abs(abs(p) - 1.0) > 1e-9:
                raise ValueError("sector phases must have unit modulus")

    def to_json(self) -> dict:
        return {
            "n": self.n_sites,
            "phases": [[p.real, p.imag] for p in self.phases],
        }


def sector_phases(
    U: np.ndarray | SectorPropagator, n_sites: int
) -> SectorPhaseTable:
    """Measure the per-sector phases of a mirror propagator.

    `U` is a dense 2^N unitary or a chain's :class:`SectorPropagator`.
    Validates that every computational basis state maps to its site
    reversal up to a unit phase and that all states with the same
    excitation count share that phase; offenders are listed in the error.
    """
    d = 1 << n_sites
    perm = mirror_permutation(n_sites)
    if isinstance(U, SectorPropagator):
        if U.n_sites != n_sites:
            raise ValueError(f"propagator over {U.n_sites} sites does not match {n_sites} sites")
        amps = U.entries(perm)
    elif U.shape != (d, d):
        raise ValueError(f"matrix shape {U.shape} does not match {n_sites} sites")
    else:
        amps = U[perm, np.arange(d)]
    bad = [bit_label(j, n_sites) for j in np.flatnonzero(np.abs(np.abs(amps) - 1.0) > SECTOR_TOL)]
    if bad:
        raise ValueError(
            "not a mirror propagator; basis states not mapped to their "
            f"reversal: {', '.join(bad[:8])}"
            + ("..." if len(bad) > 8 else "")
        )

    # Each sector's reference is the phase of its lowest basis index.
    refs = np.array([amps[idx[0]] / abs(amps[idx[0]]) for idx in excitation_sectors(n_sites)])
    k = excitation_numbers(n_sites)
    off = np.flatnonzero(np.abs(amps - refs[k]) > SECTOR_TOL)
    if len(off):
        j = int(off[0])
        raise ValueError(
            f"excitation sector k={k[j]} has inconsistent phases: basis state "
            f"{bit_label(j, n_sites)} disagrees with the sector reference"
        )
    return SectorPhaseTable(n_sites, tuple(refs))


def fidelity_metric(rho_th: np.ndarray, rho_ex: np.ndarray) -> float:
    """Tr(rho_th rho_ex) / sqrt(Tr(rho_th^2) Tr(rho_ex^2)).

    Scale-invariant in both arguments; accepts deviation (traceless)
    matrices.  Zero-norm input is undefined and rejected.
    """
    return _fidelity(*_metric_terms(rho_th, rho_ex))


def attenuated_correlation(rho_th: np.ndarray, rho_ex: np.ndarray) -> float:
    """Tr(rho_th rho_ex) / Tr(rho_th^2); covariant in the rho_ex scale."""
    return _attenuated(*_metric_terms(rho_th, rho_ex))


def _fidelity(t: float, na: float, nb: float) -> float:
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("fidelity metric is undefined for zero-norm input")
    return t / math.sqrt(na * nb)


def _attenuated(t: float, na: float, nb: float) -> float:
    if na <= 0.0:
        raise ValueError("attenuated correlation is undefined for zero-norm reference")
    return t / na


def _metric_terms(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(Tr(ab), Tr(a^2), Tr(b^2)) of Hermitian a and b, each checked once."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} vs {b.shape}")
    for m in (a, b):
        if np.abs(m - m.conj().T).max() > 1e-8:
            raise ValueError("metric inputs must be Hermitian")
    # Tr(a b) = sum_ij conj(a_ij) b_ij for Hermitian a: O(d^2), no product.
    return float(np.vdot(a, b).real), float(np.vdot(a, a).real), float(np.vdot(b, b).real)


def _report_metrics(rho_th: np.ndarray, rho_ex: np.ndarray) -> dict[str, float]:
    """A report's fidelity and attenuated correlation from one set of terms."""
    return _scores(*_metric_terms(rho_th, rho_ex))


def _scores(t: float, na: float, nb: float) -> dict[str, float]:
    return {"fidelity": _fidelity(t, na, nb), "attenuated_correlation": _attenuated(t, na, nb)}


def six_state_design() -> dict[str, np.ndarray]:
    """The +-X, +-Y, +-Z eigenstate kets, keyed by axis and sign."""
    design: dict[str, np.ndarray] = {}
    for axis in "xyz":
        evals, evecs = np.linalg.eigh(pauli_matrix(PauliString(axis.upper())))
        for val, vec in zip(evals, evecs.T):
            design[f"{'+' if val > 0 else '-'}{axis}"] = vec.astype(complex)
    return design


@dataclass(frozen=True, eq=False)
class TransferReport:
    """Outcome of one transfer experiment on the chain."""

    mode: str
    source_sites: tuple[int, ...]
    destination_sites: tuple[int, ...]
    input_matrix: np.ndarray
    output_matrix: np.ndarray
    fidelity: float
    attenuated_correlation: float
    sector_phases: SectorPhaseTable | None
    bell_label: str | None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "source_sites": list(self.source_sites),
            "destination_sites": list(self.destination_sites),
            "input_matrix": _mat_json(self.input_matrix),
            "output_matrix": _mat_json(self.output_matrix),
            "fidelity": self.fidelity,
            "attenuated_correlation": self.attenuated_correlation,
            "sector_phases": None
            if self.sector_phases is None
            else self.sector_phases.to_json(),
            "bell_label": self.bell_label,
        }


def _mat_json(M: np.ndarray) -> list:
    return [[[complex(z).real, complex(z).imag] for z in row] for row in M]


def _engineered_reference_phases(n_sites: int) -> tuple[complex, ...]:
    """Sector phases of the engineered chain at the mirror time.

    Each excitation carries the one-excitation phase (-i)^(N-1), and fully
    reversing the order of k excitations contributes the reordering sign
    (-1)^(k(k-1)/2), so p_k = ((-i)^(N-1))^k * (-1)^(k(k-1)/2).
    """
    a = (-1j) ** (n_sites - 1)
    return tuple(
        a**k * (-1.0) ** ((k * (k - 1) // 2) % 2) for k in range(n_sites + 1)
    )


def transfer_single(
    n_sites: int,
    site: int,
    state: np.ndarray | QuantumState,
    mode: str = "pure",
    spec: ChainSpec | None = None,
) -> TransferReport:
    """Send a one-qubit state from `site` to its mirror N+1-site.

    `state` is a 2-vector ket in pure mode, or a traceless Hermitian 2x2
    deviation operator in deviation mode.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    data = state.data if isinstance(state, QuantumState) else np.asarray(state, complex)
    if mode == "pure":
        data = data / np.linalg.norm(data)
    return _transfer(n_sites, (site,), QuantumState(mode, data).data, mode, spec)


def transfer_entangled(
    n_sites: int,
    sites: tuple[int, int],
    bell_kind: str,
    mode: str = "pure",
    spec: ChainSpec | None = None,
) -> TransferReport:
    """Send a Bell pair from `sites` to the mirror pair.

    Pure mode keeps spectators in |0>; deviation mode prepares the Bell
    projector with maximally mixed spectators.  The reduced output is
    classified against the four Bell projectors and labeled when the
    overlap exceeds the labeling threshold.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if bell_kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {bell_kind!r}; expected one of {BELL_KINDS}")
    i, j = sites
    if not (1 <= i < j <= n_sites):
        raise ValueError(f"sites {sites!r} must satisfy 1 <= i < j <= {n_sites}")
    return _transfer(n_sites, (i, j), bell_state(bell_kind), mode, spec)


def _transfer(
    n_sites: int,
    sites: tuple[int, ...],
    local: np.ndarray,
    mode: str,
    spec: ChainSpec | None,
) -> TransferReport:
    """Place `local` on `sites`, evolve to the mirror time, reduce onto the
    mirrored sites and compare with the expected output.

    `local` is a ket, placed with |0> spectators in pure mode and as its
    projector over maximally mixed spectators in deviation mode, and
    judged against the projector of its mirrored ket.  A 2x2 `local` is a
    single-site deviation operator, judged on the full register.
    """
    if spec is None:
        spec = ChainSpec.engineered(n_sites)
    elif spec.n_sites != n_sites:
        raise ValueError(f"chain has {spec.n_sites} sites, transfer asked for {n_sites}")
    U = chain_propagator(spec, MIRROR_TIME)
    try:
        table = sector_phases(U, n_sites)
    except ValueError:
        table = None
    dest = tuple(n_sites + 1 - s for s in reversed(sites))
    if local.ndim == 2:
        rho_in = local
        rho_out = U.reduced(local, sites, dest)
        metrics = _scores(*_register_terms(local, sites, spec, U))
    else:
        rho_in = np.outer(local, local.conj())
        if mode == "pure":
            rho_out = partial_trace(U.evolve(embed_at(local, sites, n_sites)), dest, n_sites)
        else:
            rho_out = U.reduced(rho_in, sites, dest) / (1 << (n_sites - len(sites)))
        phases = table.phases if table is not None else _engineered_reference_phases(n_sites)
        ket_th = _mirrored_ket(local, phases)
        metrics = _report_metrics(np.outer(ket_th, ket_th.conj()), rho_out)
    return TransferReport(
        mode=mode,
        source_sites=sites,
        destination_sites=dest,
        input_matrix=rho_in,
        output_matrix=rho_out,
        **metrics,
        sector_phases=table,
        bell_label=_classify_bell(rho_out) if len(sites) == 2 else None,
    )


def _register_terms(
    local: np.ndarray, site: tuple[int, ...], spec: ChainSpec, U: SectorPropagator
) -> tuple[float, float, float]:
    """(Tr(rho_th rho_out), Tr(rho_th^2), Tr(rho_out^2)) on the full register
    for the deviation L = `local` on `site` with identity elsewhere.

    rho_out = U (L ⊗ I) U^dag, and rho_th is the same under the engineered
    chain's propagator E.  Unitarity gives both norms as 2^(N-1) Tr(L^2);
    an engineered chain is its own reference, so the overlap equals them.
    Otherwise Tr(rho_th rho_out) = Tr(L R_V(L)), with R_V(L) the reduction
    onto `site` of V (L ⊗ I) V^dag for the block-diagonal V = E^dag U.
    E maps basis state j of sector k to p_k |perm[j]>, so row j of V is
    conj(p_k) U[perm[j]]: a phased row reversal of U's block, for any N.
    """
    n = U.n_sites
    norm = float(np.vdot(local, local).real) * (1 << (n - 1))
    if spec.is_engineered:
        return norm, norm, norm
    perm = mirror_permutation(n)
    V = SectorPropagator(U.sectors, tuple(
        np.conj(p) * u[np.searchsorted(idx, perm[idx])]
        for idx, u, p in zip(U.sectors, U.blocks, _engineered_reference_phases(n))
    ))
    return float(np.vdot(local, V.reduced(local, site, site)).real), norm, norm


def _mirrored_ket(ket: np.ndarray, phases) -> np.ndarray:
    """The ket a mirror leaves on the mirrored sites: the local bit order
    reversed, and each k-excitation amplitude times phases[k] / phases[0]."""
    k = len(ket).bit_length() - 1
    ratios = np.asarray(phases) / phases[0]
    return (ket * ratios[excitation_numbers(k)])[mirror_permutation(k)]


def _classify_bell(rho: np.ndarray) -> str | None:
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        return None
    for kind in BELL_KINDS:
        b = bell_state(kind)
        overlap = float((b.conj() @ rho @ b).real) / tr
        if overlap >= BELL_LABEL_THRESHOLD:
            return kind
    return None
