"""Mirror-inverting spin chains, Pauli-product synthesis, and pulse control.

Submodules
----------
pauli      Pauli-string algebra, groups, subgroup chains
states     computational-basis conventions, Bell states, partial traces
chain      XY chain Hamiltonians, propagators, the mirror condition
decompose  recursive peeling of a unitary into Pauli exponentials
transfer   mirror-transfer simulations and fidelity metrics
grape      piecewise-constant pulse optimization for NMR-style systems
cli        the `mirrorchain` command-line tool

Attributes are loaded lazily so that the command-line entry point can
configure threading before numpy is imported.  The peel entry point is
`mirrorchain.decompose.decompose` (the name at package level would shadow
the submodule).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # pauli
    "PauliString": ".pauli",
    "PauliGroup": ".pauli",
    "SubgroupChain": ".pauli",
    "commutes": ".pauli",
    "pauli_matrix": ".pauli",
    "word_trace": ".pauli",
    "xz_traces": ".pauli",
    "update_xz_traces": ".pauli",
    "word_exponential": ".pauli",
    "apply_word_exponential": ".pauli",
    "group_closure": ".pauli",
    "support_group": ".pauli",
    "maximal_subgroup": ".pauli",
    # states
    "QuantumState": ".states",
    "BELL_KINDS": ".states",
    "basis_index": ".states",
    "bit_label": ".states",
    "excitation_numbers": ".states",
    "basis_ket": ".states",
    "bell_state": ".states",
    "mirror_permutation": ".states",
    "single_qubit_state": ".states",
    "embed_at": ".states",
    "embed_operator": ".states",
    "partial_trace": ".states",
    # chain
    "ChainSpec": ".chain",
    "SpectralReport": ".chain",
    "MIRROR_TIME": ".chain",
    "engineered_couplings": ".chain",
    "excitation_sectors": ".chain",
    "sector_hamiltonians": ".chain",
    "build_hamiltonian": ".chain",
    "single_excitation_matrix": ".chain",
    "propagator": ".chain",
    "chain_propagator": ".chain",
    "check_mirror_condition": ".chain",
    # decompose (the function itself stays in the submodule)
    "ProductDecomposition": ".decompose",
    "PeelStep": ".decompose",
    "PeelTrace": ".decompose",
    "DecompositionError": ".decompose",
    "expand": ".decompose",
    "peel_level": ".decompose",
    "reconstruct": ".decompose",
    "gate_fidelity": ".decompose",
    "closed_form": ".decompose",
    # transfer
    "SectorPhaseTable": ".transfer",
    "TransferReport": ".transfer",
    "sector_phases": ".transfer",
    "fidelity_metric": ".transfer",
    "attenuated_correlation": ".transfer",
    "six_state_design": ".transfer",
    "transfer_single": ".transfer",
    "transfer_entangled": ".transfer",
    # grape
    "NmrSystemSpec": ".grape",
    "PulseSequence": ".grape",
    "GrapeConfig": ".grape",
    "GrapeResult": ".grape",
    "drift_hamiltonian": ".grape",
    "control_operators": ".grape",
    "equilibrium_deviation": ".grape",
    "propagate": ".grape",
    "fidelity_hs": ".grape",
    "mean_fidelity_and_gradient": ".grape",
    "grape_optimize": ".grape",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module = import_module(_EXPORTS[name], __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
