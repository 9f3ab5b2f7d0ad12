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

Import each public name from the submodule that defines it, for example
``from mirrorchain.chain import ChainSpec``.  The package itself imports
nothing, so that the command-line entry point can configure threading
before numpy is imported.
"""

__version__ = "0.1.0"
