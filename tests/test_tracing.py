"""The benchmark's tracer, perfbench/tracing.py, still attaches to the package.

The tracer wraps layer functions by name from outside the package, so a
renamed function or a changed call signature breaks the traced benchmark
run without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from mirrorchain import chain, transfer
from mirrorchain.chain import MIRROR_TIME, engineered_couplings
from mirrorchain.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    for module, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module("mirrorchain." + module), attr)), attr
    for module, cls, attr, _ in tracing.METHODS:
        owner = getattr(importlib.import_module("mirrorchain." + module), cls)
        assert callable(getattr(owner, attr)), f"{cls}.{attr}"


def test_tracer_attaches_to_transfer_and_decompose(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    original = chain.propagator
    restore = tracing.install(tracer)
    try:
        assert transfer.propagator is not original
        assert main(["-q", "transfer", "--engineered", "4", "--site", "1", "--mode",
                     "deviation", "-o", str(tmp_path / "transfer.json")]) == 0
        assert main(["-q", "decompose", "--engineered", "3",
                     "-o", str(tmp_path / "decompose.json")]) == 0
    finally:
        restore()
    assert transfer.propagator is chain.propagator is original
    summary = tracer.summary()
    assert not [name for name in summary if name.endswith(".failed")]
    # transfer builds only the one-excitation propagator; decompose the sectors
    assert summary["chain.chain_propagator.calls"] == 1
    assert summary["chain.build_hamiltonian.calls"] == 1
    # one eigh per sector: the 4 x 4 one-excitation block, then 1, 3, 3, 1
    assert summary["numpy.eigh.calls"] == 5
    assert summary["numpy.eigh.d3_sum"] == 4**3 + 1 + 27 + 27 + 1
    assert summary["transfer.transfer_single.calls"] == 1
    assert summary["decompose.decompose.calls"] == 1
    # The distinct-propagator hook reads (spec, tau) from positional args.
    assert tracer.distinct["chain.chain_propagator"] == {
        (engineered_couplings(3), (0.0,) * 3, MIRROR_TIME)
    }
