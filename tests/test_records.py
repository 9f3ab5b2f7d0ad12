"""JSON records at the input boundary: round trips and malformed records.

Chain specs, NMR system specs and product decompositions come back
unchanged from their JSON text.  A malformed record makes `from_json`
raise ValueError, and the CLI turns that into exit code 2.  The
constructors are the validators, so Python callers get the same checks.
"""

import cmath
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorchain.chain import ChainSpec
from mirrorchain.cli import main
from mirrorchain.decompose import ProductDecomposition
from mirrorchain.grape import GrapeConfig, NmrSystemSpec
from mirrorchain.pauli import PauliString

RECORDS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

finite = st.floats(allow_nan=False, allow_infinity=False)
#: Values no number, count or word field accepts.
JUNK = (None, "x", "0.5", True, [1.0], {"v": 1.0}, math.nan, math.inf, -math.inf)
#: Values no integer field accepts.
BAD_INTS = (None, "3", 2.5, True, [], {}, math.nan, math.inf)


def through_json(record):
    return json.loads(json.dumps(record))


@st.composite
def chain_specs(draw):
    n = draw(st.integers(1, 8))
    if n > 1 and draw(st.booleans()):
        return ChainSpec.engineered(n)
    couplings = draw(st.lists(finite, min_size=n - 1, max_size=n - 1))
    return ChainSpec(tuple(couplings), tuple(draw(st.lists(finite, min_size=n, max_size=n))))


@st.composite
def nmr_specs(draw):
    n = draw(st.integers(1, 4))
    coup = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coup[i][j] = coup[j][i] = draw(finite)
    spins = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    channels = tuple(tuple(spins[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return NmrSystemSpec(
        tuple(draw(st.lists(finite, min_size=n, max_size=n))),
        tuple(map(tuple, coup)),
        channels,
        tuple(draw(st.lists(finite, min_size=len(channels), max_size=len(channels)))),
    )


@st.composite
def decompositions(draw):
    n = draw(st.integers(1, 6))
    words = draw(st.lists(
        st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: set(w) != {"I"}), max_size=8))
    angles = draw(st.lists(finite, min_size=len(words), max_size=len(words)))
    phase = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return ProductDecomposition(n, tuple(zip(map(PauliString, words), angles)), phase)


@RECORDS
@given(chain_specs())
def test_chain_spec_round_trip(spec):
    again = ChainSpec.from_json(through_json(spec.to_json()))
    assert again == spec
    assert again.to_json() == spec.to_json()


@RECORDS
@given(nmr_specs())
def test_nmr_system_spec_round_trip(spec):
    again = NmrSystemSpec.from_json(through_json(spec.to_json()))
    assert again == spec
    assert again.to_json() == spec.to_json()


@RECORDS
@given(decompositions())
def test_decomposition_round_trip(dec):
    again = ProductDecomposition.from_json(through_json(dec.to_json()))
    assert again == dec
    assert again.to_json() == dec.to_json()


# ---------------------------------------------------------------------------
# malformed records: each strategy breaks one part of a valid record


def _set(record, path, value):
    record = json.loads(json.dumps(record))
    *head, last = path
    target = record
    for key in head:
        target = target[key]
    target[last] = value
    return record


def _drop(record, key):
    return {k: v for k, v in record.items() if k != key}


@st.composite
def malformed_chains(draw):
    spec = draw(chain_specs())
    record = spec.to_json()
    n = spec.n_sites
    options = [
        draw(st.sampled_from([[], "chain", 3, None])),
        _drop(record, "n"),
        _drop(record, draw(st.sampled_from(["couplings", "fields"]))),
        _set(record, ["n"], draw(st.sampled_from(BAD_INTS + (n + 1,)))),
        _set(record, ["couplings"], draw(st.sampled_from([None, 5, {"j": 1.0}, [None]]))),
        _set(record, ["couplings"], "1" * (n - 1)),
        _set(record, ["fields"], "0" * n),
        _set(record, ["fields", draw(st.integers(0, n - 1))], draw(st.sampled_from(JUNK))),
        _set(record, ["fields"], record["fields"] + [0.0]),
        _set(record, ["engineered"], draw(st.sampled_from(["yes", 1, None]))),
    ]
    if n > 1:
        options.append(
            _set(record, ["couplings", draw(st.integers(0, n - 2))], draw(st.sampled_from(JUNK))))
    return draw(st.sampled_from(options))


@st.composite
def malformed_systems(draw):
    spec = draw(nmr_specs())
    record = spec.to_json()
    n = spec.n_spins
    last_channel = len(spec.channels) - 1
    options = [
        _drop(record, draw(st.sampled_from(sorted(record)))),
        _set(record, ["n"], draw(st.sampled_from(BAD_INTS + (n + 1,)))),
        _set(record, ["shifts_hz", draw(st.integers(0, n - 1))], draw(st.sampled_from(JUNK))),
        _set(record, ["shifts_hz"], "1" * n),
        _set(record, ["couplings_hz", 0], "0" * n),
        _set(record, ["weights"], "1" * len(spec.channels)),
        _set(record, ["couplings_hz", 0, 0], 1.0),
        _set(record, ["couplings_hz"], record["couplings_hz"][:-1]),
        _set(record, ["channels", 0, 0], draw(st.sampled_from(BAD_INTS + (0, n + 1)))),
        _set(record, ["channels", last_channel], record["channels"][last_channel] + [1]),
        _set(record, ["weights"], record["weights"] + [1.0]),
        _set(record, ["weights", 0], draw(st.sampled_from(JUNK))),
    ]
    if n > 1:
        other = record["couplings_hz"][1][0]
        options.append(_set(record, ["couplings_hz", 0, 1], other + 1.0 if abs(other) < 1e15 else 0.0))
    return draw(st.sampled_from(options))


@st.composite
def malformed_decompositions(draw):
    dec = draw(decompositions())
    record = dec.to_json()
    n = dec.n_sites
    factor = {"word": "X" * n, "angle": 0.5}
    options = [
        _drop(record, draw(st.sampled_from(sorted(record)))),
        _set(record, ["n"], draw(st.sampled_from(BAD_INTS + (0, -1)))),
        _set(record, ["global_phase"], draw(st.sampled_from(
            [None, [1.0], [1.0, 0.0, 0.0], ["a", 0.0], [None, 0.0], [math.nan, 0.0],
             [0.0, 0.0], [2.0, 0.0], {"re": 1.0}, "10", ["1", 0.0], [True, 0.0]]))),
        _set(record, ["factors"], draw(st.sampled_from([None, 5, [None], [{"word": "X" * n}]]))),
        _set(record, ["factors"], [dict(factor, word=draw(st.sampled_from(
            ["", "Q" * n, "I" * n, "X" * (n + 1), 5, None])))]),
        _set(record, ["factors"], [dict(factor, angle=draw(st.sampled_from(JUNK)))]),
    ]
    return draw(st.sampled_from(options))


def _exit_code(argv_before, record, argv_after=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        out = [str(Path(tmp) / "out.json")]
        return main(["-q", *argv_before, str(path), *argv_after, "-o", *out])


@RECORDS
@given(malformed_chains())
def test_malformed_chain_records_are_usage_errors(record):
    with pytest.raises(ValueError):
        ChainSpec.from_json(record)
    assert _exit_code(["spectrum", "--spec"], record) == 2


@RECORDS
@given(malformed_systems())
def test_malformed_system_records_are_usage_errors(record):
    with pytest.raises(ValueError):
        NmrSystemSpec.from_json(record)
    assert _exit_code(["grape", "--target-gate", "identity", "--system"], record) == 2


@RECORDS
@given(record=malformed_decompositions())
def test_malformed_decomposition_records_are_usage_errors(record, tmp_path_factory):
    with pytest.raises(ValueError):
        ProductDecomposition.from_json(record)
    system = tmp_path_factory.getbasetemp() / "two_spin.json"
    system.write_text(json.dumps(NmrSystemSpec(
        (100.0, -50.0), ((0.0, 10.0), (10.0, 0.0)), ((1, 2),), (1.0,)).to_json()))
    assert _exit_code(
        ["grape", "--system", str(system), "--target-decomposition"], record) == 2


def test_constructors_refuse_bools_strings_and_generators_by_path():
    def system(shift=0.0, coupling=0.0, spin=1, weight=1.0):
        return NmrSystemSpec((shift,), ((coupling,),), ((spin,),), (weight,))

    def config(**field):
        return GrapeConfig(**{"steps": 5, "dt": 1e-4, "amp_max_hz": 100.0, **field})

    for bad in (True, "0.5"):
        cases = [
            (lambda: ChainSpec((bad,), (0.0, 0.0)), "couplings[0]"),
            (lambda: ChainSpec((1.0,), (0.0, bad)), "fields[1]"),
            (lambda: system(shift=bad), "shifts_hz[0]"),
            (lambda: system(coupling=bad), "couplings_hz[0][0]"),
            (lambda: system(spin=bad), "channels[0][0]"),
            (lambda: system(weight=bad), "weights[0]"),
            *((lambda name=name: config(**{name: bad}), name)
              for name in ("steps", "max_iterations", "dt", "amp_max_hz", "stop_fidelity")),
        ]
        for build, path in cases:
            with pytest.raises(ValueError, match=re.escape(path) + " must be an? "):
                build()
    # Lists, tuples and 1-d arrays are arrays; generators and 2-d arrays are not.
    assert ChainSpec([1.0], np.zeros(2)) == ChainSpec((1.0,), (0.0, 0.0))
    with pytest.raises(ValueError, match="couplings must be an array"):
        ChainSpec((j for j in (1.0,)), (0.0, 0.0))
    with pytest.raises(ValueError, match="fields must be an array"):
        ChainSpec((1.0,), np.zeros((1, 2)))
