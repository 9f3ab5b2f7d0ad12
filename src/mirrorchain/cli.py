"""Command-line front end.

Subcommands
-----------
spectrum    check the mirror-inversion phase condition of a chain
decompose   peel a propagator into Pauli-exponential factors (or emit the
            closed-form product for an engineered chain)
transfer    simulate state transfer to the mirror site(s) and report fidelity
grape       compile a target gate into a piecewise-constant pulse

Exit codes: 0 success (and any requested expectation met), 1 a computed
result missed a requested expectation, 2 usage, parse, or domain error.

Every command writes a machine-readable JSON file, one line of sorted-key
JSON (plus a CSV pulse table for `grape`); identical inputs and seed
produce byte-identical outputs.  A report or CSV overwrites its file in
place and is then cut to length, so the file keeps its inode, its mode bits
and, through a symlink, its target; a target that is not a regular file
(/dev/null, a pipe) is written without truncation.
The human-readable summary goes to standard output only.

The environment variable MIRRORCHAIN_THREADS, when set, seeds the usual
BLAS/OpenMP thread-count variables before numpy is imported; for that
reason the numeric modules are imported inside the command functions.

`main(argv)` may be called any number of times in one process: the
parser is built on the first call and reused, and each call parses into a
fresh namespace, so a flag given to one call never reaches the next.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

__all__ = ["main"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_override() -> str | None:
    raw = os.environ.get("MIRRORCHAIN_THREADS")
    if raw is None or raw == "":
        return None
    # ASCII only: str.isdigit() also takes '²' (which int() refuses) and '٣'.
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        return f"MIRRORCHAIN_THREADS must be a positive integer, got {raw!r}"
    for var in _THREAD_VARS:
        if os.environ.get(var) != raw:
            os.environ[var] = raw
    return None


def _write_json(path: str, payload: dict) -> None:
    """One line of sorted-key JSON; `python -m json.tool` indents it.

    Without `indent` the json module takes its C encoder.
    """
    from .pauli import _write_text

    _write_text(path, json.dumps(payload, sort_keys=True) + "\n")


def _finite(text: str) -> float:
    """argparse type for float flags: a finite number, not nan or inf."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _int_at_least(low: int):
    """argparse type for integer flags with a lower bound."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= low:
                return value
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _numbers(text: str) -> tuple[float, ...]:
    """argparse type for a comma-separated list of numbers."""
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _say(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message)


def _add_chain_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", metavar="FILE", help="chain spec JSON file")
    group.add_argument(
        "--engineered",
        metavar="N",
        type=int,
        help="use the engineered N-site chain",
    )
    return group


def _load_chain(args: argparse.Namespace):
    from .chain import ChainSpec

    if args.spec is not None:
        return ChainSpec.load(args.spec)
    return ChainSpec.engineered(args.engineered)


def cmd_spectrum(args: argparse.Namespace) -> int:
    from .chain import MIRROR_TIME, check_mirror_condition

    spec = _load_chain(args)
    tau = MIRROR_TIME if args.tau is None else args.tau
    report = check_mirror_condition(spec, tau)
    _write_json(args.output, {"chain": spec.to_json(), "report": report.to_json()})
    verdict = "satisfied" if report.satisfied else "NOT satisfied"
    _say(args, f"mirror condition {verdict} for {spec.n_sites} sites at tau={tau!r}")
    _say(args, f"report written to {args.output}")
    if args.expect_mirror and not report.satisfied:
        return 1
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    import numpy as np

    from .chain import MIRROR_TIME, chain_propagator
    from .decompose import (
        DecompositionError,
        closed_form,
        decompose,
        gate_fidelity,
        reconstruct,
    )
    from .pauli import MAX_DENSE_SITES, _check_support_sites

    spec = None
    if args.unitary is not None:
        if args.closed_form:
            raise ValueError("--closed-form needs a chain, not a raw unitary file")
        if args.tau is not None:
            raise ValueError("--tau evolves a chain; a raw unitary file takes no --tau")
        try:
            U = np.load(args.unitary)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"unitary file {args.unitary!r}: {exc}") from None
        if isinstance(U, np.lib.npyio.NpzFile):
            U.close()
            raise ValueError(f"unitary file {args.unitary!r}: an .npz archive, not one .npy array")
        source = {"unitary": args.unitary}
    else:
        spec = _load_chain(args)
        source = {"chain": spec.to_json()}

    if args.closed_form:
        if args.tau is not None:
            raise ValueError("--closed-form fixes tau; do not pass --tau")
        if not spec.is_engineered:
            raise ValueError("--closed-form only matches engineered couplings")
        dec, trace = closed_form(spec.n_sites), None
        U = chain_propagator(spec, MIRROR_TIME) if spec.n_sites <= MAX_DENSE_SITES else None
        fidelity = None if U is None else gate_fidelity(reconstruct(dec), U)
    else:
        if spec is not None:
            # The peel would refuse this size anyway; refuse before the 2^N propagator.
            _check_support_sites(spec.n_sites)
            tau = MIRROR_TIME if args.tau is None else args.tau
            U = chain_propagator(spec, tau)
            source["tau"] = tau
        try:
            dec, trace = decompose(U)
        except DecompositionError as exc:
            payload = {
                "source": source,
                "error": str(exc),
                "trace": exc.trace.to_json() if exc.trace is not None else None,
            }
            _write_json(args.output, payload)
            _say(args, f"decomposition failed: {exc}")
            _say(args, f"partial trace written to {args.output}")
            return 1
        fidelity = trace.fidelity

    payload = {
        "source": source,
        "decomposition": dec.to_json(),
        "trace": None if trace is None else trace.to_json(),
        "reconstruction_fidelity": fidelity,
    }
    _write_json(args.output, payload)
    if trace is None:
        _say(args, f"closed form: {len(dec.factors)} factors for {spec.n_sites} sites")
    else:
        if trace.strategy == "heaviest":
            _say(args, f"{trace.dropped}; peeled on heaviest subgroups instead")
        _say(args, f"{len(dec.factors)} factors:")
        for word, angle in dec.factors:
            _say(args, f"  exp(-i * {angle!r} * {word})")
    if fidelity is not None:
        _say(args, f"reconstruction fidelity {fidelity:.12f}")
    _say(args, f"decomposition written to {args.output}")
    return 0


def cmd_transfer(args: argparse.Namespace) -> int:
    import numpy as np

    from .transfer import transfer_entangled, transfer_single

    spec = _load_chain(args)
    n = spec.n_sites

    if args.site is not None:
        if args.mode == "pure":
            state = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        else:
            state = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        report = transfer_single(n, args.site, state, mode=args.mode, spec=spec)
    else:
        pair_text, kind = args.bell
        try:
            i, j = (int(p) for p in pair_text.split(","))
        except ValueError as exc:
            raise ValueError(
                f"--bell pair must look like '1,2', got {pair_text!r}"
            ) from exc
        report = transfer_entangled(n, (i, j), kind, mode=args.mode, spec=spec)

    _write_json(args.output, {"chain": spec.to_json(), "report": report.to_json()})
    src = ",".join(str(s) for s in report.source_sites)
    dst = ",".join(str(s) for s in report.destination_sites)
    _say(
        args,
        f"sites ({src}) -> ({dst}): fidelity {report.fidelity:.12f}, "
        f"attenuated correlation {report.attenuated_correlation:.12f}",
    )
    if report.bell_label is not None:
        _say(args, f"output classified as {report.bell_label}")
    _say(args, f"report written to {args.output}")
    return 0 if report.fidelity >= args.min_fidelity else 1


def _parse_gate(text: str, n_spins: int):
    """identity | WORD | WORD:ANGLE, where WORD is a Pauli string.

    WORD alone targets that Pauli operator as the gate; WORD:ANGLE targets
    the exponential exp(-i * ANGLE * WORD).
    """
    import numpy as np

    from .pauli import PauliString, pauli_matrix, word_exponential

    if text == "identity":
        return np.eye(1 << n_spins, dtype=complex)
    word_text, colon, angle_text = text.partition(":")
    if colon:
        try:
            angle = _finite(angle_text)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"--target-gate angle: {exc}") from None
    word = PauliString(word_text)
    if word.n_sites != n_spins:
        raise ValueError(f"gate word {word_text!r} is not {n_spins} spins")
    return word_exponential(word, angle) if colon else pauli_matrix(word)


def cmd_grape(args: argparse.Namespace) -> int:
    from .decompose import ProductDecomposition, reconstruct
    from .grape import GrapeConfig, NmrSystemSpec, grape_optimize
    from .pauli import _read_json

    system = NmrSystemSpec.load(args.system)
    if args.target_decomposition is not None:
        record = _read_json(args.target_decomposition)
        if isinstance(record, dict) and "decomposition" in record:
            record = record["decomposition"]
        dec = ProductDecomposition.from_json(record)
        if dec.n_sites != system.n_spins:
            raise ValueError(
                f"decomposition is {dec.n_sites} sites, system has {system.n_spins}"
            )
        target = reconstruct(dec)
    else:
        target = _parse_gate(args.target_gate, system.n_spins)

    config = GrapeConfig(
        steps=args.steps,
        dt=args.dt,
        amp_max_hz=args.amp_max,
        max_iterations=args.max_iterations,
        rf_scales=args.rf_scales,
        stop_fidelity=max(args.stop_fidelity, args.min_fidelity),
        seed=args.seed,
        init=args.init,
    )
    result = grape_optimize(system, target, config)

    result.pulse.write_csv(args.pulse_csv)
    _write_json(
        args.output,
        {"system": system.to_json(), "result": result.to_json()},
    )
    state = "converged" if result.converged else "not converged"
    _say(
        args,
        f"fidelity {result.fidelity:.6f} after {result.iterations} iterations "
        f"({state})",
    )
    _say(args, f"pulse written to {args.pulse_csv}, result to {args.output}")
    return 0 if result.fidelity >= args.min_fidelity else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="mirrorchain",
        description="mirror-inversion chains, Pauli-product synthesis, pulse control",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the stdout summary"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quiet(sp: argparse.ArgumentParser) -> None:
        # Also accepted after the subcommand; SUPPRESS keeps a pre-subcommand
        # -q from being clobbered by the subparser default.
        sp.add_argument(
            "-q",
            "--quiet",
            action="store_true",
            default=argparse.SUPPRESS,
            help="suppress the stdout summary",
        )

    p = sub.add_parser("spectrum", help="check the mirror-inversion condition")
    add_quiet(p)
    _add_chain_source(p)
    p.add_argument("--tau", type=_finite, default=None, help="evolution time (default pi/2)")
    p.add_argument(
        "--expect-mirror",
        action="store_true",
        help="exit 1 unless the condition is satisfied",
    )
    p.add_argument("-o", "--output", default="spectrum.json", metavar="FILE")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("decompose", help="factor a propagator into Pauli exponentials")
    add_quiet(p)
    _add_chain_source(p).add_argument("--unitary", metavar="FILE", help=".npy unitary matrix")
    p.add_argument("--closed-form", action="store_true", help="emit the closed-form product")
    p.add_argument("--tau", type=_finite, default=None,
                   help="chain evolution time (default pi/2; not with --unitary or --closed-form)")
    p.add_argument("-o", "--output", default="decomposition.json", metavar="FILE")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("transfer", help="simulate transfer to the mirror site(s)")
    add_quiet(p)
    _add_chain_source(p)
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--site", type=int, metavar="I", help="send one qubit from site I")
    what.add_argument(
        "--bell",
        nargs=2,
        metavar=("PAIR", "KIND"),
        help="send a Bell pair, e.g. --bell 1,2 phi+",
    )
    p.add_argument("--mode", choices=("pure", "deviation"), default="pure")
    p.add_argument(
        "--min-fidelity",
        type=_finite,
        default=1.0 - 1e-9,
        help="exit 1 below this fidelity (default 1-1e-9)",
    )
    p.add_argument("-o", "--output", default="transfer.json", metavar="FILE")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("grape", help="compile a gate into a control pulse")
    add_quiet(p)
    p.add_argument("--system", required=True, metavar="FILE", help="system spec JSON")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--target-gate",
        metavar="GATE",
        help="identity, a Pauli word, or WORD:ANGLE for exp(-i*ANGLE*WORD)",
    )
    what.add_argument(
        "--target-decomposition", metavar="FILE", help="decomposition JSON file"
    )
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--dt", type=_finite, default=1e-3, help="step duration in seconds")
    p.add_argument("--amp-max", type=_finite, default=1000.0, help="amplitude cap in Hz")
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--rf-scales", type=_numbers, default="0.95,1.0,1.05", metavar="S1,S2,...")
    p.add_argument("--stop-fidelity", type=_finite, default=0.99)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--init", choices=("random", "zero"), default="random")
    p.add_argument(
        "--min-fidelity",
        type=_finite,
        default=0.99,
        help="exit 1 below this fidelity (default 0.99)",
    )
    p.add_argument("--pulse-csv", default="pulse.csv", metavar="FILE")
    p.add_argument("-o", "--output", default="grape.json", metavar="FILE")
    p.set_defaults(func=cmd_grape)

    return parser


def main(argv: list[str] | None = None) -> int:
    problem = _apply_thread_override()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
