"""Headline guarantees, one verdict line per check.

Each test prints a single ``[PASS]``/``[FAIL]`` line and then asserts, so
``pytest tests/test_acceptance.py -v -s`` shows every verdict even on a
fully green run.  The checks exercise the package end to end: closed-form
synthesis, subgroup peeling, spectral structure, state transfer, and
pulse compilation.
"""

import math
import time

import numpy as np

from mirrorchain.chain import (
    MIRROR_TIME,
    ChainSpec,
    chain_propagator,
    check_mirror_condition,
    single_excitation_matrix,
)
from mirrorchain.decompose import (
    closed_form,
    decompose,
    expand,
    gate_fidelity,
    reconstruct,
)
from mirrorchain import grape
from mirrorchain.grape import (
    GrapeConfig,
    NmrSystemSpec,
    control_operators,
    drift_hamiltonian,
    grape_optimize,
)
from mirrorchain.pauli import (
    PauliString,
    SubgroupChain,
    group_closure,
    pauli_matrix,
    support_group,
)
from mirrorchain.states import embed_operator
from mirrorchain.transfer import sector_phases, transfer_entangled

P = PauliString


def verdict(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def random_word(rng, n_sites: int) -> PauliString:
    while True:
        letters = "".join("IXYZ"[k] for k in rng.integers(0, 4, n_sites))
        if set(letters) != {"I"}:
            return P(letters)


def every_word(n_sites: int):
    """The group of all 4^n words: the closure of the single-site X and Z words."""
    return group_closure([P("I" * i + c + "I" * (n_sites - 1 - i))
                          for i in range(n_sites) for c in "XZ"])


def test_01_closed_form_product_matches_engineered_propagator():
    t0 = time.monotonic()
    worst = 1.0
    for n in range(2, 11):
        U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
        worst = min(worst, gate_fidelity(reconstruct(closed_form(n)), U))
    elapsed = time.monotonic() - t0
    verdict(
        "closed-form products reproduce the engineered propagators for 2..10 "
        f"sites (worst fidelity {worst:.12f}, {elapsed:.1f}s of 60s)",
        worst >= 1.0 - 1e-9 and elapsed <= 60.0,
    )


def test_02_subgroup_peel_recovers_the_reference_factors():
    t0 = time.monotonic()

    U4 = chain_propagator(ChainSpec.engineered(4), MIRROR_TIME)
    tower4 = SubgroupChain((
        support_group(U4),
        group_closure([P("IXXI"), P("IYYI"), P("XIIX"), P("XXXX")], n_sites=4),
        group_closure([P("IXXI"), P("IYYI")], n_sites=4),
        group_closure([P("IXXI")], n_sites=4),
        group_closure([], n_sites=4),
    ))
    dec4, _ = decompose(U4, tower4)
    got4 = {w.letters: abs(a) for w, a in dec4.factors}
    ok = set(got4) == {"YZZY", "XZZX", "IXXI", "IYYI"}
    ok = ok and all(abs(v - math.pi / 4.0) <= 1e-9 for v in got4.values())
    ok = ok and gate_fidelity(reconstruct(dec4), U4) >= 1.0 - 1e-9

    words5 = ["XZZZY", "YZZZX", "IXZYI", "IYZXI", "XYIYX"]
    tower5 = SubgroupChain(tuple(
        group_closure([P(w) for w in words5[k:]], n_sites=5) for k in range(6)
    ))
    U5 = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    dec5, _ = decompose(U5, tower5)
    got5 = {w.letters: abs(a) for w, a in dec5.factors}
    want5 = {w: (math.pi / 2.0 if w == "XYIYX" else math.pi / 4.0) for w in words5}
    ok = ok and set(got5) == set(want5)
    ok = ok and all(abs(got5[w] - want5[w]) <= 1e-9 for w in got5)
    ok = ok and gate_fidelity(reconstruct(dec5), U5) >= 1.0 - 1e-9

    elapsed = time.monotonic() - t0
    verdict(
        "peeling the 4- and 5-site mirror gates along their nested subgroup "
        "towers yields the reference factor sets: {YZZY, XZZX, IXXI, IYYI} "
        "at |pi/4| and {XZZZY, YZZZX, IXZYI, IYZXI} at |pi/4| plus XYIYX at "
        f"|pi/2| ({elapsed:.1f}s of 120s)",
        ok and elapsed <= 120.0,
    )


def test_03_engineered_spectrum_is_an_integer_ladder_with_mirror_phases():
    ok = True
    worst = 0.0
    for n in range(2, 13):
        spec = ChainSpec.engineered(n)
        evals = np.sort(np.linalg.eigvalsh(single_excitation_matrix(spec)))
        ladder = np.arange(-(n - 1), n, 2, dtype=float)
        worst = max(worst, float(np.abs(evals - ladder).max()))
        ok = ok and check_mirror_condition(spec, MIRROR_TIME).satisfied
    verdict(
        "engineered chains carry the integer eigenvalue ladder (worst "
        f"deviation {worst:.2e} of 1e-9) and satisfy the mirror phase "
        "condition for 2..12 sites",
        ok and worst <= 1e-9,
    )


def test_04_bell_pairs_arrive_at_the_mirror_sites():
    ok = True
    for mode in ("pure", "deviation"):
        rep = transfer_entangled(5, (1, 2), "phi+", mode=mode)
        ok = ok and rep.bell_label == "phi-"
        ok = ok and tuple(rep.destination_sites) == (4, 5)
        ok = ok and rep.fidelity >= 1.0 - 1e-9
        rep = transfer_entangled(5, (1, 2), "psi+", mode=mode)
        ok = ok and rep.bell_label == "psi+"
        ok = ok and rep.fidelity >= 1.0 - 1e-9
    verdict(
        "the 5-site chain sends (1,2) Bell pairs to (4,5) at fidelity >= "
        "1-1e-9 in pure and deviation modes, with phi+ -> phi- and "
        "psi+ -> psi+",
        ok,
    )


def test_05_site_one_x_operator_picks_up_the_z_string():
    U = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    sx = embed_operator(pauli_matrix(P("X")), (1,), 5)
    evolved = U @ sx @ U.conj().T
    err = float(np.abs(evolved - pauli_matrix(P("ZZZZX"))).max())
    verdict(
        "sigma_x on site 1 of the 5-site chain evolves to the anti-phase "
        f"string ZZZZX (largest entry error {err:.2e} of 1e-9)",
        err <= 1e-9,
    )


def test_06_mirror_phases_depend_only_on_excitation_count():
    ok = True
    for n in range(2, 11):
        U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
        try:
            table = sector_phases(U, n)  # raises on any inconsistent sector
        except ValueError:
            ok = False
            continue
        ok = ok and len(table.phases) == n + 1
        ok = ok and all(abs(abs(p) - 1.0) <= 1e-9 for p in table.phases)
    table5 = sector_phases(chain_propagator(ChainSpec.engineered(5), MIRROR_TIME), 5)
    one = table5.phases[1] / table5.phases[0]
    two = table5.phases[2] / table5.phases[0]
    ok = ok and abs(one - 1.0) <= 1e-9 and abs(two + 1.0) <= 1e-9
    verdict(
        "mirror propagators act as site reversal times one phase per "
        "excitation sector for 2..10 sites; at 5 sites the one-excitation "
        "sector is in phase (+1) and the two-excitation sector is inverted "
        "(-1)",
        ok,
    )


SINGLE_SPIN = NmrSystemSpec((0.0,), ((0.0,),), ((1,),), (1.0,))

TWO_SPIN_10HZ = NmrSystemSpec(
    shifts_hz=(0.0, 0.0),
    couplings_hz=((0.0, 10.0), (10.0, 0.0)),
    channels=((1,), (2,)),
    weights=(1.0, 1.0),
)

THREE_SPIN_HETERO = NmrSystemSpec(
    shifts_hz=(150.0, -80.0, 220.0),
    couplings_hz=((0.0, 45.0, 18.0), (45.0, 0.0, 60.0), (18.0, 60.0, 0.0)),
    channels=((1,), (2,), (3,)),
    weights=(1.0, 1.0, 1.0),
)

THREE_SPIN_GRAD = NmrSystemSpec(
    shifts_hz=(120.0, -40.0, 310.0),
    couplings_hz=((0.0, 8.0, 2.0), (8.0, 0.0, 12.0), (2.0, 12.0, 0.0)),
    channels=((1, 2), (3,)),
    weights=(1.0, 0.94),
)


def test_07_pulse_compilation_reaches_the_fidelity_bar():
    runs = []

    t0 = time.monotonic()
    res = grape_optimize(
        SINGLE_SPIN,
        pauli_matrix(P("X")),
        GrapeConfig(steps=20, dt=1e-4, amp_max_hz=2000.0, stop_fidelity=0.99, seed=1),
    )
    runs.append(("X", res, time.monotonic() - t0))

    target = math.cos(math.pi / 4.0) * np.eye(4) - 1j * math.sin(
        math.pi / 4.0
    ) * pauli_matrix(P("ZZ"))
    t0 = time.monotonic()
    res = grape_optimize(
        TWO_SPIN_10HZ,
        target,
        GrapeConfig(steps=25, dt=2e-3, amp_max_hz=500.0, stop_fidelity=0.995, seed=2),
    )
    runs.append(("ZZ", res, time.monotonic() - t0))

    rng = np.random.default_rng(12)
    word = "".join("IXYZ"[k] for k in rng.integers(0, 4, 3))
    if set(word) == {"I"}:
        word = "XYZ"
    theta = float(rng.uniform(0.3, 1.2))
    target = math.cos(theta) * np.eye(8) - 1j * math.sin(theta) * pauli_matrix(P(word))
    t0 = time.monotonic()
    res = grape_optimize(
        THREE_SPIN_HETERO,
        target,
        GrapeConfig(
            steps=50,
            dt=1e-3,
            amp_max_hz=500.0,
            stop_fidelity=0.995,
            seed=3,
            rf_scales=(1.0,),
        ),
    )
    runs.append((word, res, time.monotonic() - t0))

    ok = all(
        r.fidelity >= 0.99 and r.iterations <= 200 and dt <= 300.0
        for _, r, dt in runs
    )

    rng = np.random.default_rng(3)
    M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    V, _ = np.linalg.qr(M)
    u = rng.standard_normal((4, 2, 2)) * 200.0
    dt, h = 2e-4, 1e-4
    plant = drift_hamiltonian(THREE_SPIN_GRAD), control_operators(THREE_SPIN_GRAD), V.conj().T
    _, grad = grape._phi_and_grad(*plant, u, dt, (1.0,))
    worst = 0.0
    for t in range(4):
        for c in range(2):
            for xy in range(2):
                up, um = u.copy(), u.copy()
                up[t, c, xy] += h
                um[t, c, xy] -= h
                fp, _ = grape._phi_and_grad(*plant, up, dt, (1.0,))
                fm, _ = grape._phi_and_grad(*plant, um, dt, (1.0,))
                fd = (fp - fm) / (2.0 * h)
                denom = max(abs(fd), abs(grad[t, c, xy]), 1e-12)
                worst = max(worst, abs(fd - grad[t, c, xy]) / denom)
    ok = ok and worst <= 1e-5

    summary = ", ".join(
        f"{name}: {r.fidelity:.4f} in {r.iterations} iters ({dt:.1f}s)"
        for name, r, dt in runs
    )
    verdict(
        f"pulse compilation reaches fidelity >= 0.99 within 200 iterations "
        f"and 300s per target ({summary}) and the analytic gradient matches "
        f"central differences (worst relative error {worst:.1e} of 1e-5)",
        ok,
    )


def test_08_randomized_coefficient_and_round_trip_properties():
    rng = np.random.default_rng(70)
    ok = True

    worst_parseval = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = 1 << n
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Q, _ = np.linalg.qr(M)
        norm = sum(abs(c) ** 2 for c in expand(Q, every_word(n)).values())
        worst_parseval = max(worst_parseval, abs(norm - 1.0))
    ok = ok and worst_parseval <= 1e-10

    for _ in range(20):
        n = int(rng.integers(1, 5))
        seeds = [random_word(rng, n) for _ in range(int(rng.integers(1, 5)))]
        size = len(group_closure(seeds, n_sites=n))
        ok = ok and size & (size - 1) == 0

    worst_fid = 1.0
    monotone = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = 1 << n
        U = np.eye(d, dtype=complex)
        for _ in range(int(rng.integers(1, 5))):
            w = random_word(rng, n)
            th = float(rng.uniform(-1.4, 1.4))
            U = U @ (math.cos(th) * np.eye(d) - 1j * math.sin(th) * pauli_matrix(w))
        dec, trace = decompose(U)
        worst_fid = min(worst_fid, gate_fidelity(reconstruct(dec), U))
        monotone = monotone and all(
            s.norm_after >= s.norm_before - 1e-9 for s in trace.steps
        )
    ok = ok and worst_fid >= 1.0 - 1e-9 and monotone

    verdict(
        "randomized properties hold: unitaries have unit coefficient norm "
        f"(worst deviation {worst_parseval:.1e} of 1e-10), closures have "
        "power-of-two order, and 100 random exponential products round-trip "
        f"through the peel (worst fidelity {worst_fid:.12f}) with "
        "monotonically growing residual norms",
        ok,
    )
