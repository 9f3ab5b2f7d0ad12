"""Chain Hamiltonians, propagators, and the spectral mirror test."""

import math

import numpy as np
import pytest
import scipy.linalg

from mirrorchain import chain as chain_module
from mirrorchain.chain import (
    DEGENERACY_TOL,
    MAX_CHAIN_SITES,
    MIRROR_TIME,
    ChainSpec,
    _mirror_check_direct,
    build_hamiltonian,
    chain_propagator,
    check_mirror_condition,
    engineered_couplings,
    excitation_sectors,
    propagator,
    single_excitation_matrix,
)
from mirrorchain.pauli import PauliString, pauli_matrix
from mirrorchain.states import (
    basis_index,
    basis_ket,
    bit_label,
    mirror_permutation,
)


def kron_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Reference dense Hamiltonian, summed from Pauli word matrices (checked
    against Kronecker products in test_pauli)."""
    n = spec.n_sites
    d = 1 << n
    H = np.zeros((d, d), dtype=complex)

    def word(letters_at: dict) -> np.ndarray:
        return pauli_matrix(PauliString("".join(letters_at.get(s, "I") for s in range(1, n + 1))))

    for i, J in enumerate(spec.couplings, start=1):
        H += (0.5 * J) * (word({i: "X", i + 1: "X"}) + word({i: "Y", i + 1: "Y"}))
    for i, h in enumerate(spec.fields, start=1):
        H += (0.5 * h) * (word({i: "Z"}) + np.eye(d))
    return H.real


def oracle_chains(n: int, rng: np.random.Generator) -> list:
    """The engineered chain and a seeded chain with nonzero fields."""
    return [
        ChainSpec.engineered(n),
        ChainSpec(rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1.0, 1.0, n)),
    ]


def test_engineered_couplings_values():
    assert engineered_couplings(2) == (1.0,)
    got = engineered_couplings(5)
    want = (2.0, math.sqrt(6.0), math.sqrt(6.0), 2.0)
    assert got == pytest.approx(want)
    with pytest.raises(ValueError):
        engineered_couplings(1)
    assert len(engineered_couplings(MAX_CHAIN_SITES)) == MAX_CHAIN_SITES - 1
    with pytest.raises(ValueError, match="chain-length cap of 2048"):
        engineered_couplings(MAX_CHAIN_SITES + 1)


@pytest.mark.parametrize("call, field", [
    (lambda: engineered_couplings(2.5), "n_sites must be an integer"),
    (lambda: ChainSpec.engineered(True), "n_sites must be an integer"),
    (lambda: propagator(np.diag([0.0, 2.0]), "0.5"), "tau must be a number"),
    (lambda: propagator(np.diag([0.0, 2.0]), True), "tau must be a number"),
    (lambda: chain_propagator(ChainSpec.engineered(3), "1"), "tau must be a number"),
    (lambda: check_mirror_condition(ChainSpec.engineered(3), "a"), "tau must be a number"),
    (lambda: check_mirror_condition(ChainSpec.engineered(3), 1j), "tau must be a number"),
], ids=["couplings-float", "spec-bool", "propagator-str", "propagator-bool",
        "chain-str", "mirror-str", "mirror-complex"])
def test_site_counts_and_times_are_read_as_numbers(call, field):
    with pytest.raises(ValueError, match=f"^{field}"):
        call()


@pytest.mark.parametrize("call", [
    lambda: build_hamiltonian(5),
    lambda: chain_propagator(5, 1.0),
    lambda: single_excitation_matrix(5),
    lambda: check_mirror_condition(5, 1.0),
], ids=["hamiltonian", "chain-propagator", "one-excitation", "mirror"])
def test_chain_functions_refuse_a_spec_that_is_not_a_chain_spec(call):
    with pytest.raises(ValueError, match="^spec must be a ChainSpec, got int"):
        call()


def test_witnesses_are_capped(monkeypatch):
    # Every mirror time pi/2 + 2 pi m realizes the reversal; the witnesses
    # grow with m, and past MAX_WITNESS the report refuses them.
    spec = ChainSpec.engineered(5)
    report = check_mirror_condition(spec, MIRROR_TIME + 20 * math.pi)
    assert report.satisfied and report.witnesses == (-41, -21, 0, 20, 41)
    late = MIRROR_TIME + 40 * math.pi
    assert not check_mirror_condition(spec, late).satisfied
    # The phases still line up there: the cap alone refuses them.
    monkeypatch.setattr(chain_module, "MAX_WITNESS", 1000)
    assert check_mirror_condition(spec, late).satisfied


def test_spec_validation_and_flags():
    with pytest.raises(ValueError):
        ChainSpec((1.0,), (0.0,))  # field count mismatch
    with pytest.raises(ValueError):
        ChainSpec((float("nan"),), (0.0, 0.0))
    with pytest.raises(ValueError, match="chain-length cap"):
        ChainSpec((1.0,) * MAX_CHAIN_SITES, (0.0,) * (MAX_CHAIN_SITES + 1))
    spec = ChainSpec.engineered(4)
    assert spec.n_sites == 4
    assert spec.is_engineered
    assert spec.mirror_symmetric
    lopsided = ChainSpec((1.0, 2.0), (0.0, 0.0, 0.0))
    assert not lopsided.mirror_symmetric
    assert not lopsided.is_engineered


def test_spec_json_round_trip():
    spec = ChainSpec((1.0, 0.5), (0.1, -0.2, 0.1))
    again = ChainSpec.from_json(spec.to_json())
    assert again == spec
    # engineered shorthand omits the arrays
    short = ChainSpec.from_json({"n": 6, "engineered": True})
    assert short == ChainSpec.engineered(6)
    with pytest.raises(ValueError):
        ChainSpec.from_json({"n": 3, "couplings": [1.0], "fields": [0, 0]})
    with pytest.raises(ValueError):
        ChainSpec.from_json({"couplings": [1.0], "fields": [0, 0]})
    with pytest.raises(ValueError):
        ChainSpec.from_json({"n": 2, "couplings": [2.0], "fields": [0, 0],
                             "engineered": True})


def test_single_excitation_matrix_shape():
    spec = ChainSpec((1.0, 2.0), (0.3, 0.4, 0.5))
    got = single_excitation_matrix(spec)
    want = np.array([[0.3, 1.0, 0.0], [1.0, 0.4, 2.0], [0.0, 2.0, 0.5]])
    assert np.allclose(got, want)


def test_hamiltonian_conserves_excitation_number():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        spec = ChainSpec(rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1.0, 1.0, n))
        H = build_hamiltonian(spec)
        assert np.allclose(H, H.conj().T)
        # H never connects labels with different numbers of '1' sites
        for a in range(1 << n):
            for b in range(1 << n):
                if bin(a).count("1") != bin(b).count("1") and abs(H[a, b]) > 1e-12:
                    raise AssertionError(f"H mixes excitation sectors at ({a},{b})")


def test_single_excitation_block_matches_dense():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        spec = ChainSpec(rng.uniform(0.2, 2.0, n - 1), rng.uniform(-1.0, 1.0, n))
        H = build_hamiltonian(spec)
        idx = [basis_index("0" * (i - 1) + "1" + "0" * (n - i)) for i in range(1, n + 1)]
        got = H[np.ix_(idx, idx)]
        assert np.allclose(got, single_excitation_matrix(spec), atol=1e-12)


def test_sector_hamiltonians_match_kron_oracle():
    rng = np.random.default_rng(34)
    for n in range(2, 11):
        for spec in oracle_chains(n, rng):
            assert np.abs(build_hamiltonian(spec) - kron_hamiltonian(spec)).max() <= 1e-12


def test_sector_propagator_matches_dense_oracle():
    # the assembled sector blocks, at the mirror time and off it
    rng = np.random.default_rng(35)
    for n in range(2, 9):
        for spec in oracle_chains(n, rng):
            for tau in (MIRROR_TIME, 0.37):
                U = propagator(kron_hamiltonian(spec), tau)
                assert np.abs(chain_propagator(spec, tau) - U).max() <= 1e-12, (n, spec, tau)


def test_sector_blocks_are_minors_of_the_one_excitation_propagator():
    # free fermions: the block of sector k holds det u[I, J] over the
    # excited-site sets I, J, sorted by site, with no extra sign
    rng = np.random.default_rng(42)
    for n in range(1, 9):
        specs = [ChainSpec(rng.uniform(-1.5, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))]
        if n > 1:
            specs.append(ChainSpec.engineered(n))
        for spec in specs:
            U = chain_propagator(spec, 0.7)
            u = propagator(single_excitation_matrix(spec), 0.7)
            for k, idx in enumerate(excitation_sectors(n)):
                sets = [[i for i, b in enumerate(bit_label(j, n)) if b == "1"] for j in idx]
                minors = np.array([[np.linalg.det(u[np.ix_(I, J)]) if k else 1.0
                                    for J in sets] for I in sets])
                assert np.abs(U[np.ix_(idx, idx)] - minors).max() <= 1e-12, (n, k)


def test_field_offset_keeps_vacuum_static():
    # the (Z_i + 1)/2 form makes the all-'0' label an exact zero mode
    spec = ChainSpec((1.0, 1.0), (0.7, -0.3, 0.7))
    H = build_hamiltonian(spec)
    vac = basis_ket("000")
    assert np.allclose(H @ vac, 0.0, atol=1e-12)


def test_propagator_against_expm():
    # complex Hermitian input, then real symmetric input
    rng = np.random.default_rng(32)
    for k in range(40):
        d = int(rng.integers(2, 9))
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (A + A.conj().T) / 2 if k < 20 else (A.real + A.real.T) / 2
        t = float(rng.uniform(-2.0, 2.0))
        assert np.allclose(propagator(H, t), scipy.linalg.expm(-1j * t * H), atol=1e-10)
    with pytest.raises(ValueError):
        propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    for t in (math.nan, math.inf, 1e308):  # 1e308 * 2 overflows
        with pytest.raises(ValueError, match="tau must be finite"):
            propagator(np.diag([0.0, 2.0]), t)


def test_chain_propagator_is_unitary():
    spec = ChainSpec.engineered(4)
    U = chain_propagator(spec, 0.37)
    assert np.allclose(U @ U.conj().T, np.eye(16), atol=1e-12)


def test_engineered_spectrum_is_integer_ladder():
    for n in range(2, 13):
        evals = np.linalg.eigvalsh(single_excitation_matrix(ChainSpec.engineered(n)))
        want = np.arange(-(n - 1), n, 2, dtype=float)
        assert np.abs(evals - want).max() < 1e-9


def test_engineered_propagator_is_mirror_times_sector_phases():
    # at tau = pi/2 the full-register propagator is site reversal times a
    # phase that depends only on the excitation number k of the label:
    # p_k = w^k (-1)^(k(k-1)/2) with w = (-i)^(N-1)
    for n in range(2, 7):
        U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
        perm = mirror_permutation(n)
        w = (-1j) ** (n - 1)
        want = np.zeros_like(U)
        for j in range(1 << n):
            k = bit_label(j, n).count("1")
            want[perm[j], j] = w**k * (-1) ** (k * (k - 1) // 2)
        assert np.abs(U - want).max() < 1e-9


class TestMirrorCondition:
    def test_engineered_satisfied(self):
        for n in range(2, 13):
            rep = check_mirror_condition(ChainSpec.engineered(n), MIRROR_TIME)
            assert rep.satisfied, f"N={n}"
            assert not rep.degenerate
            assert rep.global_phase is not None
            # parities alternate downward from the top level
            assert list(rep.parities) == [(-1) ** (n - 1 - k) for k in range(n)]

    def test_engineered_global_phase(self):
        # e^{i phi0} must equal (-i)^(N-1)
        for n in range(2, 13):
            rep = check_mirror_condition(ChainSpec.engineered(n), MIRROR_TIME)
            want = (-1j) ** (n - 1)
            assert abs(np.exp(1j * rep.global_phase) - want) < 1e-9
            assert -math.pi < rep.global_phase <= math.pi

    def test_five_site_witnesses(self):
        rep = check_mirror_condition(ChainSpec.engineered(5), MIRROR_TIME)
        assert rep.eigenvalues == pytest.approx((-4.0, -2.0, 0.0, 2.0, 4.0), abs=1e-9)
        assert rep.witnesses == (-1, -1, 0, 0, 1)
        assert rep.global_phase == pytest.approx(0.0, abs=1e-9)

    def test_uniform_three_site_chain_fails(self):
        # uniform couplings are mirror-symmetric but the spectrum
        # (-sqrt2, 0, sqrt2) is incommensurate at tau = pi/2
        rep = check_mirror_condition(ChainSpec((1.0, 1.0), (0.0,) * 3), MIRROR_TIME)
        assert not rep.satisfied
        assert rep.global_phase is None
        assert rep.witnesses is None

    def test_wrong_time_fails(self):
        rep = check_mirror_condition(ChainSpec.engineered(5), 0.9 * MIRROR_TIME)
        assert not rep.satisfied

    def test_scaled_couplings_scale_the_time(self):
        # doubling every J halves the mirror time
        spec = ChainSpec(tuple(2 * j for j in engineered_couplings(6)), (0.0,) * 6)
        assert check_mirror_condition(spec, MIRROR_TIME / 2).satisfied
        assert not check_mirror_condition(spec, MIRROR_TIME).satisfied

    def test_requires_symmetry_and_positivity(self):
        with pytest.raises(ValueError):
            check_mirror_condition(ChainSpec((1.0, 2.0), (0.0,) * 3), MIRROR_TIME)
        with pytest.raises(ValueError):
            check_mirror_condition(ChainSpec((-1.0,), (0.0, 0.0)), MIRROR_TIME)
        for tau in (math.nan, math.inf, 1e308):
            with pytest.raises(ValueError, match="tau must be finite"):
                check_mirror_condition(ChainSpec.engineered(3), tau)

    def test_report_round_trips_to_json(self):
        rep = check_mirror_condition(ChainSpec.engineered(3), MIRROR_TIME)
        data = rep.to_json()
        assert data["satisfied"] is True
        assert data["witnesses"] == list(rep.witnesses)
        assert len(data["eigenvalues"]) == 3

    def test_spectral_verdict_matches_operator_for_random_symmetric_chains(self):
        # the spectral test must agree with directly comparing exp(-i H1 tau)
        # against phase * reversal, satisfied or not
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            half = rng.uniform(0.3, 1.5, (n - 1 + 1) // 2)
            J = np.concatenate([half, half[::-1][(n - 1) % 2:]])
            fh = rng.uniform(-0.8, 0.8, (n + 1) // 2)
            h = np.concatenate([fh, fh[::-1][n % 2:]])
            spec = ChainSpec(tuple(J), tuple(h))
            tau = float(rng.uniform(0.3, 2.0))
            rep = check_mirror_condition(spec, tau)
            U1 = scipy.linalg.expm(-1j * tau * single_excitation_matrix(spec))
            M = U1[::-1, :]
            phase = M[np.argmax(np.abs(np.diag(M))), np.argmax(np.abs(np.diag(M)))]
            direct = bool(
                abs(abs(phase) - 1.0) < 1e-7
                and np.abs(M - phase * np.eye(n)).max() < 1e-7
            )
            assert rep.satisfied == direct

    def test_near_degenerate_spectrum_takes_the_direct_check(self):
        # Wilkinson's W21+ (unit couplings, fields |11 - i|) has eigenvalue
        # pairs 7.1e-14 apart, so the spectral test defers to the operator,
        # which is no mirror at pi/2.
        spec = ChainSpec((1.0,) * 20, tuple(float(abs(11 - i)) for i in range(1, 22)))
        assert np.diff(np.linalg.eigvalsh(single_excitation_matrix(spec))).min() < DEGENERACY_TOL
        rep = check_mirror_condition(spec, MIRROR_TIME)
        assert rep.degenerate is True and rep.satisfied is False
        assert rep.parities == () and rep.global_phase is None and rep.witnesses is None

    def test_direct_check_finds_the_engineered_mirror_phase(self):
        for n in range(2, 13):
            evals, evecs = np.linalg.eigh(single_excitation_matrix(ChainSpec.engineered(n)))
            rep = _mirror_check_direct(MIRROR_TIME, evals, evecs)
            assert rep.satisfied and rep.degenerate, f"N={n}"
            assert abs(np.exp(1j * rep.global_phase) - (-1j) ** (n - 1)) < 1e-9
            assert -math.pi < rep.global_phase <= math.pi

    def test_phase_on_the_minus_pi_tie_reports_pi(self):
        # one site with field 2 at pi/2: phi0 = -pi exactly, which the
        # (-pi, pi] range reports as pi
        rep = check_mirror_condition(ChainSpec((), (2.0,)), MIRROR_TIME)
        assert rep.satisfied and rep.witnesses == (1,)
        assert rep.global_phase == math.pi

    def test_satisfied_report_reconstructs_the_propagator(self):
        # when satisfied, the witnesses and phase pin every eigenphase exactly
        rep = check_mirror_condition(ChainSpec.engineered(7), MIRROR_TIME)
        for eps, s, nwit in zip(rep.eigenvalues, rep.parities, rep.witnesses):
            lhs = eps * rep.mirror_time + rep.global_phase
            rhs = 2.0 * math.pi * nwit + (0.0 if s > 0 else math.pi)
            assert lhs == pytest.approx(rhs, abs=1e-9)
