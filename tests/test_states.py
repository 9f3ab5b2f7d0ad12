"""Register states, bit labels, embeddings, reduced matrices."""

import itertools

import numpy as np
import pytest

from mirrorchain.pauli import PauliString, pauli_matrix
from mirrorchain.states import (
    BELL_KINDS,
    QuantumState,
    _site_index,
    basis_index,
    basis_ket,
    bell_state,
    bit_label,
    embed_at,
    embed_operator,
    mirror_permutation,
    partial_trace,
)


def test_z_eigenstate_convention():
    # '1' is the sigma-z = +1 state and sits first in the kron factor
    Z = pauli_matrix(PauliString("Z"))
    assert np.allclose(Z @ basis_ket("1"), basis_ket("1"))
    assert np.allclose(Z @ basis_ket("0"), -basis_ket("0"))
    assert np.allclose(basis_ket("1"), [1.0, 0.0])


def test_basis_index_examples():
    assert basis_index("1") == 0
    assert basis_index("0") == 1
    assert basis_index("11") == 0
    assert basis_index("10") == 1
    assert basis_index("01") == 2
    assert basis_index("00") == 3


def test_basis_index_site_one_is_most_significant():
    # flipping site 1 moves the index by half the register dimension
    assert basis_index("011") - basis_index("111") == 4


def test_bit_label_round_trip():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        idx = int(rng.integers(0, 1 << n))
        assert basis_index(bit_label(idx, n)) == idx


def test_bad_labels():
    with pytest.raises(ValueError):
        basis_index("")
    with pytest.raises(ValueError):
        basis_index("102")
    with pytest.raises(ValueError):
        bit_label(4, 2)


def test_basis_ket_is_kron_of_single_sites():
    one, zero = basis_ket("1"), basis_ket("0")
    assert np.allclose(basis_ket("10"), np.kron(one, zero))
    assert np.allclose(basis_ket("011"), np.kron(zero, np.kron(one, one)))


def test_mirror_permutation_two_sites():
    assert mirror_permutation(2).tolist() == [0, 2, 1, 3]


def test_mirror_permutation_is_involution():
    for n in range(1, 8):
        p = mirror_permutation(n)
        assert np.array_equal(p[p], np.arange(1 << n))


def test_mirror_permutation_reverses_labels():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        p = mirror_permutation(n)
        j = int(rng.integers(0, 1 << n))
        assert bit_label(int(p[j]), n) == bit_label(j, n)[::-1]


def test_bell_states():
    root = 1 / np.sqrt(2)
    assert np.allclose(bell_state("phi+"), root * (basis_ket("00") + basis_ket("11")))
    assert np.allclose(bell_state("psi-"), root * (basis_ket("01") - basis_ket("10")))
    # the four kinds form an orthonormal set
    G = np.array([[np.vdot(bell_state(a), bell_state(b)) for b in BELL_KINDS]
                  for a in BELL_KINDS])
    assert np.allclose(G, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        bell_state("phi")


def test_embed_at_single_site():
    plus = np.array([1.0, 1.0], complex) / np.sqrt(2)
    full = embed_at(plus, (1,), 3)
    assert np.allclose(full, np.kron(plus, basis_ket("00")))


def test_embed_at_pair_order_and_padding():
    # a Bell pair on sites (2, 4) of a 4-site register, |0> elsewhere;
    # site 2 carries the first Bell qubit: psi+ = (|01> + |10>)/sqrt2
    full = embed_at(bell_state("psi+"), (2, 4), 4)
    want = (basis_ket("0001") + basis_ket("0100")) / np.sqrt(2)
    assert np.allclose(full, want)


def test_embed_at_validation():
    with pytest.raises(ValueError):
        embed_at(bell_state("phi+"), (3, 1), 4)   # not ascending
    with pytest.raises(ValueError):
        embed_at(bell_state("phi+"), (1,), 4)     # dim mismatch
    with pytest.raises(ValueError):
        embed_at(basis_ket("1"), (5,), 4)         # out of range


def test_embed_operator_matches_kron():
    X = pauli_matrix(PauliString("X"))
    Y = pauli_matrix(PauliString("Y"))
    I = np.eye(2)
    assert np.allclose(embed_operator(X, (2,), 3), np.kron(I, np.kron(X, I)))
    assert np.allclose(
        embed_operator(np.kron(X, Y), (1, 3), 3),
        np.kron(X, np.kron(I, Y)),
    )


def test_embed_operator_on_scrambled_sites():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(n, 3) + 1))
        sites = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))
        local = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
        lifted = embed_operator(local, sites, n)
        # oracle: act on random product kets, site by site
        word = [np.eye(2)] * n
        vecs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        ket = np.eye(1, dtype=complex).ravel()
        for v in vecs:
            ket = np.kron(ket, v)
        # build the same action by reshaping the local operator onto its sites
        got = lifted @ ket
        tensor = ket.reshape((2,) * n)
        moved = np.moveaxis(tensor, [s - 1 for s in sites], range(k))
        acted = (local @ moved.reshape(1 << k, -1)).reshape((2,) * k + moved.shape[k:])
        back = np.moveaxis(acted, range(k), [s - 1 for s in sites]).ravel()
        assert np.allclose(got, back, atol=1e-10)


def test_site_index_matches_label_loop():
    # P[l, r] against labels spliced site by site; the ket reduction that
    # gathers psi[P] against the matrix reduction of the projector
    rng = np.random.default_rng(25)
    for n in range(1, 6):
        psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        for k in range(n + 1):
            for sites in itertools.combinations(range(1, n + 1), k):
                rest = [s for s in range(1, n + 1) if s not in sites]
                want = np.empty((1 << k, 1 << (n - k)), dtype=int)
                for l, r in itertools.product(range(1 << k), range(1 << (n - k))):
                    bits = [""] * n
                    for s, b in zip(sites, bit_label(l, k) if k else ""):
                        bits[s - 1] = b
                    for s, b in zip(rest, bit_label(r, n - k) if k < n else ""):
                        bits[s - 1] = b
                    want[l, r] = basis_index("".join(bits))
                assert np.array_equal(_site_index(sites, n), want), (n, sites)
                want = partial_trace(np.outer(psi, psi.conj()), sites, n)
                assert np.abs(partial_trace(psi, sites, n) - want).max() <= 1e-12


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    rho = np.outer(bell_state("phi-"), bell_state("phi-").conj())
    assert np.allclose(partial_trace(rho, (1,), 2), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, (2,), 2), np.eye(2) / 2)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        kets = []
        for _ in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            kets.append(v / np.linalg.norm(v))
        full = np.eye(1, dtype=complex).ravel()
        for v in kets:
            full = np.kron(full, v)
        rho = np.outer(full, full.conj())
        keep = tuple(sorted(rng.choice(np.arange(1, n + 1),
                                       size=int(rng.integers(1, n + 1)),
                                       replace=False).tolist()))
        want = np.eye(1, dtype=complex)
        for s in keep:
            want = np.kron(want, np.outer(kets[s - 1], kets[s - 1].conj()))
        assert np.allclose(partial_trace(rho, keep, n), want, atol=1e-10)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(24)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        d = 1 << n
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = A @ A.conj().T
        rho /= np.trace(rho)
        keep = (1, n)
        red = partial_trace(rho, keep, n)
        assert np.trace(red) == pytest.approx(1.0, abs=1e-10)


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState("pure", np.array([1.0, 1.0]))       # unnormalized
    with pytest.raises(ValueError):
        QuantumState("deviation", np.array([[0.4, 0.3], [0.1, -0.4]]))  # not Hermitian
    with pytest.raises(ValueError):
        QuantumState("deviation", np.eye(2))              # not traceless
    with pytest.raises(ValueError):
        QuantumState("thermal", np.eye(2) / 2)            # unknown kind
    with pytest.raises(ValueError, match="kind must be one of"):
        QuantumState("mixed", np.eye(2) / 2)              # density matrices are not a kind
    with pytest.raises(ValueError, match="^data must be numeric"):
        QuantumState("pure", "ab")
    sx = pauli_matrix(PauliString("X"))
    st = QuantumState("deviation", sx)
    assert st.n_sites == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("kind, data", [
    ("pure", basis_ket("1")), ("pure", bell_state("phi+")), ("deviation", np.diag([0.5, -0.5]))])
def test_quantum_state_refuses_non_finite_data(kind, data, bad):
    data = np.array(data, dtype=complex)
    data.flat[0] = bad
    with pytest.raises(ValueError, match="state data must be finite"):
        QuantumState(kind, data)


def test_quantum_state_evolution_kinds():
    rng = np.random.default_rng(25)
    H = rng.standard_normal((4, 4))
    H = H + H.T
    w, V = np.linalg.eigh(H)
    U = V @ np.diag(np.exp(-1j * w)) @ V.conj().T
    ket = QuantumState("pure", bell_state("psi+"))
    assert np.allclose(ket.evolved(U).data, U @ bell_state("psi+"))
    dev = QuantumState("deviation", pauli_matrix(PauliString("ZI")))
    got = dev.evolved(U).data
    assert np.allclose(got, U @ pauli_matrix(PauliString("ZI")) @ U.conj().T)
    assert abs(np.trace(got)) < 1e-12
