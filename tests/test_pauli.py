"""Pauli word algebra, dense lifts, groups, and subgroup chains."""

import itertools
import math
from functools import reduce
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from mirrorchain import pauli as pauli_module
from mirrorchain.decompose import _heaviest_maximal_subgroup
from mirrorchain.pauli import (
    LETTERS,
    PauliGroup,
    PauliString,
    SubgroupChain,
    _canonical_order,
    _echelon,
    _walsh,
    apply_word_exponential,
    commutes,
    group_closure,
    maximal_subgroup,
    pauli_matrix,
    support_group,
    word_exponential,
    word_trace,
    xz_traces,
)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ONE_QUBIT = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_word(letters: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in letters:
        out = np.kron(out, ONE_QUBIT[ch])
    return out


def random_word(rng, n, allow_identity=True) -> PauliString:
    while True:
        w = PauliString("".join(LETTERS[k] for k in rng.integers(0, 4, n)))
        if allow_identity or not w.is_identity:
            return w


def packed(word: PauliString) -> int:
    x, z = word.masks
    return x << word.n_sites | z


def reference_rank(vectors) -> int:
    """F2 rank of packed words, by a pivot table keyed on the leading bit."""
    table: dict[int, int] = {}
    for v in vectors:
        while v and v.bit_length() - 1 in table:
            v ^= table[v.bit_length() - 1]
        if v:
            table[v.bit_length() - 1] = v
    return len(table)


def reference_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def reference_maximal_subgroup(G: PauliGroup) -> frozenset[PauliString]:
    """The span of the first rank(G) - 1 independent non-identity elements in
    canonical order, grown greedily one independent element at a time."""
    vectors = [packed(e) for e in G.sorted_elements if not e.is_identity]
    target = reference_rank(vectors) - 1
    span, added = {0}, 0
    for v in vectors:
        if added == target:
            break
        if v not in span:
            span |= {s ^ v for s in span}
            added += 1
    return frozenset(PauliString.from_masks(p >> G.n_sites, p & ((1 << G.n_sites) - 1),
                                            G.n_sites) for p in span)


def reference_coordinates(G: PauliGroup) -> list[int]:
    """Each element's coordinates, as a bit mask, over the basis that Gaussian
    elimination of the canonically ordered elements reduces them to."""
    table: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, coordinates)
    coords = []
    for e in G.sorted_elements:
        v, c = packed(e), 0
        while v and v.bit_length() - 1 in table:
            tv, tc = table[v.bit_length() - 1]
            v, c = v ^ tv, c ^ tc
        if v:
            table[v.bit_length() - 1] = (v, 1 << len(table))
            c |= 1 << (len(table) - 1)
        coords.append(c)
    return coords


def assert_positions_are_coordinates(G: PauliGroup) -> None:
    """The basis words sit at positions 2^j, and the element at position i is
    the XOR of the basis words at the bits of i."""
    elements = [packed(e) for e in G.sorted_elements]
    assert len(elements) == 1 << len(G.basis)
    assert G.basis == tuple(elements[1 << j] for j in range(len(G.basis)))
    for i, e in enumerate(elements):
        assert e == reduce(xor, (b for j, b in enumerate(G.basis) if i >> j & 1), 0)


def every_word(n: int) -> PauliGroup:
    """The group of all 4^n words: the closure of the single-site X and Z words."""
    return group_closure([PauliString("I" * i + c + "I" * (n - 1 - i))
                          for i in range(n) for c in "XZ"])


def random_group(rng, n: int) -> PauliGroup:
    return group_closure([random_word(rng, n) for _ in range(int(rng.integers(0, 5)))],
                         n_sites=n)


def kron_exponential(word: PauliString, angle: float) -> np.ndarray:
    """cos(angle) I - i sin(angle) M with M built from np.kron: the dense oracle."""
    M = kron_word(word.letters)
    return math.cos(angle) * np.eye(M.shape[0]) - 1j * math.sin(angle) * M


def kernel_words():
    """Every word on 1..4 sites, then 40 random words on 5..6 sites."""
    for n in range(1, 5):
        for t in itertools.product(LETTERS, repeat=n):
            yield PauliString("".join(t))
    rng = np.random.default_rng(70)
    for _ in range(40):
        yield random_word(rng, int(rng.integers(5, 7)))


def random_matrix(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def word_phases(d: int) -> np.ndarray:
    """i^{|x & z|} at [x, z]: the word phase between xz_traces and pauli_coefficients."""
    return np.array([[1j ** ((x & z).bit_count() % 4) for z in range(d)] for x in range(d)])


def pauli_coefficients(M: np.ndarray) -> np.ndarray:
    """All 4^n word traces ``c[x, z] = Tr(M W)`` for the word W with masks (x, z)."""
    a = xz_traces(M)
    return a * word_phases(len(a))


class TestPauliString:
    def test_valid_letters_only(self):
        with pytest.raises(ValueError):
            PauliString("XQ")
        with pytest.raises(ValueError):
            PauliString("")

    def test_ordering_is_site_major(self):
        words = [PauliString(w) for w in ("ZI", "IX", "XX", "II")]
        assert [w.letters for w in sorted(words)] == ["II", "IX", "XX", "ZI"]

    def test_mask_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            w = random_word(rng, n)
            x, z = w.masks
            assert PauliString.from_masks(x, z, n) == w

    def test_identity(self):
        assert PauliString("I" * 3).letters == "III"
        assert PauliString("III").is_identity
        assert not PauliString("IIX").is_identity


class TestMultiplication:
    def test_example(self):
        prod = pauli_matrix(PauliString("XI")) @ pauli_matrix(PauliString("YI"))
        assert np.array_equal(prod, 1j * pauli_matrix(PauliString("ZI")))

    def test_product_word_linear_in_masks(self):
        # the product word (but not the phase) only xors the masks
        rng = np.random.default_rng(2)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            a, b = random_word(rng, n), random_word(rng, n)
            xa, za = a.masks
            xb, zb = b.masks
            prod = pauli_matrix(a) @ pauli_matrix(b)
            word = pauli_matrix(PauliString.from_masks(xa ^ xb, za ^ zb, n))
            phase = np.vdot(word, prod) / (1 << n)
            assert min(abs(phase - p) for p in (1, 1j, -1, -1j)) <= 1e-12
            assert np.allclose(prod, phase * word)

    def test_commutes_matches_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            n = int(rng.integers(1, 5))
            a, b = random_word(rng, n), random_word(rng, n)
            A, B = pauli_matrix(a), pauli_matrix(b)
            assert commutes(a, b) == np.allclose(A @ B, B @ A)

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError):
            commutes(PauliString("X"), PauliString("XX"))


class TestPauliMatrix:
    def test_z(self):
        assert np.array_equal(pauli_matrix(PauliString("Z")), np.diag([1.0, -1.0]))

    def test_kron_order_site_one_first(self):
        assert np.allclose(pauli_matrix(PauliString("XZ")), np.kron(SX, SZ))
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            w = random_word(rng, n)
            assert np.allclose(pauli_matrix(w), kron_word(w.letters))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            pauli_matrix(PauliString("I" * 13))

    def test_word_exponential(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = random_word(rng, int(rng.integers(1, 4)))
            theta = float(rng.uniform(-3, 3))
            want = expm(-1j * theta * kron_word(w.letters))
            assert np.allclose(word_exponential(w, theta), want, atol=1e-12)


class TestWordTrace:
    def test_against_dense_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            d = 1 << n
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            w = random_word(rng, n)
            assert word_trace(M, w) == pytest.approx(
                complex(np.trace(M @ pauli_matrix(w))), abs=1e-9
            )

    def test_orthogonality(self):
        # Tr(P Q) = d [P == Q] over words up to 5 sites (spot-checked pairs)
        rng = np.random.default_rng(6)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            a, b = random_word(rng, n), random_word(rng, n)
            t = word_trace(pauli_matrix(a), b)
            want = float(1 << n) if a == b else 0.0
            assert t == pytest.approx(want, abs=1e-9)


    @pytest.mark.parametrize("n", range(1, 7))
    def test_coefficient_array_matches_every_word_trace(self, n):
        rng = np.random.default_rng(60 + n)
        d = 1 << n
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = pauli_coefficients(M)
        assert c.shape == (d, d)
        for t in itertools.product(LETTERS, repeat=n):
            w = PauliString("".join(t))
            assert abs(c[w.masks] - word_trace(M, w)) <= 1e-12

    @pytest.mark.parametrize("m", range(11))
    def test_walsh_matches_direct_signed_sum(self, m):
        # a[..., z] -> sum_i (-1)^{|i & z|} a[..., i], in place, for real
        # vectors and for complex rows
        rng = np.random.default_rng(70 + m)
        i = np.arange(1 << m)
        shared = i[:, None] & i
        parity = np.zeros_like(shared)
        while shared.any():
            parity, shared = parity ^ (shared & 1), shared >> 1
        H = 1.0 - 2.0 * parity
        for a in (rng.standard_normal(1 << m),
                  rng.standard_normal((3, 1 << m)) + 1j * rng.standard_normal((3, 1 << m))):
            want = a @ H.T
            out = _walsh(a)
            assert out is a
            assert np.abs(a - want).max() <= 1e-12 * (1 << m)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,), (0, 0), (2, 2, 2)])
    def test_coefficient_array_rejects_non_power_of_two_squares(self, shape):
        with pytest.raises(ValueError):
            pauli_coefficients(np.zeros(shape))


class TestWordExponentialKernel:
    """The O(d^2) signed-permutation kernel against kron-built exponentials."""

    def test_kernel_matches_kron_oracle(self):
        rng = np.random.default_rng(71)
        for w in kernel_words():
            theta = float(rng.uniform(-math.pi, math.pi))
            U = random_matrix(rng, 1 << w.n_sites)
            want = U @ kron_exponential(w, theta)
            apply_word_exponential(U, w, theta)
            assert np.abs(U - want).max() <= 1e-12, w
            assert np.abs(word_exponential(w, theta) - kron_exponential(w, theta)).max() <= 1e-12

    def test_kernels_reject_mismatched_sizes(self):
        w = PauliString("XZ")
        for bad in (np.eye(8), np.eye(2), np.ones(4)):
            with pytest.raises(ValueError):
                apply_word_exponential(bad, w, 0.3)

    @pytest.mark.parametrize("angle, message", [
        (math.nan, "angle must be finite"),
        (-math.inf, "angle must be finite"),
        ("0.3", "angle must be a number"),
        (0.3j, "angle must be a number"),
        (None, "angle must be a number"),
    ], ids=["nan", "-inf", "str", "complex", "none"])
    def test_kernel_refuses_a_malformed_angle(self, angle, message):
        U = np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match=f"^{message}"):
            apply_word_exponential(U, PauliString("XZ"), angle)
        assert np.array_equal(U, np.eye(4))
        with pytest.raises(ValueError, match=f"^{message}"):
            word_exponential(PauliString("XZ"), angle)


class TestGroups:
    def test_closure_example(self):
        g = group_closure([PauliString("IZ"), PauliString("ZI")])
        assert set(g) == {PauliString(w) for w in ("II", "IZ", "ZI", "ZZ")}

    def test_closure_empty_seed(self):
        g = group_closure([], n_sites=3)
        assert set(g) == {PauliString("III")}
        with pytest.raises(ValueError):
            group_closure([])

    def test_closure_cardinality_power_of_two(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            seeds = [random_word(rng, n) for _ in range(int(rng.integers(0, 5)))]
            size = len(group_closure(seeds, n_sites=n))
            assert size & (size - 1) == 0

    def test_closure_is_closed(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            g = group_closure([random_word(rng, n) for _ in range(3)], n_sites=n)
            elems = list(g)
            for a in elems:
                for b in elems:
                    (xa, za), (xb, zb) = a.masks, b.masks
                    assert PauliString.from_masks(xa ^ xb, za ^ zb, n) in g

    def test_closure_matches_reference_span(self):
        rng = np.random.default_rng(13)
        for _ in range(80):
            n = int(rng.integers(1, 5))
            seeds = [random_word(rng, n) for _ in range(int(rng.integers(0, 6)))]
            g = group_closure(seeds, n_sites=n)
            assert {packed(e) for e in g} == reference_span(packed(s) for s in seeds)
            assert len(g) == 1 << reference_rank(packed(s) for s in seeds)

    def test_echelon_coordinates_rebuild_every_vector(self):
        # basis[:j] spans the first j independent vectors, so each vector's
        # coordinates stay below 2^(rank of the prefix ending at it)
        rng = np.random.default_rng(14)
        for _ in range(80):
            width = int(rng.integers(1, 7))
            vectors = [int(v) for v in rng.integers(0, 1 << width, int(rng.integers(1, 12)))]
            basis, coords = _echelon(vectors)
            assert len(basis) == reference_rank(vectors)
            assert len({b.bit_length() for b in basis}) == len(basis)
            for k, (v, c) in enumerate(zip(vectors, coords)):
                rebuilt = 0
                for j, b in enumerate(basis):
                    if c >> j & 1:
                        rebuilt ^= b
                assert rebuilt == v
                assert c < 1 << reference_rank(vectors[:k + 1])

    def test_group_echelon_uses_canonical_order(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            g = random_group(rng, int(rng.integers(1, 5)))
            assert_matches_elimination(g)
            assert not hasattr(g, "coords")

    def test_group_rejects_non_closed_sets(self):
        with pytest.raises(ValueError):
            PauliGroup(2, frozenset({PauliString("II"), PauliString("XX"),
                                     PauliString("YY")}))
        with pytest.raises(ValueError):
            PauliGroup(2, frozenset({PauliString("XX")}))  # no identity

    def test_complete(self):
        assert len(every_word(2)) == 16
        assert set(every_word(2)) == {PauliString(a + b) for a in LETTERS for b in LETTERS}


class TestSupportGroup:
    def test_two_site_rotation(self):
        U = math.cos(0.3) * np.eye(4) - 1j * math.sin(0.3) * kron_word("ZZ")
        assert set(support_group(U)) == {PauliString("II"), PauliString("ZZ")}

    def test_rejects_non_unitary(self):
        for bad in (np.ones((4, 4)), np.full((4, 4), np.nan), np.full((4, 4), np.inf)):
            with pytest.raises(ValueError, match="not a finite unitary"):
                support_group(bad.astype(complex))

    def test_random_products(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            d = 1 << n
            words = [random_word(rng, n, allow_identity=False) for _ in range(2)]
            U = np.eye(d, dtype=complex)
            for w in words:
                th = rng.uniform(0.2, 1.3)
                U = U @ (math.cos(th) * np.eye(d) - 1j * math.sin(th) * pauli_matrix(w))
            g = support_group(U)
            for w in words:
                assert w in g


class TestMaximalSubgroup:
    def test_example(self):
        g = group_closure([PauliString("ZZ")])
        m = maximal_subgroup(g)
        assert set(m) == {PauliString("II")}

    def test_index_two(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            g = group_closure([random_word(rng, n) for _ in range(3)], n_sites=n)
            if len(g) == 1:
                continue
            m = maximal_subgroup(g)
            assert 2 * len(m) == len(g)
            assert m.is_subgroup_of(g)

    def test_matches_reference_greedy_span(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            g = random_group(rng, int(rng.integers(1, 5)))
            if len(g) > 1:
                assert maximal_subgroup(g).elements == reference_maximal_subgroup(g)

    def test_trivial_group_has_no_proper_subgroup(self):
        with pytest.raises(ValueError):
            maximal_subgroup(group_closure([], 2))


class TestSubgroupChain:
    def test_automatic_reaches_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            g = group_closure([random_word(rng, n) for _ in range(3)], n_sites=n)
            chain = SubgroupChain.automatic(g)
            assert chain.levels[0] == g
            assert len(chain.levels[-1]) == 1
            for a, b in zip(chain.levels, chain.levels[1:]):
                assert b.is_subgroup_of(a)
                assert 2 * len(b) == len(a)

    def test_automatic_matches_reference_levels(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            chain = SubgroupChain.automatic(random_group(rng, int(rng.integers(1, 5))))
            for a, b in zip(chain.levels, chain.levels[1:]):
                assert b.elements == reference_maximal_subgroup(a)

    def test_rejects_non_nested_levels(self):
        a = group_closure([PauliString("XX")])
        b = group_closure([PauliString("ZZ")])
        with pytest.raises(ValueError):
            SubgroupChain((a, b))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_automatic_tower_needs_no_elimination(self, monkeypatch, n):
        # maximal_subgroup keeps a basis prefix, which is_subgroup_of accepts
        # without eliminating again
        top = group_closure([PauliString("X" * k + "I" * (n - k)) for k in range(1, n + 1)]
                            + [PauliString("Z" * n)])
        assert len(top.basis) >= 4
        calls = []

        def counted(vectors, _original=_echelon):
            calls.append(1)
            return _original(vectors)

        monkeypatch.setattr(pauli_module, "_echelon", counted)
        chain = SubgroupChain.automatic(top)
        assert len(chain) == len(top.basis) + 1 and calls == []

    def test_is_subgroup_of_without_a_basis_prefix(self):
        # subgroups spanned by other words still go through elimination
        rng = np.random.default_rng(20)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            g = random_group(rng, n)
            h = group_closure([random_word(rng, n) for _ in range(int(rng.integers(0, 3)))],
                              n_sites=n)
            for a, b in ((g, h), (h, g)):
                assert a.is_subgroup_of(b) == (a.elements <= b.elements)


def mask_arrays(words) -> tuple[np.ndarray, np.ndarray]:
    xs, zs = zip(*(w.masks for w in words))
    return np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64)


class TestPackedGroups:
    """Groups held as mask arrays against their word-object definitions."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_canonical_order_is_letter_order_for_every_word(self, n):
        words = [PauliString("".join(t)) for t in itertools.product(LETTERS, repeat=n)]
        shuffled = [words[k] for k in np.random.default_rng(n).permutation(len(words))]
        order = _canonical_order(*mask_arrays(shuffled), n)
        assert [shuffled[k].letters for k in order] == [w.letters for w in words]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.text(alphabet=LETTERS, min_size=n, max_size=n), min_size=1, max_size=40, unique=True)))
    def test_canonical_order_is_letter_order(self, letters):
        words = [PauliString(w) for w in letters]
        order = _canonical_order(*mask_arrays(words), words[0].n_sites)
        assert [words[k].letters for k in order] == sorted(letters)

    def test_tower_levels_match_re_elimination(self):
        # Each level of the automatic tower keeps its parent's rows and basis
        # prefix; rebuilding it from its word set, which sorts again, must
        # give the same arrays, whose positions are coordinates.
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            top = group_closure([random_word(rng, n) for _ in range(int(rng.integers(0, 7)))],
                                n_sites=n)
            chain = SubgroupChain.automatic(top)
            assert len(chain) == len(top.basis) + 1
            for parent, level in zip(chain.levels, chain.levels[1:]):
                rebuilt = PauliGroup(n, level.elements)
                for want in (maximal_subgroup(PauliGroup(n, parent.elements)), rebuilt):
                    assert level.elements == want.elements and level.basis == want.basis
                    assert np.array_equal(level.xs, want.xs) and np.array_equal(level.zs, want.zs)
                assert level == rebuilt and hash(level) == hash(rebuilt)
                assert_positions_are_coordinates(level)

    def test_membership_works_on_masks(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            g = random_group(rng, n)
            for t in itertools.product(LETTERS, repeat=n):
                w = PauliString("".join(t))
                assert (w in g) == (w in g.elements)
            assert PauliString("I" * (n + 1)) not in g

    @pytest.mark.parametrize("n", [63, 64, 100])
    def test_words_wider_than_a_machine_integer(self, n):
        g = group_closure([PauliString("X" * n), PauliString("Z" * (n - 1) + "I")])
        assert [w.letters for w in g] == sorted(w.letters for w in g.elements)
        assert PauliString("Y" * (n - 1) + "X") in g and PauliString("Y" * n) not in g
        assert g == PauliGroup(n, g.elements)
        chain = SubgroupChain.automatic(g)
        assert [len(level) for level in chain.levels] == [4, 2, 1]

    def test_groups_are_immutable_and_print_their_shape(self):
        g = group_closure([PauliString("XZ"), PauliString("ZX")])
        hashed = hash(g)
        for name in ("n_sites", "basis", "xs", "zs", "coords"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
            with pytest.raises(AttributeError):
                delattr(g, name)
        with pytest.raises(ValueError):
            g.xs[0] = 1
        assert hash(g) == hashed and g.elements == PauliGroup(2, g.elements).elements
        assert repr(g) == f"PauliGroup(n_sites=2, size=4, basis={g.basis})"


def eliminate_every_element(G: PauliGroup) -> list[int]:
    """The oracle for the basis read-off: the basis that one elimination over
    every element of G in canonical (string) order gives."""
    return _echelon(packed(w) for w in sorted(G.elements))[0]


def assert_matches_elimination(G: PauliGroup) -> None:
    assert_positions_are_coordinates(G)
    assert reference_span(G.basis) == reference_span(eliminate_every_element(G))
    assert list(zip(G.xs.tolist(), G.zs.tolist())) == [w.masks for w in sorted(G.elements)]


def assert_read_off_matches_oracle(G: PauliGroup, rng) -> None:
    """G, every level of its automatic tower and a heaviest maximal subgroup
    against the per-element elimination; each tower level is the first half
    of its parent's arrays, as views of the top group's."""
    assert_matches_elimination(G)
    assert_matches_elimination(PauliGroup(G.n_sites, G.elements))
    chain = SubgroupChain.automatic(G)
    for parent, level in zip(chain.levels, chain.levels[1:]):
        half = len(parent) // 2
        assert level.basis == parent.basis[:-1]
        for name in ("xs", "zs"):
            view = getattr(level, name)
            assert np.array_equal(view, getattr(parent, name)[:half])
            assert np.shares_memory(view, getattr(G, name))
        assert_matches_elimination(level)
    if len(G) > 1:
        assert_matches_elimination(_heaviest_maximal_subgroup(rng.random(len(G)), G))


class TestBasisReadOff:
    """Groups read their basis off the words at positions 2^j."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_group_of_up_to_three_words(self, n):
        words = [PauliString("".join(t)) for t in itertools.product(LETTERS, repeat=n)]
        rng = np.random.default_rng(19)
        for k in range(4):
            for seeds in itertools.combinations(words, k):
                assert_read_off_matches_oracle(group_closure(seeds, n_sites=n), rng)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.text(alphabet=LETTERS, min_size=n, max_size=n), max_size=8))))
    def test_drawn_generating_sets(self, drawn):
        n, letters = drawn
        G = group_closure([PauliString(w) for w in letters], n_sites=n)
        assert_read_off_matches_oracle(G, np.random.default_rng(len(G)))
