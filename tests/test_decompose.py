"""Subgroup-peeling synthesis of unitaries into Pauli exponentials.

The four-site mirror propagator is the worked reference case throughout:
its coefficient table, cross weights, peel angles, and residuals are all
known in closed form, so every stage of the peel can be pinned exactly.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mirrorchain import decompose as decompose_module
from mirrorchain import pauli as pauli_module
from mirrorchain.chain import MIRROR_TIME, ChainSpec, chain_propagator
from mirrorchain.cli import main
from mirrorchain.decompose import (
    STALL_TOL,
    DecompositionError,
    ProductDecomposition,
    _coefficients,
    _coordinates,
    _heaviest_maximal_subgroup,
    _Level,
    _stationary_angle,
    closed_form,
    decompose,
    expand,
    gate_fidelity,
    peel_level,
    reconstruct,
)
from mirrorchain.grape import fidelity_hs
from mirrorchain.pauli import (
    _I_POW,
    PauliString,
    SubgroupChain,
    _word_kernel,
    apply_word_exponential,
    group_closure,
    maximal_subgroup,
    pauli_matrix,
    support_group,
    word_exponential,
    word_trace,
    xz_traces,
)

from test_pauli import every_word, reference_coordinates

P = PauliString


def rotation(word: str, angle: float) -> np.ndarray:
    M = pauli_matrix(P(word))
    return math.cos(angle) * np.eye(M.shape[0]) - 1j * math.sin(angle) * M


def random_unitary(rng, d: int) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def level_terms(a, top, parent, child):
    """The peel kernel's (B, W) for every candidate of the level parent > child,
    on top's coefficient vector of the trace array a."""
    c, _ = _coefficients(a, top)
    lv = _Level(parent, _coordinates(top, parent), child, _coordinates(top, child), len(c))
    return lv.terms(c, lv.weight(c))


def weight_terms(a, words, child):
    """The peel kernel's (B, W) for the candidate words, over the group they span with child."""
    parent = group_closure(list(words) + list(child.sorted_elements), child.n_sites)
    B, W = level_terms(a, parent, parent, child)
    candidates = [D for D in parent if D not in child]
    pick = [candidates.index(w) for w in words]
    return B[pick], W[pick]


def child_weight(a, group):
    """The weight of the trace array a on the group's words."""
    return float(np.sum(np.abs(a[group.xs, group.zs]) ** 2))


@pytest.fixture(scope="module")
def mirror4():
    return chain_propagator(ChainSpec.engineered(4), MIRROR_TIME)


@pytest.fixture(scope="module")
def hand_tower4(mirror4):
    top = support_group(mirror4)
    return SubgroupChain(
        (
            top,
            group_closure([P("IXXI"), P("IYYI"), P("XIIX"), P("XXXX")]),
            group_closure([P("IXXI"), P("IYYI")]),
            group_closure([P("IXXI")]),
            group_closure([], 4),
        )
    )


class TestExpand:
    def test_parseval_for_unitaries(self):
        # a unitary has unit total weight over the complete word set
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            U = random_unitary(rng, 1 << n)
            coeffs = expand(U, every_word(n))
            assert sum(abs(c) ** 2 for c in coeffs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_exponential_coefficients(self):
        U = rotation("XY", 0.7)
        c = expand(U, group_closure([P("XY")]))
        assert c[P("II")] == pytest.approx(math.cos(0.7), abs=1e-12)
        assert c[P("XY")] == pytest.approx(-1j * math.sin(0.7), abs=1e-12)

    def test_mirror_coefficient_table(self, mirror4):
        # every coefficient of the 4-site mirror propagator is 1/4 times
        # eta(alpha, beta), with eta = i when exactly one outer/inner letter
        # pair member sits in {I, Z}
        top = support_group(mirror4)
        assert len(top) == 16
        coeffs = expand(mirror4, top)
        for al in "IXYZ":
            for be in "IXYZ":
                one = sum(1 for c in (al, be) if c in "IZ")
                eta = 1j if (one == 1 and al != be) else 1.0
                got = coeffs[P(al + be + be + al)]
                assert abs(got - eta / 4) < 1e-9, (al, be)


def rotated_weight(U, D, child):
    """theta -> child-group weight of U exp(+i theta D), summed from expand()."""
    R = pauli_matrix(D)

    def weight(theta):
        coeffs = expand(U @ (math.cos(theta) * np.eye(len(R)) + 1j * math.sin(theta) * R), child)
        return sum(abs(c) ** 2 for c in coeffs.values())

    return weight


class TestWValue:
    def test_four_site_cross_weights(self, mirror4, hand_tower4):
        a = xz_traces(mirror4) / 16
        g1 = hand_tower4.levels[1]
        g2 = hand_tower4.levels[2]
        for child, want in ((g1, {"YZZY": -0.5, "XZZX": 0.0}),
                            # one level down both survivors tie
                            (g2, {"XZZX": -0.25, "YZZY": -0.25})):
            words = [P(w) for w in want]
            # XZZX lies in g1, so it is no candidate there: only the oracle reads it.
            candidates = [w for w in words if w not in child]
            for word, got in zip(candidates, weight_terms(a, candidates, child)[1]):
                assert got == pytest.approx(want[word.letters], abs=1e-12)
            for word in words:
                _, _, oracle = weight_terms_oracle(mirror4, word, child)
                assert oracle == pytest.approx(want[word.letters], abs=1e-12)

    def test_w_is_half_the_weight_derivative(self):
        # d/dtheta [child weight of U e^{+i theta D}] at 0 equals 2 W
        rng = np.random.default_rng(41)
        child = group_closure([P("ZZ")])
        for _ in range(20):
            U = random_unitary(rng, 4)
            D = P("XY")
            _, (W,) = weight_terms(xz_traces(U) / 4, [D], child)
            h = 1e-6
            f = rotated_weight(U, D, child)
            deriv = (f(h) - f(-h)) / (2 * h)
            assert deriv == pytest.approx(2.0 * W, abs=1e-6)


class TestOptimalAngle:
    def test_four_site_first_peel(self, mirror4, hand_tower4):
        child = hand_tower4.levels[1]
        _, (step,) = peel_level(mirror4, hand_tower4.levels[0], child)
        assert step.word == P("YZZY")
        assert step.angle == pytest.approx(-math.pi / 4, abs=1e-12)
        assert step.w_value == pytest.approx(-0.5, abs=1e-12)
        assert step.delta == pytest.approx(0.0, abs=1e-12)
        assert step.norm_before == pytest.approx(0.5, abs=1e-12)
        assert step.norm_after == pytest.approx(1.0, abs=1e-12)
        A, B, W = weight_terms_oracle(mirror4, step.word, child)
        assert step.norm_before == pytest.approx(A, abs=1e-12)
        assert step.delta == pytest.approx(0.5 * (A - B), abs=1e-12)
        assert step.w_value == pytest.approx(W, abs=1e-12)

    def test_angle_actually_maximizes(self):
        rng = np.random.default_rng(42)
        child = group_closure([P("XX")])
        cases = []
        for _ in range(25):
            U = random_unitary(rng, 4)
            D = P("ZI")
            a = xz_traces(U) / 4
            A = child_weight(a, child)
            (B,), (W,) = weight_terms(a, [D], child)
            if math.hypot(0.5 * (A - B), W) >= STALL_TOL:
                cases.append((A, B, W, rotated_weight(U, D, child), 1e-9))
        # Bare terms on the sinusoid itself, the guard cases included.
        terms = [(*rng.uniform(0, 1, 2), rng.uniform(-0.5, 0.5)) for _ in range(25)]
        terms += [(0.5, 0.5, 0.0), (0.2, 0.8, 0.0), (0.2, 0.8, 1e-13), (0.8, 0.2, -1e-13),
                  (0.3, 0.3, 2e-12), (0.3, 0.7, -0.2)]
        for A, B, W in terms:
            def f(t, A=A, B=B, W=W):
                return A * math.cos(t) ** 2 + B * math.sin(t) ** 2 + W * math.sin(2 * t)
            cases.append((A, B, W, f, 1e-12))
        for A, B, W, f, tol in cases:
            theta, predicted = _stationary_angle(A, B, W)
            got = f(theta)
            assert got == pytest.approx(predicted, abs=tol)
            for t in np.linspace(-math.pi / 2, math.pi / 2, 61):
                assert f(float(t)) <= got + tol
        assert _stationary_angle(0.5, 0.5, 0.0)[0] == 0.0
        assert _stationary_angle(0.2, 0.8, 1e-13)[0] == -math.pi / 2

    def test_stall_when_weight_is_flat(self):
        # a bare Pauli word carries no weight in the child or its D-coset
        U = pauli_matrix(P("ZZ")).astype(complex)
        with pytest.raises(DecompositionError, match="stalled"):
            peel_level(U, group_closure([P("XX")]), group_closure([], 2))


def expand_oracle(U, group):
    """expand() one word_trace at a time: the reference for the array slices."""
    return {w: word_trace(U, w) / U.shape[0] for w in group}


def weight_terms_oracle(U, D, child):
    """(A, B, W) of the peel for candidate D, summed one child word at a time.

    The product D w is phase * m, with the phase read off the word matrices.
    """
    d = U.shape[0]
    A = B = W = 0.0
    for w in child:
        (x1, z1), (x2, z2) = D.masks, w.masks
        m = P.from_masks(x1 ^ x2, z1 ^ z2, D.n_sites)
        phase = np.vdot(pauli_matrix(m), pauli_matrix(D) @ pauli_matrix(w)) / d
        c_w = word_trace(U, w) / d
        c_m = word_trace(U, m) / d
        A += abs(c_w) ** 2
        B += abs(c_m) ** 2
        W += (phase.conjugate() * c_w * c_m.conjugate()).imag
    return A, B, W


@pytest.mark.parametrize("n", range(1, 5))
def test_coefficient_slices_match_the_per_word_oracle(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(4):
        U = random_unitary(rng, 1 << n)
        seeds = ["".join("IXYZ"[k] for k in rng.integers(0, 4, n)) for _ in range(n + 1)]
        parent = group_closure([P(w) for w in seeds] + [P("X" * n)])
        child = maximal_subgroup(parent)
        want = expand_oracle(U, parent)
        got = expand(U, parent)
        assert got.keys() == want.keys()
        assert all(abs(got[w] - want[w]) <= 1e-12 for w in want)
        a = xz_traces(U) / U.shape[0]
        assert child_weight(a, parent) == pytest.approx(
            sum(abs(c) ** 2 for c in want.values()), abs=1e-12)
        A_got = child_weight(a, child)
        candidates = [D for D in parent if D not in child]
        for D, B_got, W_got in zip(candidates, *weight_terms(a, candidates, child)):
            A, B, W = weight_terms_oracle(U, D, child)
            assert A_got == pytest.approx(A, abs=1e-12)
            assert 0.5 * (A_got - B_got) == pytest.approx(0.5 * (A - B), abs=1e-12)
            assert W_got == pytest.approx(W, abs=1e-12)


def popcount(v: np.ndarray) -> np.ndarray:
    """Number of set bits in each entry of a non-negative integer array."""
    out = np.zeros_like(v)
    while v.any():
        out, v = out + (v & 1), v >> 1
    return out


def reference_weight_terms(a, words, child):
    """(B, W) summed over every candidate-child pair at once, with the phase
    i^{-|x1 & z1|} (-1)^{|z1 & cx|} counted bit by bit."""
    dx, dz = (np.array(v)[:, None] for v in zip(*(w.masks for w in words)))
    cx, cz = (np.array(v) for v in zip(*(w.masks for w in child)))
    a_m = a[dx ^ cx, dz ^ cz]
    phase = np.take(_I_POW, -popcount(dx & dz) % 4) * (1 - 2 * (popcount(dz & cx) & 1))
    B = np.sum(np.abs(a_m) ** 2, axis=1)
    W = np.sum((phase * a[cx, cz] * a_m.conj()).imag, axis=1)
    return B, W, (popcount(dz & cx) & 1).any()


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_terms_match_the_pair_reference(n):
    # Levels below a larger top group, as the peel meets them: index-two
    # children (B = weight(parent) - A), index-four ones (a chain that skips a
    # rank) and the identity child, whose cosets all differ in B.  The complete
    # group at n = 5 takes 2^18 pairs per level, so its tables come in blocks.
    rng = np.random.default_rng(80 + n)
    groups = [group_closure([P("".join("IXYZ"[k] for k in rng.integers(0, 4, n)))
                             for _ in range(n + 2)], n) for _ in range(6)]
    if n <= 5:
        groups.insert(0, every_word(n))
    top = group_closure([w for g in groups for w in g.sorted_elements], n)
    odd = False
    for parent in groups:
        if len(parent) == 1:
            continue
        a = xz_traces(random_unitary(rng, 1 << n)) / (1 << n)
        children = [maximal_subgroup(parent), group_closure([], n)]
        if len(parent) >= 4:
            children.append(maximal_subgroup(children[0]))
        for child in children:
            words = [D for D in parent if D not in child]
            B, W, has_odd = reference_weight_terms(a, words, child)
            got_B, got_W = level_terms(a, top, parent, child)
            assert np.abs(got_B - B).max() <= 1e-15 and np.abs(got_W - W).max() <= 1e-15
            odd |= has_odd
    assert odd


def test_coordinates_are_positions_in_the_top_group():
    # Any subgroup, prefix or not, maps to its words' positions in top;
    # a group with a word outside top, or over other sites, is refused.
    rng = np.random.default_rng(50)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        top = group_closure([P("".join("IXYZ"[k] for k in rng.integers(0, 4, n)))
                             for _ in range(int(rng.integers(1, 5)))], n)
        for sub in (maximal_subgroup(top) if len(top) > 1 else top,
                    group_closure(rng.permutation(top.sorted_elements)[:2], n)):
            want = [top.sorted_elements.index(w) for w in sub.sorted_elements]
            assert _coordinates(top, sub).tolist() == want
        words = (P("".join(t)) for t in itertools.product("IXYZ", repeat=n))
        for bad in [group_closure([], n + 1)] + [
                group_closure([w], n) for w in words if w not in top]:
            with pytest.raises(ValueError, match="strictly smaller subgroup"):
                _coordinates(top, bad)


def test_pair_blocks_stay_within_the_memory_bound():
    # Candidate-child pairs come in blocks of at most 2^16.
    top = every_word(5)
    c, _ = _coefficients(xz_traces(random_unitary(np.random.default_rng(49), 32)) / 32, top)
    blocks = []
    for child in (maximal_subgroup(top), maximal_subgroup(maximal_subgroup(top)),
                  group_closure([], 5)):
        lv = _Level(top, np.arange(len(top)), child, _coordinates(top, child), len(c))
        lv.terms(c, lv.weight(c))
        sizes = [pairs.size for _, pairs, _ in lv._tables()]
        assert max(sizes) <= 1 << 16 and sum(sizes) == len(lv.K) * len(child)
        blocks.append(len(sizes))
    assert blocks[0] > 1 and blocks[1] > 1 and blocks[2] == 1


def test_coefficient_update_matches_transform_of_the_product():
    # One factor moves the group's coefficient vector in O(|G|); on the group
    # it must agree with the transform of the dense product, for every n <= 6.
    rng = np.random.default_rng(90)
    for n in range(1, 7):
        d = 1 << n
        groups = [group_closure([P("".join("IXYZ"[k] for k in rng.integers(0, 4, n)))
                                 for _ in range(int(rng.integers(1, n + 3)))], n)
                  for _ in range(6)]
        if n <= 4:
            groups.append(every_word(n))
        for G in groups:
            U = random_unitary(rng, d)
            c, xk = _coefficients(xz_traces(U) / d, G)
            for _ in range(3):
                i = int(rng.integers(len(G)))
                word, theta = G.sorted_elements[i], float(rng.uniform(-math.pi, math.pi))
                _word_kernel(c, i, xk, *word.masks, theta)
                U = U @ word_exponential(word, theta)
                want = xz_traces(U)[G.xs, G.zs] / d
                assert np.abs(c - want).max() <= 1e-12, (G, word)


class TestPeelLevel:
    def test_first_level_of_mirror(self, mirror4, hand_tower4):
        residual, steps = peel_level(
            mirror4, hand_tower4.levels[0], hand_tower4.levels[1], level=1
        )
        assert len(steps) == 1
        (step,) = steps
        assert step.word == P("YZZY")
        assert step.angle == pytest.approx(-math.pi / 4, abs=1e-12)
        assert step.norm_before == pytest.approx(0.5, abs=1e-12)
        assert step.norm_after == pytest.approx(1.0, abs=1e-12)
        coeffs = expand(residual, hand_tower4.levels[1])
        assert sum(abs(c) ** 2 for c in coeffs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_residual_after_two_levels(self, mirror4, hand_tower4):
        # peeling YZZY then XZZX leaves (1 + IZZI + i IXXI + i IYYI)/2;
        # undoing exp(-i theta w) multiplies by rotation(w, -theta) on the
        # right, and the peel angles were both -pi/4
        R = mirror4 @ rotation("YZZY", math.pi / 4) @ rotation("XZZX", math.pi / 4)
        coeffs = expand(R, hand_tower4.levels[2])
        assert coeffs[P("IIII")] == pytest.approx(0.5, abs=1e-9)
        assert coeffs[P("IZZI")] == pytest.approx(0.5, abs=1e-9)
        assert coeffs[P("IXXI")] == pytest.approx(0.5j, abs=1e-9)
        assert coeffs[P("IYYI")] == pytest.approx(0.5j, abs=1e-9)

    def test_no_steps_when_already_inside(self):
        U = rotation("XX", 0.4)
        parent = group_closure([P("XX"), P("ZZ")])
        child = group_closure([P("XX")])
        residual, steps = peel_level(U, parent, child)
        assert steps == ()
        assert np.allclose(residual, U)

    def test_monotone_norms(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            words = [P("XI"), P("IZ"), P("YY")]
            U = np.eye(4, dtype=complex)
            for w in words:
                U = U @ rotation(w.letters, float(rng.uniform(-1.2, 1.2)))
            parent = every_word(2)
            child = group_closure([P("YY")])
            try:
                residual, steps = peel_level(U, parent, child)
            except DecompositionError:
                continue
            for s in steps:
                assert s.norm_after >= s.norm_before - 1e-9

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            peel_level(np.eye(4, dtype=complex),
                       group_closure([P("XX")]), group_closure([P("ZZ")]))
        # A one-site X packs like a two-site ZI: the site counts must match.
        with pytest.raises(ValueError):
            peel_level(np.eye(4, dtype=complex),
                       every_word(2), group_closure([P("X")]))


class _FixedLevel:
    """A stand-in level with fixed (B, W) per candidate: only the selection runs."""

    n = 1

    def __init__(self, B, W):
        self.B, self.W = np.array(B, dtype=float), np.array(W, dtype=float)
        self.P = self.K = np.arange(len(W))
        self.dx, self.dz = np.ones(len(W), dtype=np.int64), np.zeros(len(W), dtype=np.int64)

    def weight(self, c):
        return 0.2

    def terms(self, c, A):
        return self.B, self.W


def chosen_position(monkeypatch, B, W):
    """The position _peel_level's first pass hands the kernel on a fixed level."""
    class Chosen(Exception):
        pass

    def stop(v, flip, *rest):
        raise Chosen(flip)

    monkeypatch.setattr(decompose_module, "_word_kernel", stop)
    with pytest.raises(Chosen) as info:
        decompose_module._peel_level(np.zeros(len(W), complex), np.zeros(len(W), np.int64),
                                     _FixedLevel(B, W), 1, 1.0)
    return info.value.args[0]


def test_selection_takes_the_first_score_near_the_largest(monkeypatch):
    # |W| spreads over 1.2 STALL_TOL, so the first score within STALL_TOL
    # of the largest is not the largest itself.
    W = [1.0, -(1.0 + 0.6 * STALL_TOL), 1.0 + 1.2 * STALL_TOL]
    assert chosen_position(monkeypatch, [0.0] * 3, W) == 1


def test_selection_without_cross_terms_ranks_reachable_weight(monkeypatch):
    # Every |W| <= STALL_TOL, so the score is (A+B)/2 + hypot((A-B)/2, W)
    # with A = 0.2: candidates 1 and 2 tie within STALL_TOL, and 1 comes first.
    B = [0.5, 0.8, 0.8 + 0.5 * STALL_TOL, 0.3]
    W = [0.1 * STALL_TOL, -STALL_TOL, 0.0, STALL_TOL]
    assert chosen_position(monkeypatch, B, W) == 1


class TestDecomposeMirror4:
    def test_hand_tower_factors(self, mirror4, hand_tower4):
        dec, trace = decompose(mirror4, chain=hand_tower4)
        assert dec.n_sites == 4
        assert {w.letters for w in dec.words} == {"YZZY", "XZZX", "IXXI", "IYYI"}
        for _, angle in dec.factors:
            assert angle == pytest.approx(-math.pi / 4, abs=1e-9)
        assert dec.global_phase == pytest.approx(1.0, abs=1e-9)
        # factors are stored leftmost-first: reverse of the peel order
        peel_words = [s.word.letters for s in trace.steps]
        assert [w.letters for w in dec.words] == peel_words[::-1]
        assert np.abs(reconstruct(dec) - mirror4).max() < 1e-8

    def test_automatic_chain_matches(self, mirror4):
        dec, _ = decompose(mirror4)
        assert {w.letters for w in dec.words} == {"YZZY", "XZZX", "IXXI", "IYYI"}
        for _, angle in dec.factors:
            assert angle == pytest.approx(-math.pi / 4, abs=1e-9)

    def test_trace_records_levels(self, mirror4, hand_tower4):
        _, trace = decompose(mirror4, chain=hand_tower4)
        assert [s.level for s in trace.steps] == [1, 2, 3, 4]
        data = trace.to_json()
        assert [d["word"] for d in data["steps"]] == [
            s.word.letters for s in trace.steps
        ]


@pytest.fixture(scope="module")
def mirror5():
    return chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)


@pytest.fixture(scope="module")
def hand_tower5():
    gens = [P("XZZZY"), P("YZZZX"), P("IXZYI"), P("IYZXI"), P("XYIYX")]
    levels = [group_closure(gens[k:]) for k in range(5)]
    levels.append(group_closure([], 5))
    assert [len(g) for g in levels] == [32, 16, 8, 4, 2, 1]
    return SubgroupChain(tuple(levels))


class TestDecomposeMirror5:
    def test_hand_tower_factors(self, mirror5, hand_tower5):
        dec, _ = decompose(mirror5, chain=hand_tower5)
        angles = {w.letters: a for w, a in dec.factors}
        assert set(angles) == {"XZZZY", "YZZZX", "IXZYI", "IYZXI", "XYIYX"}
        assert abs(angles["XYIYX"]) == pytest.approx(math.pi / 2, abs=1e-9)
        for word, a in angles.items():
            if word != "XYIYX":
                assert abs(a) == pytest.approx(math.pi / 4, abs=1e-9)
        assert gate_fidelity(reconstruct(dec), mirror5) >= 1 - 1e-9

    def test_words_match_closed_form(self, mirror5, hand_tower5):
        dec, _ = decompose(mirror5, chain=hand_tower5)
        assert {w.letters for w in dec.words} == {
            w.letters for w in closed_form(5).words
        }

    def test_automatic_chain_still_reconstructs(self, mirror5):
        dec, _ = decompose(mirror5)
        assert gate_fidelity(reconstruct(dec), mirror5) >= 1 - 1e-9


class TestDecomposeGeneral:
    def test_two_site_mirror(self):
        U2 = chain_propagator(ChainSpec.engineered(2), MIRROR_TIME)
        dec, _ = decompose(U2)
        assert {w.letters for w in dec.words} == {"XX", "YY"}
        for _, a in dec.factors:
            assert a == pytest.approx(math.pi / 4, abs=1e-9)

    def test_seeded_round_trips(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            n = int(rng.integers(1, 5))
            d = 1 << n
            U = np.eye(d, dtype=complex)
            for _ in range(int(rng.integers(1, 5))):
                w = P("".join("IXYZ"[k] for k in rng.integers(0, 4, n)))
                if w.is_identity:
                    continue
                U = U @ rotation(w.letters, float(rng.uniform(-1.4, 1.4)))
            U *= np.exp(1j * rng.uniform(-math.pi, math.pi))
            dec, trace = decompose(U)
            assert gate_fidelity(reconstruct(dec), U) >= 1 - 1e-9, f"trial {trial}"
            for s in trace.steps:
                assert s.norm_after >= s.norm_before - 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.ones((4, 4)))

    def test_weight_outside_chain_top(self):
        U = rotation("XX", 0.5)
        bad = SubgroupChain(
            (group_closure([P("ZZ")]), group_closure([], 2))
        )
        with pytest.raises(DecompositionError) as err:
            decompose(U, chain=bad)
        assert err.value.trace is not None
        assert err.value.trace.steps == ()

    def test_chain_site_mismatch(self):
        with pytest.raises(ValueError):
            decompose(np.eye(4, dtype=complex),
                      chain=SubgroupChain.automatic(every_word(1)))

    def test_identity_needs_no_factors(self):
        dec, trace = decompose(np.eye(8, dtype=complex))
        assert dec.factors == ()
        assert dec.global_phase == pytest.approx(1.0)
        assert trace.steps == ()

    def test_pure_phase_input(self):
        dec, _ = decompose(np.exp(0.25j) * np.eye(4, dtype=complex))
        assert dec.factors == ()
        assert dec.global_phase == pytest.approx(np.exp(0.25j), abs=1e-12)


def kron_product(dec: ProductDecomposition) -> np.ndarray:
    """reconstruct() as dense products of kron-built exponentials: the oracle."""
    out = dec.global_phase * np.eye(1 << dec.n_sites, dtype=complex)
    for word, angle in dec.factors:
        out = out @ rotation(word.letters, angle)
    return out


def test_reconstruct_matches_kron_product_oracle():
    # every non-identity word on 1..4 sites in a shuffled product, then
    # 30-factor random products on 5 and 6 sites
    rng = np.random.default_rng(46)
    cases = []
    for n in range(1, 5):
        words = [w for w in every_word(n) if not w.is_identity]
        cases.append([words[k] for k in rng.permutation(len(words))])
    for n in (5, 5, 6, 6):
        cases.append([P("".join("XYZ"[k] for k in rng.integers(0, 3, n))) for _ in range(30)])
    for words in cases:
        angles = rng.uniform(-math.pi, math.pi, len(words))
        phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
        dec = ProductDecomposition(words[0].n_sites, tuple(zip(words, angles)), phase)
        assert np.abs(reconstruct(dec) - kron_product(dec)).max() <= 1e-12


# A random 5-factor product on which the canonical tower stalls, so decompose()
# re-peels with each child chosen as the heaviest maximal subgroup of the residual.
FALLBACK_PRODUCT = [
    ("ZXIXX", -1.1426353620217287),
    ("ZXYZY", -0.8738769945735103),
    ("ZIYXI", 0.1743438557851984),
    ("YXIYX", 0.47403243600865674),
    ("ZXIYZ", 0.5125815024669507),
]
# Its factors once the heaviest subgroup is chosen by its kept weight.  Comparing
# that weight against the best one scaled by 4^-n instead gave 12 factors here.
FALLBACK_FACTORS = [
    ("IIYYZ", -1.5707963267948966),
    ("ZXIXX", 0.4281609647731679),
    ("ZXYZY", 0.6969193322213864),
    ("ZXIYZ", 0.5261457517862386),
    ("YXIYX", 0.47403243600865663),
    ("ZIYXI", 0.08912633701875071),
    ("IXYZZ", 0.15064730793044903),
]


def test_fallback_peel_factors_are_pinned():
    U = np.eye(32, dtype=complex)
    for word, angle in FALLBACK_PRODUCT:
        U = U @ rotation(word, angle)
    with pytest.raises(DecompositionError):
        decompose(U, SubgroupChain.automatic(support_group(U)))
    dec, _ = decompose(U)
    assert [w.letters for w in dec.words] == [w for w, _ in FALLBACK_FACTORS]
    for (_, got), (_, want) in zip(dec.factors, FALLBACK_FACTORS):
        assert got == pytest.approx(want, abs=1e-12)
    assert gate_fidelity(reconstruct(dec), U) >= 1 - 1e-9


def test_trace_names_the_strategy():
    U = np.eye(32, dtype=complex)
    for word, angle in FALLBACK_PRODUCT:
        U = U @ rotation(word, angle)
    with pytest.raises(DecompositionError) as stalled:
        decompose(U, SubgroupChain.automatic(support_group(U)))
    _, trace = decompose(U)
    assert trace.strategy == "heaviest"
    assert trace.dropped == str(stalled.value) and "stalled" in trace.dropped
    _, trace = decompose(chain_propagator(ChainSpec.engineered(4), MIRROR_TIME))
    assert (trace.strategy, trace.dropped) == ("tower", None)
    assert list(trace.to_json()) == ["steps"]


def test_peel_builds_words_only_for_its_factors(monkeypatch):
    # The groups and the peel work on mask arrays: a word object is built
    # for each pass's chosen word and nowhere else.
    built = []
    original = P.__post_init__
    monkeypatch.setattr(P, "__post_init__", lambda self: built.append(original(self)))
    U = chain_propagator(ChainSpec.engineered(6), MIRROR_TIME)
    built.clear()
    dec, trace = decompose(U)
    assert len(dec.factors) == 6
    assert len(built) <= len(trace.steps) + len(dec.factors)


@pytest.mark.parametrize("source, transforms", [("engineered", 1), ("fallback", 1)])
def test_boundary_work_runs_once(monkeypatch, mirror4, source, transforms):
    # One unitarity check and one trace transform serve the support scan and
    # the peel; the fallback restarts from the same trace array.
    if source == "engineered":
        U = mirror4
    else:
        U = np.eye(32, dtype=complex)
        for word, angle in FALLBACK_PRODUCT:
            U = U @ rotation(word, angle)
    calls = {"_as_unitary": 0, "xz_traces": 0}
    for module in (pauli_module, decompose_module):
        for name in calls:
            def counted(*args, _original=getattr(module, name), _name=name):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
    decompose(U)
    assert calls == {"_as_unitary": 1, "xz_traces": transforms}


@pytest.mark.parametrize("source", ["engineered-5", "unitary-4"])
def test_only_the_support_scan_eliminates_long_inputs(monkeypatch, source):
    # Groups read their basis off rank-many sorted words and a tower's levels
    # are prefixes of its top, so the one elimination handed more than
    # 2 rank vectors is the span of the scanned support words.
    if source == "engineered-5":
        spec = ChainSpec.engineered(5)
    else:
        spec = ChainSpec(tuple(np.random.default_rng(4).uniform(0.5, 1.5, 3)), (0.0,) * 4)
    U = chain_propagator(spec, MIRROR_TIME)
    scanned = int(np.count_nonzero(np.abs(xz_traces(U) / len(U)) > 1e-10))
    rank = len(support_group(U).basis)
    sizes = []

    def counted(vectors, _original=pauli_module._echelon):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return _original(vectors)

    for module in (pauli_module, decompose_module):
        monkeypatch.setattr(module, "_echelon", counted)
    decompose(U)
    assert scanned > 2 * rank
    assert [size for size in sizes if size > 2 * rank] == [scanned]


@pytest.mark.parametrize("source", ["engineered-5", "engineered-8", "unitary-4"])
def test_decompose_eliminates_once(monkeypatch, source):
    # A word's canonical position is its coordinates, so neither the groups
    # nor the peel eliminate: the support scan's span is the one elimination.
    if source == "unitary-4":
        spec = ChainSpec(tuple(np.random.default_rng(4).uniform(0.5, 1.5, 3)), (0.0,) * 4)
    else:
        spec = ChainSpec.engineered(int(source.split("-")[1]))
    U = chain_propagator(spec, MIRROR_TIME)
    scanned = int(np.count_nonzero(np.abs(xz_traces(U) / len(U)) > 1e-10))
    sizes = []

    def counted(vectors, _original=pauli_module._echelon):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return _original(vectors)

    for module in (pauli_module, decompose_module):
        monkeypatch.setattr(module, "_echelon", counted)
    _, trace = decompose(U)
    assert trace.strategy == "tower" and sizes == [scanned]


def test_random_chain_reconstructs_to_rounding():
    # Each level stops within PEEL_TOL = 1e-12 of the input's weight, so a
    # random chain away from any mirror time reconstructs to rounding.
    rng = np.random.default_rng(3)
    U = chain_propagator(ChainSpec(tuple(rng.uniform(0.5, 1.5, 6)), (0.0,) * 7), 0.7)
    dec, trace = decompose(U)
    assert 1.0 - trace.fidelity <= 1e-12
    assert 1.0 - gate_fidelity(reconstruct(dec), U) <= 1e-12


@pytest.mark.parametrize("scale", [1 - 4e-11, 1 + 4e-11])
def test_inputs_within_the_unitarity_tolerance_decompose(scale):
    # The unitarity check admits ||U||^2 / d about 1e-10 away from 1, more
    # than PEEL_TOL, so the peel measures against the input's own weight.
    U = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    want, _ = decompose(U)
    dec, trace = decompose(scale * U)
    assert trace.strategy == "tower" and dec.words == want.words
    assert np.allclose([a for _, a in dec.factors], [a for _, a in want.factors], atol=1e-9)


PEEL_CASES = ([("engineered", n) for n in range(2, 9)]
              + [("uniform", 5), ("seeded", 4), ("seeded", 5), ("seeded", 6), ("fallback", 5)])


def peel_input(kind: str, n: int) -> np.ndarray:
    """The unitary of one peel case: a chain at the mirror time, or the fallback product."""
    if kind == "fallback":
        U = np.eye(1 << n, dtype=complex)
        for word, angle in FALLBACK_PRODUCT:
            U = U @ rotation(word, angle)
        return U
    if kind == "engineered":
        spec = ChainSpec.engineered(n)
    elif kind == "uniform":
        spec = ChainSpec.load(str(Path(__file__).resolve().parents[1] / "demos" / "specs"
                                  / f"uniform_{n}.json"))
    else:
        rng = np.random.default_rng(n)
        spec = ChainSpec(tuple(rng.uniform(0.5, 1.5, n - 1)), tuple(rng.uniform(-0.5, 0.5, n)))
    return chain_propagator(spec, MIRROR_TIME)


@pytest.mark.parametrize("kind, n", PEEL_CASES)
def test_global_phase_matches_the_dense_residual(kind, n):
    # The peel keeps its residual only as the trace array; applying every
    # step to a dense copy of the input must leave the phase it reports.
    U = peel_input(kind, n)
    dec, trace = decompose(U)
    assert trace.strategy == ("heaviest" if kind == "fallback" else "tower")
    residual = U.copy()
    for s in trace.steps:
        apply_word_exponential(residual, s.word, -s.angle)
    phase = np.trace(residual) / len(U)
    assert abs(dec.global_phase - phase / abs(phase)) <= 1e-12


@pytest.mark.parametrize("kind, n", [("engineered", 6), ("fallback", 5)])
def test_peel_applies_word_exponentials_only_to_reconstruct(monkeypatch, kind, n):
    # Only reconstruct() moves a dense matrix: once per output factor.
    calls = []
    for module in (pauli_module, decompose_module):
        def counted(*args, _original=module.apply_word_exponential):
            calls.append(args[1])
            return _original(*args)
        monkeypatch.setattr(module, "apply_word_exponential", counted)
    dec, trace = decompose(peel_input(kind, n))
    assert len(trace.steps) > 0
    assert calls == list(dec.words)


@pytest.mark.parametrize("kind, n, transforms", [
    ("engineered", 6, 1), ("seeded", 5, 1), ("fallback", 5, 1)])
def test_peel_work_per_factor_is_counted(monkeypatch, kind, n, transforms):
    # One trace transform, and one gather of its top-group entries per peel
    # strategy.  Each factor moves only the top group's coefficient vector,
    # never a d x d array, and dense word exponentials run only inside
    # reconstruct(), once per output factor.
    U = peel_input(kind, n)
    top = len(support_group(U))
    counts = dict.fromkeys(
        ("xz_traces", "coefficients", "rotate", "reconstruct", "exponential",
         "exponential outside"), 0)
    moved = []  # (gathers so far, length of the vector moved) per factor
    active = []  # the counted calls now running, outermost first

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            if name == "exponential" and "reconstruct" not in active:
                counts["exponential outside"] += 1
            if name == "rotate":
                moved.append((counts["coefficients"], len(args[0])))
            active.append(name)
            try:
                return fn(*args)
            finally:
                active.pop()
        return wrapper

    monkeypatch.setattr(decompose_module, "xz_traces", counted("xz_traces", xz_traces))
    monkeypatch.setattr(decompose_module, "_coefficients",
                        counted("coefficients", decompose_module._coefficients))
    monkeypatch.setattr(decompose_module, "_word_kernel", counted("rotate", _word_kernel))
    monkeypatch.setattr(decompose_module, "reconstruct", counted("reconstruct", reconstruct))
    monkeypatch.setattr(decompose_module, "apply_word_exponential",
                        counted("exponential", apply_word_exponential))
    dec, trace = decompose(U)
    assert trace.strategy == ("heaviest" if kind == "fallback" else "tower")
    assert counts["xz_traces"] == transforms
    strategies = 2 if kind == "fallback" else 1
    assert counts["coefficients"] == strategies
    assert counts["exponential"] == len(dec.factors) > 0
    assert counts["exponential outside"] == 0
    # the stalled tower's factors, if any, moved the vector of the first gather
    assert {size for _, size in moved} == {top} and top < len(U) ** 2
    assert sum(t == strategies for t, _ in moved) == len(trace.steps)


@pytest.mark.parametrize("case", ["trivial", "one-site", "skip-rank", "fallback"])
def test_edge_inputs_reconstruct(tmp_path, mirror4, hand_tower4, case):
    # Each input reaches a boundary of the coefficient-vector peel; the dense
    # reconstruction of what it returns must give the input back.
    if case == "trivial":
        # At tau = 0 the top group is {identity}: no level runs, and the
        # phase is the vector's one entry.
        out = tmp_path / "dec.json"
        assert main(["-q", "decompose", "--engineered", "3", "--tau", "0", "-o", str(out)]) == 0
        dec = ProductDecomposition.from_json(json.loads(out.read_text())["decomposition"])
        U = np.eye(8, dtype=complex)
        assert dec.factors == () and dec.global_phase == 1.0
    elif case == "one-site":
        U = random_unitary(np.random.default_rng(48), 2)
        dec, _ = decompose(U)
    elif case == "skip-rank":
        # The first child has index four, so B is summed per coset.
        levels = hand_tower4.levels
        U = mirror4
        dec, trace = decompose(U, SubgroupChain((levels[0],) + levels[2:]))
        assert 2 * len(levels[2]) < len(levels[0])
        assert trace.steps[0].level == 1
    else:
        U = peel_input("fallback", 5)
        dec, trace = decompose(U)
        assert trace.strategy == "heaviest"
    assert np.abs(reconstruct(dec) - U).max() <= 1e-9


def test_heaviest_maximal_subgroup_against_every_functional():
    # each index-two subgroup of G is the kernel of g -> parity(g & v) for
    # some packed mask v, so scanning all 4^n masks finds the heaviest one
    rng = np.random.default_rng(47)
    for _ in range(12):
        n = int(rng.integers(2, 4))
        d = 1 << n
        U = random_unitary(rng, d)
        G = group_closure([P("".join("IXYZ"[k] for k in rng.integers(0, 4, n)))
                           for _ in range(int(rng.integers(2, 5)))], n)
        if len(G) < 4:
            continue
        weight = {w: abs(word_trace(U, w) / d) ** 2 for w in G}
        best = 0.0
        for v in range(1, 1 << (2 * n)):
            kernel = [w for w in G if not ((w.masks[0] << n | w.masks[1]) & v).bit_count() & 1]
            if len(kernel) < len(G):
                best = max(best, sum(weight[w] for w in kernel))
        chosen = _heaviest_maximal_subgroup(np.abs(xz_traces(U)[G.xs, G.zs] / d) ** 2, G)
        assert chosen.is_subgroup_of(G) and 2 * len(chosen) == len(G)
        assert sum(weight[w] for w in chosen) == pytest.approx(best, abs=1e-12)


def test_heaviest_maximal_subgroup_breaks_ties_in_mask_order():
    # Functionals 680 and 1020 keep exactly equal weight of this chain's
    # 1024-word support group, summed exactly with fsum.  The first one in
    # mask order within STALL_TOL of the best must win, whatever rounding
    # the weights pick up on the way.
    spec = ChainSpec(tuple(np.random.default_rng(4).uniform(0.5, 1.5, 5)), (0.0,) * 6)
    U = chain_propagator(spec, MIRROR_TIME)
    G = support_group(U)
    a = xz_traces(U) / U.shape[0]
    assert len(G) == 1024
    coords = reference_coordinates(G)
    weights = [abs(a[w.masks]) ** 2 for w in G.sorted_elements]
    kept = {v: math.fsum(w for w, c in zip(weights, coords) if not (v & c).bit_count() & 1)
            for v in range(1, len(G))}
    best = max(kept.values())
    first = min(v for v, k in kept.items() if k >= best - STALL_TOL)
    assert first == 680 and kept[680] == kept[1020] == best
    want = frozenset(w for w, c in zip(G.sorted_elements, coords) if not (first & c).bit_count() & 1)
    assert _heaviest_maximal_subgroup(np.abs(a[G.xs, G.zs]) ** 2, G).elements == want

    # Within STALL_TOL counts as a tie too: {II, ZZ} is the kernel of the
    # first functional and keeps 5e-13 less than {II, XX}, the second.
    a = np.zeros((4, 4), dtype=complex)
    a[3, 3], a[0, 3], a[3, 0] = math.sqrt(0.2), math.sqrt(0.4), math.sqrt(0.4 + 5e-13)
    G = group_closure([P("XX"), P("ZZ")])
    chosen = _heaviest_maximal_subgroup(np.abs(a[G.xs, G.zs]) ** 2, G)
    assert set(chosen) == {P("II"), P("ZZ")}


class TestProductDecomposition:
    def test_reconstruct_phase_convention(self):
        # i * exp(-i (pi/2) Z) equals Z itself
        dec = ProductDecomposition(1, ((P("Z"), math.pi / 2),), 1j)
        assert np.allclose(reconstruct(dec), pauli_matrix(P("Z")), atol=1e-12)

    def test_factor_order_is_operator_order(self):
        dec = ProductDecomposition(1, ((P("X"), 0.3), (P("Z"), 0.8)), 1.0)
        want = rotation("X", 0.3) @ rotation("Z", 0.8)
        assert np.allclose(reconstruct(dec), want, atol=1e-12)

    def test_json_round_trip(self):
        dec = ProductDecomposition(2, ((P("XY"), -0.25), (P("ZZ"), 1.5)), -1j)
        again = ProductDecomposition.from_json(dec.to_json())
        assert again == dec
        with pytest.raises(ValueError):
            ProductDecomposition.from_json({"n": 2, "factors": []})

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductDecomposition(2, ((P("II"), 0.5),), 1.0)  # identity factor
        with pytest.raises(ValueError):
            ProductDecomposition(2, ((P("X"), 0.5),), 1.0)   # wrong width
        with pytest.raises(ValueError):
            ProductDecomposition(2, (), 2.0)                 # non-unit phase


class TestClosedForm:
    def test_smallest_case_words(self):
        dec = closed_form(2)
        assert [(w.letters, a) for w, a in dec.factors] == [
            ("XX", pytest.approx(math.pi / 4)),
            ("YY", pytest.approx(math.pi / 4)),
        ]
        assert dec.global_phase == 1.0

    def test_odd_case_structure(self):
        dec = closed_form(5)
        words = [w.letters for w in dec.words]
        assert words == ["XZZZY", "YZZZX", "IXZYI", "IYZXI", "XYIYX"]
        # the closing word alternates X/Y inward, skips the center, and is
        # applied first (rightmost factor) at twice the pair angle
        assert [a for _, a in dec.factors] == pytest.approx(
            [-math.pi / 4] * 4 + [-math.pi / 2]
        )
        assert dec.global_phase == pytest.approx(1j)

    def test_matches_propagator_exactly(self):
        for n in range(2, 7):
            U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
            R = reconstruct(closed_form(n))
            assert np.abs(R - U).max() < 1e-7, f"N={n}"

    def test_factor_count_is_linear(self):
        # N factors in all cases: N/2 commuting pairs for even N, plus the
        # one closing half-angle word when N is odd
        for n in range(2, 13):
            dec = closed_form(n)
            assert len(dec.factors) == n
            quarters = [a for _, a in dec.factors if abs(abs(a) - math.pi / 4) < 1e-12]
            halves = [a for _, a in dec.factors if abs(abs(a) - math.pi / 2) < 1e-12]
            assert len(quarters) == n - (n % 2)
            assert len(halves) == n % 2

    def test_commutation_structure(self):
        # the paired words all commute with each other; for odd N the
        # closing word anticommutes with every pair word, so only the
        # pair block may be reordered freely
        from mirrorchain.pauli import commutes

        for n in range(2, 13):
            words = list(closed_form(n).words)
            pairs, closing = (words, None) if n % 2 == 0 else (words[:-1], words[-1])
            for i, a in enumerate(pairs):
                for b in pairs[i + 1:]:
                    assert commutes(a, b), (n, a, b)
            if closing is not None:
                for a in pairs:
                    assert not commutes(a, closing), (n, a)

    def test_pair_block_reorder_invariance(self):
        # permuting the commuting pair block leaves the matrix unchanged
        rng = np.random.default_rng(46)
        for n in range(2, 9):
            dec = closed_form(n)
            cut = len(dec.factors) - (n % 2)
            block = list(dec.factors[:cut])
            perm = rng.permutation(cut)
            shuffled = tuple(block[int(k)] for k in perm) + dec.factors[cut:]
            redone = ProductDecomposition(n, shuffled, dec.global_phase)
            assert np.abs(reconstruct(redone) - reconstruct(dec)).max() < 1e-9

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            closed_form(1)

    @pytest.mark.parametrize("n_sites", [2.5, 4.0, True, "4"])
    def test_site_count_must_be_an_integer(self, n_sites):
        with pytest.raises(ValueError, match="^n_sites must be an integer"):
            closed_form(n_sites)


# Factors of the automatic-chain peel, as the per-word implementation of the
# coefficients produced them: the words, their order and the angles hold.
PINNED_FACTORS = {
    "engineered_4": [
        ("IXXI", -0.7853981633974482),
        ("IYYI", -0.7853981633974483),
        ("XZZX", -0.7853981633974484),
        ("YZZY", -0.7853981633974484),
    ],
    "engineered_5": [
        ("IIIZZ", -1.5707963267948966),
        ("IXZYI", -0.7853981633974485),
        ("IYZXI", 0.7853981633974484),
        ("XZZZY", -0.7853981633974483),
        ("YZZZX", 0.7853981633974483),
    ],
    "engineered_6": [
        ("IIXXII", 0.7853981633974478),
        ("IIYYII", 0.7853981633974476),
        ("IXZZXI", 0.7853981633974482),
        ("IYZZYI", 0.7853981633974482),
        ("XZZZZX", 0.785398163397448),
        ("YZZZZY", 0.7853981633974481),
    ],
    "engineered_7": [
        ("IIIZZZZ", -1.5707963267948966),
        ("IIXZYII", 0.7853981633974483),
        ("IIYZXII", -0.7853981633974483),
        ("IXZZZYI", 0.7853981633974483),
        ("IYZZZXI", -0.7853981633974483),
        ("XZZZZZY", 0.7853981633974484),
        ("YZZZZZX", -0.7853981633974484),
    ],
    "uniform_5": [
        ("IIIXX", 1.0107766405821907),
        ("IIIYY", 1.0107766405821907),
        ("IIXXI", 0.2979271205062097),
        ("IIXZY", 0.508051573799123),
        ("IIYYI", 0.2979271205062097),
        ("IIYZX", -0.5080515737991229),
        ("IXZZX", -0.19949398342278635),
        ("IXZYI", 0.3030638435377062),
        ("IXXII", 1.043144642716296),
        ("IYZZY", -0.19949398342278615),
        ("IYZXI", -0.3030638435377061),
        ("IYYII", 1.043144642716296),
        ("XZZZY", -0.09110967979075946),
        ("XZZXI", -0.1994939834227863),
        ("XXIII", 0.3751851283179713),
        ("XZYII", 0.6469385314761568),
        ("YZZZX", 0.09110967979075947),
        ("YZZYI", -0.1994939834227861),
        ("YYIII", 0.3751851283179714),
        ("YZXII", -0.6469385314761564),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_FACTORS))
def test_factor_sequence_is_pinned(name):
    kind, n = name.split("_")
    n = int(n)
    if kind == "engineered":
        spec = ChainSpec.engineered(n)
    else:
        spec = ChainSpec((1.0,) * (n - 1), (0.0,) * n)
    dec, _ = decompose(chain_propagator(spec, MIRROR_TIME))
    assert [w.letters for w in dec.words] == [w for w, _ in PINNED_FACTORS[name]]
    for (_, got), (_, want) in zip(dec.factors, PINNED_FACTORS[name]):
        assert got == pytest.approx(want, abs=1e-12)


def test_gate_fidelity_properties():
    rng = np.random.default_rng(45)
    U = random_unitary(rng, 8)
    assert gate_fidelity(U, U) == pytest.approx(1.0, abs=1e-12)
    assert gate_fidelity(U, np.exp(1.3j) * U) == pytest.approx(1.0, abs=1e-12)
    V = random_unitary(rng, 8)
    f = gate_fidelity(U, V)
    assert 0.0 <= f <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        gate_fidelity(U, np.eye(4))
    assert fidelity_hs is gate_fidelity


@pytest.mark.parametrize("shape", [(2, 4), (4,), (2, 2, 2)])
def test_gate_fidelity_refuses_non_square_inputs(shape):
    with pytest.raises(ValueError, match="expected two equal square matrices"):
        gate_fidelity(np.ones(shape), np.ones(shape))


def test_synthesis_names_a_malformed_chain_or_decomposition():
    with pytest.raises(ValueError, match="^chain must be a SubgroupChain, got int"):
        decompose(np.eye(4), chain=5)
    with pytest.raises(ValueError, match="^decomposition must be a ProductDecomposition, got str"):
        reconstruct("x")
    with pytest.raises(ValueError, match="^unitary must be numeric"):
        decompose("ab")


def test_gate_fidelity_takes_nested_lists():
    assert gate_fidelity([[1]], [[1]]) == 1.0
    assert gate_fidelity([[0, 1], [1, 0]], [[0, 1j], [1j, 0]]) == 1.0
    with pytest.raises(ValueError, match="expected two equal square matrices"):
        gate_fidelity([1, 0], [1, 0])
