"""Product synthesis of unitaries over a descending tower of Pauli groups.

Given a unitary whose Pauli expansion lies inside a word group G0 and a
strictly descending chain G0 > G1 > ... > {identity}, the synthesizer
works level by level: at each level it greedily picks a coset word D and
an angle theta so that U <- U exp(+i theta D) concentrates as much weight
as possible inside the child group, repeating until the child holds all
of it, then descends.  When every level succeeds the residual is a pure
phase g, which proves

    U = g * exp(-i theta_m D_m) * ... * exp(-i theta_1 D_1),

returned with factors in operator order (the first listed factor is the
leftmost operator, hence the last applied to a state).

The per-factor objective is exactly sinusoidal.  With A the child-group
weight of U, B the weight of the coset D*child, and W the cross weight,

    weight(theta) = A cos^2(theta) + B sin^2(theta) + W sin(2 theta)
                  = (A+B)/2 + R cos(2 theta - alpha),

where R = hypot((A-B)/2, W) and alpha = atan2(W, (A-B)/2), so the best
angle is alpha/2 in closed form; no numerical search is involved.  Word
selection maximizes |W|; when every cross term vanishes, candidates are
ranked by the weight they can reach instead (the objective is a sinusoid,
so evaluating its exact stationary point per candidate dominates any
angle grid).  That fallback handles residuals that are already a phase
times a single coset word.

All weights come from the phase-free traces
``a[x, z] = Tr(U X^x Z^z) / 2^n`` (``xz_traces(U) / 2^n``), indexed by a
word's bit masks with site 1 at the most significant bit; a word's
coefficient differs from its entry only by the phase i^{|x & z|}.  The
array is transformed once per decomposition and serves the support scan.
The peel then keeps only the top group G's entries, which hold all of the
residual's weight: one vector c in G's canonical order.  Canonical order
is F2-linear (the element at position k is the product of those at the
positions 2^j for the bits j of k), so a factor ``exp(+i theta D)`` with
D at position K moves c in place in O(|G|), by one gather c[k ^ K] and
one sign per entry; no word matrix is built and no dense product runs.
Each level maps its parent, child and candidates to positions in G once.
At an index-two level every candidate lies in the one coset parent -
child, so B = weight(parent) - A.  The identity sits at position 0, so
the global phase g is the final ``c[0] = Tr(U_res) / 2^n``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .pauli import (
    _I_POW,
    PauliGroup,
    PauliString,
    SubgroupChain,
    _as_unitary,
    _echelon,
    _json_array,
    _json_float,
    _json_int,
    _json_key,
    _json_object,
    _support,
    _walsh,
    _xor_span,
    apply_word_exponential,
    xz_traces,
)

__all__ = [
    "DecompositionError",
    "ProductDecomposition",
    "PeelStep",
    "PeelTrace",
    "expand",
    "peel_level",
    "decompose",
    "reconstruct",
    "closed_form",
    "gate_fidelity",
]

#: Maximum weight a level leaves outside its child (input weight - child norm).
PEEL_TOL = 1e-12
#: Below this, cross terms / gains count as exactly zero.
STALL_TOL = 1e-12
#: Required overlap between the reassembled product and the input.
RECONSTRUCTION_TOL = 1e-9
#: Factors with |angle| at or below this are dropped from the output.
ZERO_ANGLE_TOL = 1e-12


class DecompositionError(RuntimeError):
    """Peel could not complete; `trace` holds the steps taken so far."""

    def __init__(self, message: str, trace: "PeelTrace | None" = None) -> None:
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ProductDecomposition:
    """A unitary written as global_phase * prod_k exp(-i angle_k word_k).

    Factors are stored in operator order: factors[0] is the leftmost
    exponential in the product, i.e. the last one applied to a ket.
    """

    n_sites: int
    factors: tuple[tuple[PauliString, float], ...]
    global_phase: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_sites", n := _json_int(self.n_sites, "n"))
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n!r}")
        factors = _json_array(self.factors, "factors", lambda f, name: _factor(f, name, n))
        object.__setattr__(self, "factors", factors)
        phase = complex(self.global_phase)
        if not cmath.isfinite(phase):
            raise ValueError(f"global_phase must be finite, got {phase!r}")
        if abs(abs(phase) - 1.0) > 1e-9:
            raise ValueError("global phase must have unit modulus")
        object.__setattr__(self, "global_phase", phase / abs(phase))

    @property
    def words(self) -> tuple[PauliString, ...]:
        return tuple(w for w, _ in self.factors)

    def to_json(self) -> dict:
        return {
            "n": self.n_sites,
            "global_phase": [self.global_phase.real, self.global_phase.imag],
            "factors": [
                {"word": w.letters, "angle": a} for w, a in self.factors
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProductDecomposition":
        try:
            _json_object(data, "decomposition record")
            n, phase, factors = (_json_key(data, k) for k in ("n", "global_phase", "factors"))
            phase = _json_array(phase, "global_phase", _json_float)
            if len(phase) != 2:
                raise ValueError(f"global_phase must be two numbers [re, im], got {len(phase)}")
            return cls(n, _json_array(factors, "factors", _json_factor), complex(*phase))
        except ValueError as exc:
            raise ValueError(f"malformed decomposition record: {exc}") from exc


def _factor(value: tuple, name: str, n_sites: int) -> tuple[PauliString, float]:
    """One (word, angle) factor: a non-identity n-site PauliString and a finite angle."""
    word, angle = value
    if not isinstance(word, PauliString) or word.n_sites != n_sites or word.is_identity:
        raise ValueError(
            f"{name}.word must be a non-identity {n_sites}-site Pauli word, got {word!r}")
    return word, _json_float(angle, f"{name}.angle")


def _json_factor(value: object, name: str) -> tuple[PauliString, object]:
    """One {"word", "angle"} factor record as a (word, angle) pair for :func:`_factor`."""
    word = _json_key(_json_object(value, name), "word", f"{name}.")
    try:
        word = PauliString(word)
    except ValueError as exc:
        raise ValueError(f"{name}.word: {exc}") from None
    return word, _json_key(value, "angle", f"{name}.")


@dataclass(frozen=True)
class PeelStep:
    """One applied factor: U <- U exp(+i angle word), taken at `level`."""

    level: int
    word: PauliString
    angle: float
    w_value: float
    delta: float
    norm_before: float
    norm_after: float

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "word": self.word.letters,
            "angle": self.angle,
            "w_value": self.w_value,
            "delta": self.delta,
            "norm_before": self.norm_before,
            "norm_after": self.norm_after,
        }


@dataclass(frozen=True)
class PeelTrace:
    """The per-factor record of a peel run, successful or not.

    `strategy` is "tower", or "heaviest" when the canonical tower stalled
    and `dropped` holds its message.  `fidelity` is the phase-insensitive
    overlap |Tr(P^dag U)| / d of the reassembled product P with the input U,
    equal to ``gate_fidelity(reconstruct(dec), U)``; it is None on a failed
    run.  None of the three goes into the JSON record.
    """

    steps: tuple[PeelStep, ...]
    strategy: str = "tower"
    dropped: str | None = None
    fidelity: float | None = None

    def to_json(self) -> dict:
        return {"steps": [s.to_json() for s in self.steps]}


def _traces(U: np.ndarray, n_sites: int) -> np.ndarray:
    """Normalized phase-free trace array a[x, z] = Tr(U X^x Z^z) / 2^n of U."""
    if U.shape != (1 << n_sites,) * 2:
        raise ValueError(f"matrix shape {U.shape} does not match {n_sites} sites")
    a = xz_traces(U)
    a /= 1 << n_sites
    return a


def expand(U: np.ndarray, group: PauliGroup) -> dict[PauliString, complex]:
    """Pauli coefficients c_w = Tr(w U) / 2^n for every word in the group."""
    a = _traces(U, group.n_sites)
    return {w: complex(a[w.masks] * _I_POW[(w.masks[0] & w.masks[1]).bit_count() % 4])
            for w in group}


def _coefficients(a: np.ndarray, top: PauliGroup) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the trace array a on the group top, in canonical order.

    Returns (c, xk): c[k] is a's entry at the element at position k, and
    xk[k] that element's x mask.  The identity sits at position 0.
    """
    return a[top.xs, top.zs], top.xs


def _coordinates(top: PauliGroup, group: PauliGroup) -> np.ndarray:
    """Each element's position in top's canonical order, in group's canonical order.

    A maximal subgroup keeps a prefix of the basis, and with it the first
    positions.  Otherwise each packed word x << n | z is looked up among
    top's.  Raises ValueError unless group lies in top.
    """
    n = top.n_sites
    if group.n_sites == n and group.basis == top.basis[:len(group.basis)]:
        return np.arange(len(group))
    # Words of at most MAX_DENSE_SITES sites pack into int64.
    keys, want = top.xs << n | top.zs, group.xs << n | group.zs
    order = np.argsort(keys)
    at = order[np.searchsorted(keys, want, sorter=order) % len(top)]
    if group.n_sites != n or not np.array_equal(keys[at], want):
        raise ValueError("child must be a strictly smaller subgroup of parent")
    return at


def _rotate(c: np.ndarray, xk: np.ndarray, K: int, x: int, z: int, angle: float) -> None:
    """Turn the coefficient vector c of U into that of U exp(-i angle D) in place, in O(|G|).

    D sits at position K and has masks (x, z).  Positions are linear, so D
    times the element at position k ^ K is, up to a phase, the element at k:

        c'[k] = cos(angle) c[k] - i sin(angle) i^{|x & z|} (-1)^{|z & xk[k]|} c[k ^ K].
    """
    phase = -1j * math.sin(angle) * _I_POW[(x & z).bit_count() % 4]
    moved = c[np.arange(len(c)) ^ K]
    moved *= np.where(np.bitwise_count(z & xk) & 1, -phase, phase)
    c *= math.cos(angle)
    c += moved


class _Level:
    """One peel level's index arrays into the top group's coefficient vector.

    P and C are the top positions of the parent's and the child's elements
    in canonical order, and `size` the vector's length.  The candidates are
    the parent's elements outside the child, in canonical order: K holds
    their positions and (dx, dz) their masks.  Candidate-child pairs are
    taken in blocks of about 2^16, so memory stays bounded.
    """

    def __init__(self, parent: PauliGroup, P: np.ndarray, child: PauliGroup,
                 C: np.ndarray, size: int) -> None:
        inside = np.zeros(size, dtype=bool)
        inside[C] = True
        outside = ~inside[P]
        self.K = P[outside]
        # C lies in P exactly when the candidates number |P| - |C|.
        if len(C) >= len(P) or len(self.K) != len(P) - len(C):
            raise ValueError("child must be a strictly smaller subgroup of parent")
        self.n, self.P, self.C, self.cx = parent.n_sites, P, C, child.xs
        self.index2 = 2 * len(C) == len(P)
        self.dx, self.dz = parent.xs[outside], parent.zs[outside]
        self.rows = max(1, (1 << 16) // len(C))

    def _tables(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Per block: its candidate slice, the positions K ^ C of every product
        D w, and the conjugate pair phase i^{|x1 & z1| + 2 |z1 & cx|}."""
        power = np.bitwise_count(self.dx & self.dz)
        for lo in range(0, len(self.K), self.rows):
            s = slice(lo, lo + self.rows)
            pair_power = power[s, None] + 2 * np.bitwise_count(self.dz[s, None] & self.cx)
            yield s, self.K[s, None] ^ self.C, np.take(_I_POW, pair_power & 3)

    def weight(self, c: np.ndarray) -> float:
        """A, the child's weight."""
        cw = c[self.C]
        return float(np.vdot(cw, cw).real)

    def terms(self, c: np.ndarray, A: float) -> tuple[np.ndarray, np.ndarray]:
        """(B, W) for every candidate D, from the coefficient vector c.

        With D = (x1, z1) and child words w = (cx, cz), m = D w sits at
        position K ^ k_w.  B is the weight of the coset D*child: at an
        index-two level every candidate lies in the one coset parent - child,
        so B = weight(parent) - A.  W sums Im(i^{-|x1 & z1|} (-1)^{|z1 & cx|}
        c_w conj(c_m)), which is the coefficient form Im(i^-k c_w conj(c_m))
        for D w = i^k m with the word phases cancelled.
        """
        W = np.empty(len(self.K))
        if self.index2:
            cp = c[self.P]
            B = np.full(len(self.K), np.vdot(cp, cp).real - A)
        else:
            B = np.empty(len(self.K))
        conj_cw = c[self.C].conj()
        for s, pairs, phase in self._tables():
            c_m = c[pairs]
            if not self.index2:
                B[s] = np.sum(c_m.real ** 2 + c_m.imag ** 2, axis=1)
            # Im(z) = -Im(conj z): sum conj(phase) conj(c_w) c_m over w as one product.
            c_m *= phase
            W[s] = -(c_m @ conj_cw).imag
        return B, W


def _sinusoid(A: float, B: float, W: float, t: float) -> float:
    return A * math.cos(t) ** 2 + B * math.sin(t) ** 2 + W * math.sin(2.0 * t)


def _stationary_angle(A: float, B: float, W: float) -> tuple[float, float]:
    """Best angle in [-pi/2, pi/2) for A cos^2 + B sin^2 + W sin(2 theta).

    Returns (theta, value).  Both stationary branches are compared on the
    realized value; exact ties go to the smaller |theta|.  A W within
    STALL_TOL of zero counts as zero, so a half turn is always -pi/2:
    +-pi/2 give the same factor up to a global sign, and the sign of a W
    at rounding level must not choose between them.
    """
    if math.hypot(0.5 * (A - B), W) < STALL_TOL:
        return 0.0, _sinusoid(A, B, W, 0.0)
    if abs(W) <= STALL_TOL and A < B:
        return -math.pi / 2.0, _sinusoid(A, B, W, -math.pi / 2.0)
    theta = 0.5 * math.atan2(W, 0.5 * (A - B))
    other = theta - math.pi / 2.0 if theta > 0.0 else theta + math.pi / 2.0
    cands = [
        (theta, _sinusoid(A, B, W, theta)),
        (other, _sinusoid(A, B, W, other)),
    ]
    cands.sort(key=lambda tv: (-tv[1], abs(tv[0])))
    return cands[0]


def peel_level(
    U: np.ndarray, parent: PauliGroup, child: PauliGroup, level: int = 1
) -> tuple[np.ndarray, tuple[PeelStep, ...]]:
    """Strip factors until all of U's weight sits inside the child group.

    Each pass selects the coset word with the largest |W| (ties resolved
    in canonical word order), applies the closed-form optimal exponential
    on the right, and repeats.  When every cross term vanishes while
    weight is still missing, candidates are re-ranked by the exact weight
    their best angle attains; if even that cannot improve, the peel has
    stalled and a :class:`DecompositionError` is raised carrying this
    level's partial trace.

    Returns the residual and the steps taken (empty when U already lies
    in the child's span).
    """
    U = np.array(U, dtype=complex)
    c, xk = _coefficients(a := _traces(U, parent.n_sites), parent)
    lv = _Level(parent, np.arange(len(c)), child, _coordinates(parent, child), len(c))
    steps = _peel_level(c, xk, lv, level, float(np.vdot(a, a).real))
    for s in steps:
        apply_word_exponential(U, s.word, -s.angle)
    return U, steps


def _peel_level(c: np.ndarray, xk: np.ndarray, lv: _Level, level: int,
                weight: float) -> tuple[PeelStep, ...]:
    """:func:`peel_level` on the top group's coefficient vector c, updated in place.

    Each factor moves c in O(|G|) (:func:`_rotate`), so c keeps matching
    the residual on the group that holds all of its weight; the steps alone
    say how to move a dense U.
    """
    steps: list[PeelStep] = []
    max_passes = 4 * len(lv.P)
    A = lv.weight(c)

    for _ in range(max_passes):
        if weight - A <= PEEL_TOL:
            return tuple(steps)

        Bs, Ws = (v.tolist() for v in lv.terms(c, A))
        best = 0
        for k in range(1, len(Ws)):
            if abs(Ws[k]) > abs(Ws[best]) + STALL_TOL:
                best = k

        if abs(Ws[best]) <= STALL_TOL:
            # No informative cross term: rank by reachable weight instead.
            best_gain = -1.0
            for k in range(len(Ws)):
                _, reachable = _stationary_angle(A, Bs[k], Ws[k])
                if reachable > best_gain + STALL_TOL:
                    best, best_gain = k, reachable
            if best_gain <= A + STALL_TOL:
                raise DecompositionError(
                    f"peel stalled at level {level}: no single factor improves "
                    f"the child-group weight beyond {A:.12f}",
                    PeelTrace(tuple(steps)),
                )

        best_word = PauliString.from_masks(int(lv.dx[best]), int(lv.dz[best]), lv.n)
        best_B, best_W = Bs[best], Ws[best]
        theta, predicted = _stationary_angle(A, best_B, best_W)
        _rotate(c, xk, int(lv.K[best]), *best_word.masks, -theta)
        norm_after = lv.weight(c)
        if norm_after < A - 1e-9 or abs(norm_after - predicted) > 1e-8:
            raise DecompositionError(
                f"level {level} weight bookkeeping diverged: before={A:.12f} "
                f"predicted={predicted:.12f} after={norm_after:.12f}",
                PeelTrace(tuple(steps)),
            )
        steps.append(
            PeelStep(
                level=level,
                word=best_word,
                angle=theta,
                w_value=best_W,
                delta=0.5 * (A - best_B),
                norm_before=A,
                norm_after=norm_after,
            )
        )
        A = norm_after

    raise DecompositionError(
        f"level {level} did not converge within {max_passes} factors",
        PeelTrace(tuple(steps)),
    )


def _heaviest_maximal_subgroup(weights: np.ndarray, group: PauliGroup) -> PauliGroup:
    """The index-two subgroup retaining the largest share of the elements' weights,
    given in canonical order.

    Every maximal subgroup is the kernel of a nonzero F2 functional v on
    the elements' echelon coordinates c (those of the r basis words,
    XOR-doubled): it keeps the elements with |v & c| even.  Place each
    element's weight at f[c]; the Walsh-Hadamard transform of f is
    F[v] = kept(v) - dropped(v) for all 2^r functionals at once, so
    kept(v) = (F[0] + F[v]) / 2 in O(r 2^r).  Ties keep the first
    functional in mask order whose kept weight lies within STALL_TOL of
    the best, so rounding in the transform cannot choose between equal
    weights.
    """
    coords = _xor_span(_echelon(group.basis)[1])
    f = np.zeros(len(group))
    f[coords] = weights
    _walsh(f)
    kept = 0.5 * (f[0] + f[1:])
    best = 1 + int(np.argmax(kept >= kept.max() - STALL_TOL))
    keep = (np.bitwise_count(coords & best) & 1) == 0
    return PauliGroup._of(group.n_sites, group.xs[keep], group.zs[keep])


def _peel_tower(
    c: np.ndarray,
    xk: np.ndarray,
    top: PauliGroup,
    weight: float,
    choose_child: Callable[[np.ndarray, PauliGroup, np.ndarray], PauliGroup],
    strategy: str = "tower",
    dropped: str | None = None,
) -> list[PeelStep]:
    """Peel top's coefficient vector c (see :func:`_coefficients`) to the
    identity; each child is choose_child(c, parent, P) for the parent's top
    positions P.

    c follows the residual in place.  A failing level re-raises with every
    step taken so far, labelled as in :class:`PeelTrace`.
    """
    steps: list[PeelStep] = []
    parent, P = top, np.arange(len(top))
    level = 1
    while len(parent) > 1:
        child = choose_child(c, parent, P)
        C = _coordinates(top, child)
        try:
            steps.extend(_peel_level(c, xk, _Level(parent, P, child, C, len(c)), level, weight))
        except DecompositionError as exc:
            partial = exc.trace.steps if exc.trace is not None else ()
            raise DecompositionError(
                str(exc), PeelTrace(tuple(steps) + tuple(partial), strategy, dropped)
            ) from None
        parent, P = child, C
        level += 1
    return steps


def decompose(
    U: np.ndarray, chain: SubgroupChain | None = None
) -> tuple[ProductDecomposition, PeelTrace]:
    """Synthesize U as a phase times a product of word exponentials.

    With no chain given, the tower is derived from the Pauli support of U
    by repeatedly taking canonical maximal subgroups; if that tower stalls,
    the peel restarts with each child instead chosen to retain the most of
    the current residual's weight.  Raises :class:`DecompositionError`
    (with the partial trace attached) when the input is not supported in
    the top group or every descent stalls.
    """
    # Without a chain the support scan runs, so its site cap is checked first.
    U, n = _as_unitary(U, chain is None)
    d = 1 << n
    if chain is not None and chain.n_sites != n:
        raise ValueError(f"chain is over {chain.n_sites} sites, matrix over {n}")

    # One transform serves the support scan and both peel strategies, which
    # move copies of the top group's entries and leave a as it is.
    a = _traces(U, n)
    weight = float(np.vdot(a, a).real)  # ||U||^2 / d: 1 to within the unitarity check
    top = None
    if chain is None:
        top = _support(a, n)
        chain = SubgroupChain.automatic(top)
    c, xk = _coefficients(a, chain.levels[0])
    top_weight = float(np.vdot(c, c).real)
    if weight - top_weight > PEEL_TOL:
        raise DecompositionError(
            f"input carries weight {weight - top_weight:.3e} outside the top group",
            PeelTrace(()),
        )

    children = iter(chain.levels[1:])
    strategy, dropped = "tower", None
    try:
        steps = _peel_tower(c, xk, chain.levels[0], weight, lambda *_: next(children))
    except DecompositionError as exc:
        if top is None:
            raise
        # Re-choose each child to keep the most of the residual's weight.
        strategy, dropped = "heaviest", str(exc)
        c, xk = _coefficients(a, top)
        steps = _peel_tower(c, xk, top, weight, lambda c, parent, P: _heaviest_maximal_subgroup(
            np.abs(c[P]) ** 2, parent), strategy, dropped)

    # c[0] is the identity word's entry: Tr(U_res) / d.
    phase = complex(c[0])
    phase /= abs(phase)
    factors = tuple(
        (s.word, s.angle) for s in reversed(steps) if abs(s.angle) > ZERO_ANGLE_TOL
    )
    result = ProductDecomposition(n_sites=n, factors=factors, global_phase=phase)

    overlap = complex(np.vdot(reconstruct(result), U)) / d
    if abs(overlap - 1.0) > RECONSTRUCTION_TOL:
        raise DecompositionError(
            f"reconstruction overlap {overlap!r} deviates from unity",
            PeelTrace(tuple(steps), strategy, dropped),
        )
    return result, PeelTrace(tuple(steps), strategy, dropped, abs(overlap))


def reconstruct(decomposition: ProductDecomposition) -> np.ndarray:
    """Dense matrix global_phase * prod_k exp(-i angle_k word_k)."""
    d = 1 << decomposition.n_sites
    out = decomposition.global_phase * np.eye(d, dtype=complex)
    for word, angle in decomposition.factors:
        apply_word_exponential(out, word, angle)
    return out


def gate_fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """|Tr(U^dag V)| / d, the phase-insensitive overlap of two unitaries."""
    if U.ndim != 2 or U.shape != V.shape or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected two equal square matrices, got {U.shape} vs {V.shape}")
    # Tr(U^dag V) = sum_ij conj(U_ij) V_ij: O(d^2), no product.
    return float(abs(np.vdot(U, V))) / U.shape[0]


def closed_form(n_sites: int) -> ProductDecomposition:
    """Explicit product form of the engineered chain's mirror propagator.

    The propagator at the mirror time factors into two-site exponentials
    conjugated by the Z strings lying between their end sites: one X..X /
    Y..Y pair (X..Y / Y..X for odd lengths) per mirror-symmetric site pair
    at angle pi/4 from the outside in, plus, for odd lengths, one final
    alternating-word factor at angle pi/2.  The overall sign alternates
    with floor(n/2).  For even lengths every word commutes with every
    other and the product closes with global phase one; for odd lengths
    the final word anticommutes with each pair word, so it stays
    rightmost (applied first) and the product closes with phase -i times
    an alternating sign.
    """
    if n_sites < 2:
        raise ValueError("the product form needs at least 2 sites")
    sign = -1.0 if (n_sites // 2) % 2 else 1.0
    quarter = -sign * math.pi / 4.0
    half = -sign * math.pi / 2.0
    factors: list[tuple[PauliString, float]] = []
    for j in range(1, n_sites // 2 + 1):
        pad = "I" * (j - 1)
        mid = "Z" * (n_sites - 2 * j)
        if n_sites % 2 == 0:
            first, second = ("X", "X"), ("Y", "Y")
        else:
            first, second = ("X", "Y"), ("Y", "X")
        factors.append((PauliString(pad + first[0] + mid + first[1] + pad), quarter))
        factors.append((PauliString(pad + second[0] + mid + second[1] + pad), quarter))
    phase = 1.0 + 0.0j
    if n_sites % 2 == 1:
        center = (n_sites + 1) // 2
        letters = []
        for s in range(1, n_sites + 1):
            if s == center:
                letters.append("I")
            else:
                t = min(s, n_sites + 1 - s)
                letters.append("X" if t % 2 == 1 else "Y")
        factors.append((PauliString("".join(letters)), half))
        phase = -1.0j if ((n_sites // 2) // 2) % 2 == 0 else 1.0j
    return ProductDecomposition(n_sites, tuple(factors), phase)
