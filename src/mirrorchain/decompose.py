"""Product synthesis of unitaries over a descending tower of Pauli groups.

Given a unitary whose Pauli expansion lies inside a word group G0 and a
strictly descending chain G0 > G1 > ... > {identity}, the synthesizer
works level by level: at each level it greedily picks a coset word D and
an angle theta so that U <- U exp(+i theta D) concentrates as much weight
as possible inside the child group, repeating until the child holds all
of it, then descends.  When every level succeeds the residual is a pure
phase c, which proves

    U = c * exp(-i theta_m D_m) * ... * exp(-i theta_1 D_1),

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

All weights are slices of one array per residual, the phase-free traces
``a[x, z] = Tr(U X^x Z^z) / 2^n`` (``xz_traces(U) / 2^n``), indexed by a
word's bit masks with site 1 at the most significant bit; a word's
coefficient differs from its entry only by the phase i^{|x & z|}.  The
array is the peel's only form of the residual: it is transformed once per
decomposition, and each factor ``exp(+i theta D)`` moves it in place by one
row and one column gather (``update_xz_traces``), so no word matrix is
built and no dense product runs.  The global phase c is the final
``a[0, 0] = Tr(U_res) / 2^n``.  Only the adaptive fallback, which restarts
from the input, transforms it again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import (
    _I_POW,
    PauliGroup,
    PauliString,
    SubgroupChain,
    _as_unitary,
    _json_array,
    _json_float,
    _json_int,
    _json_key,
    _json_object,
    _signs,
    _support,
    _walsh,
    apply_word_exponential,
    update_xz_traces,
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

#: Maximum tolerated weight leakage (1 - child-group norm) after a level.
PEEL_TOL = 1e-9
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


def _weight(a: np.ndarray, group: PauliGroup) -> float:
    return float(np.sum(np.abs(a[group.xs, group.zs]) ** 2))


def expand(U: np.ndarray, group: PauliGroup) -> dict[PauliString, complex]:
    """Pauli coefficients c_w = Tr(w U) / 2^n for every word in the group."""
    a = _traces(U, group.n_sites)
    return {w: complex(a[w.masks] * _I_POW[(w.masks[0] & w.masks[1]).bit_count() % 4])
            for w in group}


def _candidates(xs: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Candidate words (xs, zs) with their phases i^{-|x & z|}, for :func:`_weight_terms`."""
    return xs, zs, np.take(_I_POW, -np.bitwise_count(xs & zs).astype(np.int64) % 4)


def _weight_terms(
    a: np.ndarray, candidates: tuple[np.ndarray, ...], child: PauliGroup
) -> tuple[np.ndarray, np.ndarray]:
    """(B, W) for every candidate word D, from a normalized phase-free trace array.

    With D = (x1, z1) and child words w = (cx, cz), m = D w has masks
    (x1 ^ cx, z1 ^ cz).  B sums |a_m|^2 (the weight of the coset D*child)
    and W sums Im(i^{-|x1 & z1|} (-1)^{|z1 & cx|} a_w conj(a_m)), which is
    the coefficient form Im(i^-k c_w conj(c_m)) for D w = i^k m with the
    word phases cancelled.  Candidates, with their phases from
    :func:`_candidates`, are taken in blocks of about 2^16 candidate-child
    pairs, so memory stays bounded.
    """
    dx, dz, dphase = candidates
    cx, cz = child.xs, child.zs
    a_w = a[cx, cz]
    B, W = np.empty(len(dx)), np.empty(len(dx))
    rows = max(1, (1 << 16) // len(cx))
    for lo in range(0, len(dx), rows):
        x1, z1 = dx[lo:lo + rows, None], dz[lo:lo + rows, None]
        a_m = a[x1 ^ cx, z1 ^ cz]
        phase = dphase[lo:lo + rows, None] * _signs(z1 & cx)
        B[lo:lo + rows] = np.sum(np.abs(a_m) ** 2, axis=1)
        W[lo:lo + rows] = np.sum((phase * a_w * a_m.conj()).imag, axis=1)
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
    steps = _peel_level(_traces(U, parent.n_sites), parent, child, level)
    for s in steps:
        apply_word_exponential(U, s.word, -s.angle)
    return U, steps


def _peel_level(
    a: np.ndarray, parent: PauliGroup, child: PauliGroup, level: int
) -> tuple[PeelStep, ...]:
    """:func:`peel_level` on the residual's normalized trace array a, updated in place.

    Each factor moves a in O(d^2), so a keeps matching the residual and is
    never re-transformed; the steps alone say how to move a dense U.
    """
    if not child.is_subgroup_of(parent) or len(child) >= len(parent):
        raise ValueError("child must be a strictly smaller subgroup of parent")
    # The parent rows outside the child, in canonical order.  A lookup table
    # of at most 4^n bools; isin's sort path first costs ~1.5 MB of peak RSS.
    n = parent.n_sites
    outside = ~np.isin(parent.xs << n | parent.zs, child.xs << n | child.zs, kind="table")
    candidates = _candidates(parent.xs[outside], parent.zs[outside])
    dx, dz, _ = candidates
    steps: list[PeelStep] = []
    max_passes = 4 * len(parent)
    A = _weight(a, child)

    for _ in range(max_passes):
        if 1.0 - A <= PEEL_TOL:
            return tuple(steps)

        Bs, Ws = (v.tolist() for v in _weight_terms(a, candidates, child))
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

        best_word = PauliString.from_masks(int(dx[best]), int(dz[best]), n)
        best_B, best_W = Bs[best], Ws[best]
        theta, predicted = _stationary_angle(A, best_B, best_W)
        update_xz_traces(a, best_word, -theta)
        norm_after = _weight(a, child)
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


def _heaviest_maximal_subgroup(a: np.ndarray, group: PauliGroup) -> PauliGroup:
    """The index-two subgroup retaining the largest weight of the trace array a.

    Every maximal subgroup is the kernel of a nonzero F2 functional v on
    the group's echelon coordinates c: it keeps the elements with
    |v & c| even.  Place each element's weight |a_w|^2 at f[c]; the
    Walsh-Hadamard transform of f is F[v] = kept(v) - dropped(v) for all
    2^r functionals at once, so kept(v) = (F[0] + F[v]) / 2 in O(r 2^r).
    Ties keep the first functional in mask order whose kept weight lies
    within STALL_TOL of the best, so rounding in the transform cannot
    choose between equal weights.
    """
    f = np.zeros(1 << len(group.basis))
    f[group.coords] = np.abs(a[group.xs, group.zs]) ** 2
    _walsh(f)
    kept = 0.5 * (f[0] + f[1:])
    best = 1 + int(np.argmax(kept >= kept.max() - STALL_TOL))
    keep = (np.bitwise_count(group.coords & best) & 1) == 0
    return PauliGroup._of(group.n_sites, group.xs[keep], group.zs[keep])


def _peel_tower(
    a: np.ndarray,
    top: PauliGroup,
    choose_child: Callable[[np.ndarray, PauliGroup], PauliGroup],
    strategy: str = "tower",
    dropped: str | None = None,
) -> list[PeelStep]:
    """Peel the trace array a from `top` to the identity; each child is
    choose_child(a, parent).

    a follows the residual in place.  A failing level re-raises with every
    step taken so far, labelled as in :class:`PeelTrace`.
    """
    steps: list[PeelStep] = []
    parent = top
    level = 1
    while len(parent) > 1:
        child = choose_child(a, parent)
        try:
            steps.extend(_peel_level(a, parent, child, level))
        except DecompositionError as exc:
            partial = exc.trace.steps if exc.trace is not None else ()
            raise DecompositionError(
                str(exc), PeelTrace(tuple(steps) + tuple(partial), strategy, dropped)
            ) from None
        parent = child
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

    # One transform serves the support scan and the peel.
    a = _traces(U, n)
    top = None
    if chain is None:
        top = _support(a, n)
        chain = SubgroupChain.automatic(top)
    top_weight = _weight(a, chain.levels[0])
    if 1.0 - top_weight > PEEL_TOL:
        raise DecompositionError(
            f"input carries weight {1.0 - top_weight:.3e} outside the top group",
            PeelTrace(()),
        )

    children = iter(chain.levels[1:])
    strategy, dropped = "tower", None
    try:
        steps = _peel_tower(a, chain.levels[0], lambda _a, _parent: next(children))
    except DecompositionError as exc:
        if top is None:
            raise
        # Re-choose each child to keep the most of the residual's weight.
        strategy, dropped = "heaviest", str(exc)
        a = _traces(U, n)
        steps = _peel_tower(a, top, _heaviest_maximal_subgroup, strategy, dropped)

    # a[0, 0] is the identity word's entry: Tr(U_res) / d.
    phase = complex(a[0, 0])
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
    if U.shape != V.shape:
        raise ValueError("shape mismatch")
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
