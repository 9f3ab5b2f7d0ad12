"""Exact algebra of multi-site Pauli words and their phase-free groups.

A word is a string over {I, X, Y, Z}; the letter for site 1 comes first and
acts on the most significant qubit of the matrix realization, i.e. the
matrix of "XZ" is kron(X, Z).  Words are kept phase-free: a product of two
words is another word times a phase in {+1, -1, +i, -i}, which is carried
separately by :class:`PhasedPauli`.

Internally a word is also viewed as a pair of bit masks (x, z) with site 1
at the most significant bit, so that phase-free multiplication is XOR and
every group generated by words is an F2-linear span.  That makes group
closures, cardinalities (always powers of two) and maximal subgroups cheap
and exact.

:func:`pauli_coefficients` gives every word trace Tr(U M) of a matrix U as
one array indexed ``[x, z]`` by those masks, i.e. ``c[word.masks]``;
:func:`xz_traces` is the same transform without the word phases i^{|x & z|},
i.e. the traces Tr(U X^x Z^z).

A word matrix is a signed permutation, so word exponentials are applied,
never built densely or multiplied: :func:`apply_word_exponential` turns U
into U exp(-i angle M) = cos(angle) U - i sin(angle) U M in place, from one
column gather of U and one phase per column, and :func:`update_xz_traces`
moves the traces of U to those of the product in place, by one row
gather, one column gather and one phase per row.  Both are O(d^2).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "LETTERS",
    "MAX_DENSE_SITES",
    "PauliString",
    "PhasedPauli",
    "PauliGroup",
    "SubgroupChain",
    "pauli_mul",
    "pauli_matrix",
    "word_exponential",
    "apply_word_exponential",
    "word_trace",
    "pauli_coefficients",
    "xz_traces",
    "update_xz_traces",
    "group_closure",
    "support_group",
    "maximal_subgroup",
]

LETTERS = "IXYZ"

#: Largest site count for which dense 2^n x 2^n matrices are materialized.
MAX_DENSE_SITES = 12

#: Largest site count for which a full 4^n support scan is attempted.
MAX_SUPPORT_SITES = 8

UNITARITY_TOL = 1e-10

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# (x, z) bit pair per letter; Y = i * X * Z.
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def _json_int(value: object, name: str) -> int:
    """An integer record field; bools, floats and strings are malformed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _normalize_phase(value: complex) -> complex:
    for ph in _I_POW:
        if abs(value - ph) < 1e-9:
            return ph
    raise ValueError(f"phase {value!r} is not a fourth root of unity")


@dataclass(frozen=True, order=True)
class PauliString:
    """A phase-free Pauli word such as "XZZY" (site 1 first).

    The derived ordering is plain string order, which coincides with the
    canonical I < X < Y < Z, site-major ordering used for deterministic
    tie-breaking throughout.
    """

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("empty Pauli word")
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)!r}")

    @property
    def n_sites(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(x, z) bit masks with site 1 at the most significant bit."""
        x = z = 0
        for ch in self.letters:
            bx, bz = _LETTER_BITS[ch]
            x = (x << 1) | bx
            z = (z << 1) | bz
        return x, z

    @staticmethod
    def from_masks(x: int, z: int, n_sites: int) -> "PauliString":
        out = []
        for bit in range(n_sites - 1, -1, -1):
            out.append(_BITS_LETTER[((x >> bit) & 1, (z >> bit) & 1)])
        return PauliString("".join(out))

    @staticmethod
    def identity(n_sites: int) -> "PauliString":
        return PauliString("I" * n_sites)

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli word together with a phase in {+1, -1, +i, -i}."""

    phase: complex
    word: PauliString

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", _normalize_phase(self.phase))

    @property
    def n_sites(self) -> int:
        return self.word.n_sites

    _PHASE_TOKEN = {1 + 0j: "+1", -1 + 0j: "-1", 1j: "+i", -1j: "-i"}
    _TOKEN_PHASE = {"+1": 1 + 0j, "-1": -1 + 0j, "+i": 1j, "-i": -1j}

    def to_json(self) -> dict:
        return {"phase": self._PHASE_TOKEN[self.phase], "word": self.word.letters}

    @classmethod
    def from_json(cls, data: dict) -> "PhasedPauli":
        try:
            phase = cls._TOKEN_PHASE[data["phase"]]
            word = PauliString(data["word"])
        except KeyError as exc:
            raise ValueError(f"malformed phased-word record: {data!r}") from exc
        return cls(phase, word)


def _mul_masks(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """Multiply two (x, z)-encoded words; returns (x, z, k) with phase i**k.

    Using word = i^{|x & z|} X^x Z^z, pushing Z^{z1} through X^{x2} costs
    (-1)^{|z1 & x2|} and the i-prefactors recombine on the product word.
    """
    x3 = x1 ^ x2
    z3 = z1 ^ z2
    k = (
        (x1 & z1).bit_count()
        + (x2 & z2).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (z1 & x2).bit_count()
    )
    return x3, z3, k % 4


def pauli_mul(a: PauliString, b: PauliString) -> PhasedPauli:
    """Product of two words as (phase, word), e.g. XI * YI -> (+i, ZI)."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site-count mismatch: {a.n_sites} vs {b.n_sites}")
    x1, z1 = a.masks
    x2, z2 = b.masks
    x3, z3, k = _mul_masks(x1, z1, x2, z2)
    return PhasedPauli(_I_POW[k], PauliString.from_masks(x3, z3, a.n_sites))


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the two words commute (even number of clashing sites)."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site-count mismatch: {a.n_sites} vs {b.n_sites}")
    x1, z1 = a.masks
    x2, z2 = b.masks
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


def pauli_matrix(p: PhasedPauli | PauliString) -> np.ndarray:
    """Dense matrix of a (phased) word; site 1 is the most significant qubit."""
    phase, word = (p.phase, p.word) if isinstance(p, PhasedPauli) else (1 + 0j, p)
    if word.n_sites > MAX_DENSE_SITES:
        raise ValueError(
            f"{word.n_sites} sites exceeds the dense-matrix cap of {MAX_DENSE_SITES}"
        )
    out = np.array([[phase]], dtype=complex)
    for ch in word.letters:
        out = np.kron(out, _PAULI_1Q[ch])
    return out


def word_exponential(word: PauliString, angle: float) -> np.ndarray:
    """Dense exp(-i angle M) = cos(angle) I - i sin(angle) M for the word's matrix M."""
    out = np.eye(1 << word.n_sites, dtype=complex)
    apply_word_exponential(out, word, angle)
    return out


def _factor_phases(word: PauliString, angle: float) -> np.ndarray:
    """-i sin(angle) i^{|x & z|} (-1)^{|j & z|} for every basis index j."""
    x, z = word.masks
    j = np.arange(1 << word.n_sites)
    scale = -1j * math.sin(angle) * _I_POW[(x & z).bit_count() % 4]
    return scale * (1.0 - 2.0 * (_popcount(j & z) & 1))


def apply_word_exponential(U: np.ndarray, word: PauliString, angle: float) -> None:
    """Turn the complex array U into U @ exp(-i angle M) in place, in O(d^2).

    Column j of U M is i^{|x & z|} (-1)^{|j & z|} U[:, j ^ x]: one column
    gather of U and one phase per column, and M is never formed.
    """
    d = 1 << word.n_sites
    if U.ndim != 2 or U.shape[1] != d:
        raise ValueError(f"matrix shape {U.shape} does not match {word.n_sites} sites")
    moved = U[:, np.arange(d) ^ word.masks[0]]
    moved *= _factor_phases(word, angle)
    U *= math.cos(angle)
    U += moved


def _popcount(v: np.ndarray) -> np.ndarray:
    """Number of set bits in each entry of a non-negative integer array."""
    out = np.zeros_like(v)
    while v.any():
        out, v = out + (v & 1), v >> 1
    return out


def word_trace(U: np.ndarray, word: PauliString) -> complex:
    """Tr(U @ M) for the word's matrix M, without materializing M."""
    x, z = word.masks
    d = U.shape[0]
    if d != 2**word.n_sites:
        raise ValueError(f"matrix of dimension {d} does not match {word.n_sites} sites")
    idx = np.arange(d)
    signs = 1.0 - 2.0 * (_popcount(idx & z) & 1)
    pref = _I_POW[(x & z).bit_count() % 4]
    return pref * complex(np.dot(U[idx, idx ^ x], signs))


def xz_traces(U: np.ndarray) -> np.ndarray:
    """Phase-free word traces: ``a[x, z] = Tr(U @ X^x Z^z)`` over all 4^n mask pairs.

    Row x gathers U[i, i ^ x], and an in-place Walsh-Hadamard butterfly
    over i applies the signs (-1)^{|i & z|}: O(n 4^n) work in one array
    (Hantzko, Binkowski, Gupta, arXiv:2310.13421).
    """
    U = np.asarray(U, dtype=complex)
    d = U.shape[0] if U.ndim == 2 else 0
    if U.shape != (d, d) or d < 1 or d & (d - 1):
        raise ValueError(f"matrix shape {U.shape} is not 2^n x 2^n")
    idx = np.arange(d)
    a = U[idx, idx[:, None] ^ idx]
    for v in _bit_views(a):
        lo, hi = v[..., 0, :], v[..., 1, :]  # (lo, hi) -> (lo + hi, lo - hi) in place
        lo += hi
        hi *= -2.0
        hi += lo
    return a


def pauli_coefficients(U: np.ndarray) -> np.ndarray:
    """All 4^n word traces: ``c[x, z] = Tr(U @ M)`` for the word M with masks (x, z).

    M = i^{|x & z|} X^x Z^z, so this is :func:`xz_traces` with the entries
    whose x and z share a bit multiplied by i once per shared bit.
    """
    c = xz_traces(U)
    for v in _bit_views(c):
        v[:, 1, :, :, 1, :] *= 1j
    return c


def update_xz_traces(a: np.ndarray, word: PauliString, angle: float) -> None:
    """Turn a = xz_traces(U) into xz_traces(U @ exp(-i angle M)) in place, in O(d^2).

    For the word's masks (x, z), Z^z X^X = (-1)^{|z & X|} X^X Z^z gives

        a'[X, Z] = cos(angle) a[X, Z]
                   - i sin(angle) i^{|x & z|} (-1)^{|z & X|} a[X ^ x, Z ^ z];

    a is a complex array and may be scaled by any constant.
    """
    d = 1 << word.n_sites
    if a.shape != (d, d):
        raise ValueError(f"trace array shape {a.shape} does not match {word.n_sites} sites")
    x, z = word.masks
    j = np.arange(d)
    moved = a[np.ix_(j ^ x, j ^ z)]
    moved *= _factor_phases(word, angle)[:, None]
    a *= math.cos(angle)
    a += moved


def _bit_views(a: np.ndarray) -> Iterator[np.ndarray]:
    """Views of a d x d array splitting both indices at each bit, lowest first."""
    d = a.shape[0]
    for h in (1 << bit for bit in range(d.bit_length() - 1)):
        yield a.reshape(d // (2 * h), 2, h, d // (2 * h), 2, h)


def _pack(word: PauliString, n: int) -> int:
    x, z = word.masks
    return (x << n) | z


def _unpack(packed: int, n: int) -> PauliString:
    return PauliString.from_masks(packed >> n, packed & ((1 << n) - 1), n)


def _rank(packed: Iterable[int]) -> int:
    table: dict[int, int] = {}
    for v in packed:
        v = _reduce(v, table)
        if v:
            table[v.bit_length() - 1] = v
    return len(table)


def _reduce(v: int, table: dict[int, int]) -> int:
    while v:
        h = v.bit_length() - 1
        if h not in table:
            return v
        v ^= table[h]
    return 0


@dataclass(frozen=True)
class PauliGroup:
    """A set of words closed under phase-free multiplication."""

    n_sites: int
    elements: frozenset[PauliString]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        for e in self.elements:
            if e.n_sites != self.n_sites:
                raise ValueError("mixed site counts in group elements")
        if PauliString.identity(self.n_sites) not in self.elements:
            raise ValueError("group is missing the identity word")
        rank = _rank(_pack(e, self.n_sites) for e in self.elements)
        if len(self.elements) != 1 << rank:
            raise ValueError(
                f"{len(self.elements)} elements do not form a closed group "
                f"(span has {1 << rank})"
            )

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, word: PauliString) -> bool:
        return word in self.elements

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.sorted_elements)

    @cached_property
    def sorted_elements(self) -> tuple[PauliString, ...]:
        return tuple(sorted(self.elements))

    def is_subgroup_of(self, other: "PauliGroup") -> bool:
        return self.n_sites == other.n_sites and self.elements <= other.elements

    @classmethod
    def identity_group(cls, n_sites: int) -> "PauliGroup":
        return cls(n_sites, frozenset({PauliString.identity(n_sites)}))

    @classmethod
    def complete(cls, n_sites: int) -> "PauliGroup":
        """The full 4^n-element word group (small n only)."""
        if n_sites > 6:
            raise ValueError("complete group is too large beyond 6 sites")
        words = frozenset(
            PauliString("".join(t)) for t in itertools.product(LETTERS, repeat=n_sites)
        )
        return cls(n_sites, words)


def group_closure(
    seeds: Iterable[PauliString], n_sites: int | None = None
) -> PauliGroup:
    """Smallest phase-free group containing all seed words."""
    seeds = list(seeds)
    if n_sites is None:
        if not seeds:
            raise ValueError("empty seed set requires an explicit site count")
        n_sites = seeds[0].n_sites
    table: dict[int, int] = {}
    for s in seeds:
        if s.n_sites != n_sites:
            raise ValueError("mixed site counts in seeds")
        v = _reduce(_pack(s, n_sites), table)
        if v:
            table[v.bit_length() - 1] = v
    packed = [0]
    for vec in table.values():
        packed.extend([p ^ vec for p in packed])
    return PauliGroup(n_sites, frozenset(_unpack(p, n_sites) for p in packed))


def support_group(U: np.ndarray, tolerance: float | None = None) -> PauliGroup:
    """Group generated by the words on which the unitary U has weight."""
    d = U.shape[0]
    n = int(d).bit_length() - 1
    if U.shape != (d, d) or d != 2**n:
        raise ValueError(f"matrix shape {U.shape} is not 2^n x 2^n")
    if n > MAX_SUPPORT_SITES:
        raise ValueError(f"support scan beyond {MAX_SUPPORT_SITES} sites is not supported")
    if not np.isfinite(U).all() or np.abs(U @ U.conj().T - np.eye(d)).max() > UNITARITY_TOL:
        raise ValueError("input matrix is not a finite unitary")
    if tolerance is None:
        tolerance = 1e-10 * d
    found = np.argwhere(np.abs(xz_traces(U)) > tolerance).tolist()
    return group_closure((PauliString.from_masks(x, z, n) for x, z in found), n)


def maximal_subgroup(
    G: PauliGroup, exclude: Iterable[PauliString] = ()
) -> PauliGroup:
    """Largest proper subgroup of G containing no excluded element.

    Ties are broken deterministically: elements are considered in canonical
    string order and the first subgroup reaching the best cardinality wins,
    which matches enumerating generator subsets lexicographically.
    """
    exclude = frozenset(exclude)
    if len(G) == 1:
        raise ValueError("the identity group has no proper subgroup")
    identity = PauliString.identity(G.n_sites)
    if identity in exclude:
        raise ValueError("cannot exclude the identity word")
    stray = exclude - G.elements
    if stray:
        raise ValueError(f"excluded words not in the group: {sorted(stray)[:4]!r}")

    n = G.n_sites
    cand = [e for e in G.sorted_elements if e != identity]
    packed = [_pack(e, n) for e in cand]
    full_rank = _rank(packed)

    if not exclude:
        # Greedy hyperplane: first rank-1 independent elements in canonical order.
        target = full_rank - 1
        table: dict[int, int] = {}
        span = {0}
        for p in packed:
            if len(table) == target:
                break
            v = _reduce(p, table)
            if v:
                table[v.bit_length() - 1] = v
                span |= {s ^ p for s in span}
        return PauliGroup(n, frozenset(_unpack(p, n) for p in span))

    excl = {_pack(e, n) for e in exclude}
    # A subgroup avoiding a (non-empty, in-group) exclusion set is proper,
    # so its rank is at most full_rank - 1; reaching that cap ends the search.
    cap = full_rank - 1
    best_span: set[int] = {0}
    best_rank = 0

    class _Done(Exception):
        pass

    def bound(from_idx: int, table: dict[int, int]) -> int:
        t = dict(table)
        extra = 0
        for p in packed[from_idx:]:
            v = _reduce(p, t)
            if v:
                t[v.bit_length() - 1] = v
                extra += 1
        return min(len(table) + extra, cap)

    def rec(idx: int, table: dict[int, int], span: set[int]) -> None:
        nonlocal best_span, best_rank
        if len(table) > best_rank:
            best_rank = len(table)
            best_span = set(span)
            if best_rank == cap:
                raise _Done
        for j in range(idx, len(packed)):
            p = packed[j]
            if p in span:
                continue
            grown = {s ^ p for s in span}
            if grown & excl:
                continue
            if bound(j, table) <= best_rank:
                return
            v = _reduce(p, table)
            t2 = dict(table)
            t2[v.bit_length() - 1] = v
            rec(j + 1, t2, span | grown)

    try:
        rec(0, {}, {0})
    except _Done:
        pass
    return PauliGroup(n, frozenset(_unpack(p, n) for p in best_span))


@dataclass(frozen=True)
class SubgroupChain:
    """A strictly descending tower of groups ending at {identity}."""

    levels: tuple[PauliGroup, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("empty chain")
        n = self.levels[0].n_sites
        for g in self.levels:
            if g.n_sites != n:
                raise ValueError("mixed site counts along the chain")
        for top, bottom in zip(self.levels, self.levels[1:]):
            if not bottom.is_subgroup_of(top) or len(bottom) >= len(top):
                raise ValueError("chain levels must be strictly descending subgroups")
        if len(self.levels[-1]) != 1:
            raise ValueError("chain must terminate at the identity group")

    @property
    def n_sites(self) -> int:
        return self.levels[0].n_sites

    def __len__(self) -> int:
        return len(self.levels)

    @classmethod
    def automatic(cls, top: PauliGroup) -> "SubgroupChain":
        """Descend from `top` by repeated maximal subgroups."""
        levels = [top]
        while len(levels[-1]) > 1:
            levels.append(maximal_subgroup(levels[-1]))
        return cls(tuple(levels))
