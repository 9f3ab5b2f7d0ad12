"""Exact algebra of multi-site Pauli words and their phase-free groups.

A word is a string over {I, X, Y, Z}; the letter for site 1 comes first and
acts on the most significant qubit of the matrix realization, i.e. the
matrix of "XZ" is kron(X, Z).  Words are kept phase-free: a product of two
words is another word times a phase in {+1, -1, +i, -i}, and only the word
is kept.

Internally a word is also viewed as a pair of bit masks (x, z) with site 1
at the most significant bit, so that phase-free multiplication is XOR and
every group generated by words is an F2-linear span.  A :class:`PauliGroup`
is mask arrays in canonical order.  Canonical order sorts on letter codes
(z, x ^ z) linear in the masks, so the element at position i is the product
of those at positions 2^j for the bits j of i: a word's position is its
coordinates over the basis of those r elements.  A maximal subgroup is the
first half of its parent's arrays, so a tower is views of its top.

:func:`xz_traces` is the one all-words transform: the phase-free traces
Tr(U X^x Z^z) of a matrix U as one array indexed ``[x, z]`` by those masks.
A word M = i^{|x & z|} X^x Z^z, so its trace Tr(U M) is the entry at
``word.masks`` times the word phase i^{|x & z|}.

A word matrix is a signed permutation, so word exponentials are applied,
never built densely or multiplied: one kernel moves U's columns
(:func:`apply_word_exponential`, O(d^2)) or the peel's coefficient
positions (O(|G|)) by one gather and one phase per entry.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "LETTERS",
    "MAX_DENSE_SITES",
    "PauliString",
    "PauliGroup",
    "SubgroupChain",
    "commutes",
    "pauli_matrix",
    "word_exponential",
    "apply_word_exponential",
    "word_trace",
    "xz_traces",
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

# (x, z) bit pair per letter; Y = i * X * Z.
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def _json_int(value: object, name: str) -> int:
    """An integer record field; bools, floats and strings are malformed."""
    # Built-in types go first: an isinstance check against an abstract class is far slower.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_float(value: object, name: str) -> float:
    """A finite real record field; bools, strings, non-real and non-finite values are malformed."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _complex_array(value: object, name: str) -> np.ndarray:
    """value as a complex array; strings, None and other non-numeric data are malformed."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    return arr.astype(complex, copy=False)


def _json_object(value: object, name: str) -> dict:
    """A JSON object record; arrays, numbers, strings and null are malformed."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _json_key(record: dict, key: str, prefix: str = "") -> object:
    """record[key]; a missing key is malformed and named prefix + key."""
    try:
        return record[key]
    except KeyError:
        raise ValueError(f"{prefix}{key} is missing") from None


def _json_array(value: object, name: str, item: Callable) -> tuple:
    """A list, tuple or 1-d array field, each element parsed as item(v, "name[i]")."""
    if not isinstance(value, (list, tuple)) and np.ndim(value) != 1:
        raise ValueError(f"{name} must be an array, got {value!r}")
    return tuple(item(v, f"{name}[{i}]") for i, v in enumerate(value))


def _read_json(path: str) -> object:
    """The JSON value in the UTF-8 file at `path`; a file that is not UTF-8
    JSON is refused with its path in the message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"file {path!r} is not UTF-8 JSON: {exc}") from None


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8 over its old bytes, then cut the file to length.

    Opening with O_TRUNC cuts a file to zero first, and ext4 (auto_da_alloc)
    starts writeback of a file truncated to zero when it is closed; writing in
    place and cutting after skips that flush.  The inode, its mode bits and a
    symlink's target are kept.  Only a regular file is cut: ftruncate fails
    with EINVAL on /dev/null and pipes.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


@dataclass(frozen=True, order=True)
class PauliString:
    """A phase-free Pauli word such as "XZZY" (site 1 first).

    The derived ordering is plain string order, which coincides with the
    canonical I < X < Y < Z, site-major ordering used for deterministic
    tie-breaking throughout.
    """

    letters: str

    def __post_init__(self) -> None:
        if not isinstance(self.letters, str):
            raise ValueError(f"a Pauli word must be a string, got {self.letters!r}")
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

    def __str__(self) -> str:
        return self.letters


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the two words commute (even number of clashing sites)."""
    if a.n_sites != b.n_sites:
        raise ValueError(f"site-count mismatch: {a.n_sites} vs {b.n_sites}")
    x1, z1 = a.masks
    x2, z2 = b.masks
    return ((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0


def pauli_matrix(word: PauliString) -> np.ndarray:
    """Dense matrix of a word; site 1 is the most significant qubit.

    The matrix is a signed permutation: column j is
    i^{|x & z|} (-1)^{|j & z|} e_{j ^ x} for the word's masks (x, z).
    """
    if word.n_sites > MAX_DENSE_SITES:
        raise ValueError(
            f"{word.n_sites} sites exceeds the dense-matrix cap of {MAX_DENSE_SITES}"
        )
    x, z = word.masks
    j = np.arange(1 << word.n_sites)
    out = np.zeros((len(j), len(j)), dtype=complex)
    out[j ^ x, j] = _I_POW[(x & z).bit_count() % 4] * _signs(j & z)
    return out


def word_exponential(word: PauliString, angle: float) -> np.ndarray:
    """Dense exp(-i angle M) = cos(angle) I - i sin(angle) M for the word's matrix M."""
    out = np.eye(1 << word.n_sites, dtype=complex)
    apply_word_exponential(out, word, angle)
    return out


def apply_word_exponential(U: np.ndarray, word: PauliString, angle: float) -> None:
    """Turn the complex array U into U @ exp(-i angle M) in place, in O(d^2).

    Column j of U M is i^{|x & z|} (-1)^{|j & z|} U[:, j ^ x]: the word
    kernel on U's columns, and M is never formed.
    """
    d = 1 << word.n_sites
    if U.ndim != 2 or U.shape[1] != d:
        raise ValueError(f"matrix shape {U.shape} does not match {word.n_sites} sites")
    _word_kernel(U, word.masks[0], np.arange(d), *word.masks, _json_float(angle, "angle"))


def _word_kernel(v: np.ndarray, flip: int, bits: np.ndarray, x: int, z: int,
                 angle: float) -> None:
    """v[..., k] <- cos(angle) v[..., k] - i sin(angle) i^{|x & z|}
    (-1)^{|bits[k] & z|} v[..., k ^ flip] in place, for the word (x, z).

    Matrix columns take flip = x and bits[k] = k; a group's coefficient
    vector takes the word's position and each position's x mask, since the
    word times the element at k ^ flip is the element at k up to that phase.
    """
    phase = -1j * math.sin(angle) * _I_POW[(x & z).bit_count() % 4]
    moved = v[..., np.arange(v.shape[-1]) ^ flip]
    moved *= phase * _signs(bits & z)
    v *= math.cos(angle)
    v += moved


def _signs(v: np.ndarray) -> np.ndarray:
    """(-1)^{|v|} per entry of a non-negative integer array, as int8 (a uint8
    bit count would wrap 1 - 2 to 255)."""
    return 1 - 2 * (np.bitwise_count(v) & 1).astype(np.int8)


def word_trace(U: np.ndarray, word: PauliString) -> complex:
    """Tr(U @ M) for the word's matrix M, without materializing M."""
    x, z = word.masks
    d = U.shape[0]
    if d != 2**word.n_sites:
        raise ValueError(f"matrix of dimension {d} does not match {word.n_sites} sites")
    idx = np.arange(d)
    pref = _I_POW[(x & z).bit_count() % 4]
    return pref * complex(np.dot(U[idx, idx ^ x], _signs(idx & z)))


def xz_traces(U: np.ndarray) -> np.ndarray:
    """Phase-free word traces: ``a[x, z] = Tr(U @ X^x Z^z)`` over all 4^n mask pairs.

    Row x gathers U[i, i ^ x], and an in-place Walsh-Hadamard butterfly
    over i applies the signs (-1)^{|i & z|}: O(n 4^n) work in one array
    (Hantzko, Binkowski, Gupta, arXiv:2310.13421).
    """
    U = _complex_array(U, "U")
    d = U.shape[0] if U.ndim == 2 else 0
    if U.shape != (d, d) or d < 1 or d & (d - 1):
        raise ValueError(f"matrix shape {U.shape} is not 2^n x 2^n")
    idx = np.arange(d)
    return _walsh(U[idx, idx[:, None] ^ idx])


def _walsh(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a along its last axis, in place; returns a.

    a[..., z] becomes sum_i (-1)^{|i & z|} a[..., i], one butterfly per bit,
    O(m 2^m) for length 2^m.  a must be C-contiguous, so reshapes are views.
    """
    for h in (1 << bit for bit in range(a.shape[-1].bit_length() - 1)):
        v = a.reshape(-1, 2, h)
        lo, hi = v[:, 0], v[:, 1]  # (lo, hi) -> (lo + hi, lo - hi) in place
        lo += hi
        hi *= -2.0
        hi += lo
    return a


def _echelon(packed: Iterable[int]) -> tuple[list[int], list[int]]:
    """Gaussian elimination over F2 of packed vectors, in order: the reduced
    basis, where basis[:j] spans the first j independent vectors, and each
    vector's coordinates over it as a bit mask (bit j for basis[j]).
    """
    basis: list[int] = []
    pivot: dict[int, int] = {}  # leading bit -> position in basis
    coords: list[int] = []
    for v in packed:
        c = 0
        while v:
            j = pivot.get(v.bit_length() - 1)
            if j is None:
                pivot[v.bit_length() - 1] = len(basis)
                c |= 1 << len(basis)
                basis.append(v)
                break
            v ^= basis[j]
            c ^= 1 << j
        coords.append(c)
    return basis, coords


def _mask_dtype(n_sites: int) -> type:
    """int64 holds the masks of words up to 63 sites; wider words keep Python ints."""
    return np.int64 if n_sites < 64 else object


def _canonical_order(xs: np.ndarray, zs: np.ndarray, n_sites: int) -> np.ndarray:
    """The permutation that sorts the words (xs, zs) by their letters: a
    lexsort over per-site letter codes I=0, X=1, Y=2, Z=3, site 1 first."""
    bits = np.arange(n_sites)[:, None]
    x, z = (xs >> bits) & 1, (zs >> bits) & 1
    return np.lexsort(2 * z + (x ^ z))


class PauliGroup:
    """A set of words closed under phase-free multiplication, held as arrays:
    ``xs`` and ``zs`` are the elements' masks in canonical order, and
    ``basis`` the packed words x << n | z at positions 2^j, so the element at
    position i is the product of the basis words at the bits of i.  The word
    views ``sorted_elements`` and ``elements`` are built only when asked for."""

    def __init__(self, n_sites: int, elements: Iterable[PauliString]) -> None:
        words = frozenset(elements)
        span = group_closure(words, n_sites)
        # The words lie in their span, so they are all of it when the sizes agree.
        if len(words) != len(span):
            raise ValueError(f"{len(words)} words are not a closed group (span has {len(span)})")
        self.__dict__.update(vars(span))

    @classmethod
    def _of(cls, n_sites: int, xs: np.ndarray, zs: np.ndarray) -> "PauliGroup":
        """The group of the words (xs, zs), unchecked and already in canonical
        order, with its basis read off the words at positions 2^j."""
        at = (1 << j for j in range(len(xs).bit_length() - 1))
        # Python ints: a packed word outgrows int64 from 32 sites on.
        basis = tuple(xs.item(k) << n_sites | zs.item(k) for k in at)
        for v in (xs, zs):
            v.flags.writeable = False
        self = cls.__new__(cls)
        self.__dict__.update(n_sites=n_sites, xs=xs, zs=zs, basis=basis)
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"a PauliGroup is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"PauliGroup(n_sites={self.n_sites}, size={len(self)}, basis={self.basis})"

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other: object) -> bool:
        # One span has one canonical order, hence one basis.
        return isinstance(other, PauliGroup) and (self.n_sites, self.basis) == (
            other.n_sites, other.basis)

    def __hash__(self) -> int:
        return hash((self.n_sites, self.basis))

    def __contains__(self, word: PauliString) -> bool:
        x, z = word.masks
        return word.n_sites == self.n_sites and self._spans(x << self.n_sites | z)

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.sorted_elements)

    @cached_property
    def sorted_elements(self) -> tuple[PauliString, ...]:
        return tuple(PauliString.from_masks(x, z, self.n_sites)
                     for x, z in zip(self.xs.tolist(), self.zs.tolist()))

    @cached_property
    def elements(self) -> frozenset[PauliString]:
        return frozenset(self.sorted_elements)

    def _spans(self, *packed: int) -> bool:
        """Whether the packed words x << n | z lie in the group: they add no rank."""
        return len(_echelon(self.basis + packed)[0]) == len(self.basis)

    def is_subgroup_of(self, other: "PauliGroup") -> bool:
        # A basis prefix, as `maximal_subgroup` gives, spans a subgroup.
        return self.n_sites == other.n_sites and (
            self.basis == other.basis[:len(self.basis)] or other._spans(*self.basis))


def _xor_span(gens: Iterable[int], dtype: type = np.int64) -> np.ndarray:
    """The XOR of every subset of gens: entry i combines gens[j] for the bits j of i."""
    out = np.zeros(1, dtype=dtype)
    for g in gens:
        out = np.concatenate([out, out ^ g])
    return out


def _span(n_sites: int, packed: Iterable[int]) -> PauliGroup:
    """The group of every product of the packed words x << n | z: the XOR
    span of their echelon basis, sorted into canonical order."""
    basis, dtype, low = _echelon(packed)[0], _mask_dtype(n_sites), (1 << n_sites) - 1
    xs = _xor_span((v >> n_sites for v in basis), dtype)
    zs = _xor_span((v & low for v in basis), dtype)
    order = _canonical_order(xs, zs, n_sites)
    return PauliGroup._of(n_sites, xs[order], zs[order])


def group_closure(
    seeds: Iterable[PauliString], n_sites: int | None = None
) -> PauliGroup:
    """Smallest phase-free group containing all seed words."""
    seeds = list(seeds)
    if n_sites is None:
        if not seeds:
            raise ValueError("empty seed set requires an explicit site count")
        n_sites = seeds[0].n_sites
    if any(s.n_sites != n_sites for s in seeds):
        raise ValueError("mixed site counts in seeds")
    return _span(n_sites, (s.masks[0] << n_sites | s.masks[1] for s in seeds))


def _as_unitary(U: np.ndarray, support_scan: bool = False) -> tuple[np.ndarray, int]:
    """U as a complex array, and its site count n >= 1.

    Raises ValueError unless U is a numeric, finite 2^n x 2^n unitary.  For
    a support scan, n is checked against its cap first, so an oversized
    input is refused before the O(d^3) unitarity product.
    """
    U = _complex_array(U, "unitary")
    d = U.shape[0] if U.ndim == 2 else 0
    if U.shape != (d, d) or d < 2 or d & (d - 1):
        raise ValueError(f"unitary must be a 2^n x 2^n matrix with n >= 1, got shape {U.shape}")
    if support_scan:
        _check_support_sites(d.bit_length() - 1)
    if not np.isfinite(U).all() or np.abs(U @ U.conj().T - np.eye(d)).max() > UNITARITY_TOL:
        raise ValueError("input matrix is not a finite unitary")
    return U, d.bit_length() - 1


def _check_support_sites(n_sites: int) -> None:
    if n_sites > MAX_SUPPORT_SITES:
        raise ValueError(f"support scan beyond {MAX_SUPPORT_SITES} sites is not supported")


def _support(a: np.ndarray, n_sites: int) -> PauliGroup:
    """Group generated by the words (x, z) of the normalized d x d array
    a = xz_traces(U) / d with |a[x, z]| above 1e-10."""
    x, z = np.nonzero(np.abs(a) > 1e-10)
    return _span(n_sites, (x << n_sites | z).tolist())


def support_group(U: np.ndarray) -> PauliGroup:
    """Group generated by the words on which the unitary U has weight."""
    U, n = _as_unitary(U, support_scan=True)
    return _support(xz_traces(U) / (1 << n), n)


def maximal_subgroup(G: PauliGroup) -> PauliGroup:
    """A proper subgroup of G of index two.

    The choice is deterministic: it is spanned by the first rank(G) - 1
    independent elements in canonical string order.  Those are the first
    half of G's elements, at the same positions and with the basis prefix,
    so the subgroup is views of G's arrays and a tower shares its top's.
    """
    if len(G) == 1:
        raise ValueError("the identity group has no proper subgroup")
    half = len(G) // 2
    return PauliGroup._of(G.n_sites, G.xs[:half], G.zs[:half])


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
