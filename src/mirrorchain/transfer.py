"""End-to-end mirror-inversion checks: state transfer, Bell transfer,
excitation-sector phases, and ensemble fidelity metrics.

Two preparation modes are exposed throughout.  "pure" evolves kets with
spectator sites in |0>.  "deviation" works with ensemble operators as
prepared in liquid-state magnetic resonance: a single-site input is a
traceless 2x2 deviation operator tensored with identity on the spectators,
while a Bell input is the Bell projector with maximally mixed spectators.

The XY chain is a free-fermion model (Lieb, Schultz, Mattis 1961), so
every number reported here follows from the N x N one-excitation
propagator u, with no 2^N object formed.  The chain mirrors
exactly when u = w R for the site reversal R.  Pure inputs carry at most
two excitations, evolved as a vector (C v) and an antisymmetric matrix
(C A C^T), where C holds only the k <= 2 input columns of u.  Deviation
outputs are Pauli expansions whose coefficients are minors det R[T, S] of
the rotation R that U applies to the Majorana operators, for the Majorana
sets S and T of the input and output words.  The minors of each size are
taken in one batched determinant.  A set of more than N of the 2N
Majoranas is swapped for its complement, since R is in SO(2N):
det R[T, S] = (-1)^(sum T + sum S) det R[T^c, S^c].  So no determinant has
more than N rows, and a report costs the same however far apart its sites
are (fermionic linear optics: Terhal and DiVincenzo, PRA 65, 032325, 2002).

Transfer fidelity is judged against the theoretical expectation.  For pure
inputs that is the phase-adjusted input at the mirror site(s): each
k-excitation component picks up the chain's k-sector phase, measured from
u when it is a true mirror and otherwise taken from the engineered
reference pattern.  For single-site deviation inputs the transferred
coherence is entangled with Z strings on the intervening spins, so the
reduced matrix alone is blind to it; fidelity is then judged on the full
register against the engineered chain's evolution E.  Unitarity gives both
norms as 2^(N-1) Tr(L^2), and the overlap is Tr(L R_V(L)), the input
deviation L against its reduction R_V(L) under the free-fermion V = E^dag U.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import (
    MIRROR_TIME,
    ChainSpec,
    _mirror_phase,
    excitation_sectors,
    propagator,
    single_excitation_matrix,
)
from .pauli import _I_POW, _json_array, _json_int, _walsh, xz_traces
from .states import (
    BELL_KINDS,
    QuantumState,
    bell_state,
    bit_label,
    excitation_numbers,
    mirror_permutation,
)

__all__ = [
    "SectorPhaseTable",
    "TransferReport",
    "sector_phases",
    "transfer_single",
    "transfer_entangled",
    "fidelity_metric",
    "attenuated_correlation",
]

SECTOR_TOL = 1e-9
#: Minimum Bell-projector overlap for the reduced output to earn a label.
BELL_LABEL_THRESHOLD = 1.0 - 1e-6
#: Matrix entries per batched determinant call in :func:`_minors` (8 MiB of
#: float64), so a long chain stacks at most this much of its minors at once.
_MINOR_BLOCK = 1 << 20

_MODES = ("pure", "deviation")


@dataclass(frozen=True)
class SectorPhaseTable:
    """Per-excitation-sector phase of a mirror propagator (k = 0 .. N)."""

    n_sites: int
    phases: tuple[complex, ...]

    def __post_init__(self) -> None:
        phases = tuple(complex(p) for p in self.phases)
        object.__setattr__(self, "phases", phases)
        if len(phases) != self.n_sites + 1:
            raise ValueError(
                f"{self.n_sites} sites need {self.n_sites + 1} sector phases"
            )
        for p in phases:
            if abs(abs(p) - 1.0) > 1e-9:
                raise ValueError("sector phases must have unit modulus")

    def to_json(self) -> dict:
        return {
            "n": self.n_sites,
            "phases": [[p.real, p.imag] for p in self.phases],
        }


def sector_phases(U: np.ndarray, n_sites: int) -> SectorPhaseTable:
    """Measure the per-sector phases of a dense 2^N mirror propagator.

    Validates that every computational basis state maps to its site
    reversal up to a unit phase and that all states with the same
    excitation count share that phase; offenders are listed in the error.
    """
    d = 1 << n_sites
    if U.shape != (d, d):
        raise ValueError(f"matrix shape {U.shape} does not match {n_sites} sites")
    amps = U[mirror_permutation(n_sites), np.arange(d)]
    bad = [bit_label(j, n_sites) for j in np.flatnonzero(np.abs(np.abs(amps) - 1.0) > SECTOR_TOL)]
    if bad:
        raise ValueError(
            "not a mirror propagator; basis states not mapped to their "
            f"reversal: {', '.join(bad[:8])}"
            + ("..." if len(bad) > 8 else "")
        )

    # Each sector's reference is the phase of its lowest basis index.
    refs = np.array([amps[idx[0]] / abs(amps[idx[0]]) for idx in excitation_sectors(n_sites)])
    k = excitation_numbers(n_sites)
    off = np.flatnonzero(np.abs(amps - refs[k]) > SECTOR_TOL)
    if len(off):
        j = int(off[0])
        raise ValueError(
            f"excitation sector k={k[j]} has inconsistent phases: basis state "
            f"{bit_label(j, n_sites)} disagrees with the sector reference"
        )
    return SectorPhaseTable(n_sites, tuple(refs))


def fidelity_metric(rho_th: np.ndarray, rho_ex: np.ndarray) -> float:
    """Tr(rho_th rho_ex) / sqrt(Tr(rho_th^2) Tr(rho_ex^2)).

    Scale-invariant in both arguments; accepts deviation (traceless)
    matrices.  Zero-norm input is undefined and rejected.
    """
    return _fidelity(*_metric_terms(rho_th, rho_ex))


def attenuated_correlation(rho_th: np.ndarray, rho_ex: np.ndarray) -> float:
    """Tr(rho_th rho_ex) / Tr(rho_th^2); covariant in the rho_ex scale."""
    return _attenuated(*_metric_terms(rho_th, rho_ex))


def _fidelity(t: float, na: float, nb: float) -> float:
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("fidelity metric is undefined for zero-norm input")
    return t / math.sqrt(na * nb)


def _attenuated(t: float, na: float, nb: float) -> float:
    if na <= 0.0:
        raise ValueError("attenuated correlation is undefined for zero-norm reference")
    return t / na


def _metric_terms(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(Tr(ab), Tr(a^2), Tr(b^2)) of Hermitian a and b, each checked once."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} vs {b.shape}")
    for name, m in (("rho_th", a), ("rho_ex", b)):
        if not np.isfinite(m).all():
            raise ValueError(f"metric input {name} must be finite")
        if np.abs(m - m.conj().T).max() > 1e-8:
            raise ValueError("metric inputs must be Hermitian")
    # Tr(a b) = sum_ij conj(a_ij) b_ij for Hermitian a: O(d^2), no product.
    return float(np.vdot(a, b).real), float(np.vdot(a, a).real), float(np.vdot(b, b).real)


def _report_metrics(rho_th: np.ndarray, rho_ex: np.ndarray) -> dict[str, float]:
    """A report's fidelity and attenuated correlation from one set of terms."""
    return _scores(*_metric_terms(rho_th, rho_ex))


def _scores(t: float, na: float, nb: float) -> dict[str, float]:
    return {"fidelity": _fidelity(t, na, nb), "attenuated_correlation": _attenuated(t, na, nb)}


@dataclass(frozen=True, eq=False)
class TransferReport:
    """Outcome of one transfer experiment on the chain."""

    mode: str
    source_sites: tuple[int, ...]
    destination_sites: tuple[int, ...]
    input_matrix: np.ndarray
    output_matrix: np.ndarray
    fidelity: float
    attenuated_correlation: float
    sector_phases: SectorPhaseTable | None
    bell_label: str | None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "source_sites": list(self.source_sites),
            "destination_sites": list(self.destination_sites),
            "input_matrix": _mat_json(self.input_matrix),
            "output_matrix": _mat_json(self.output_matrix),
            "fidelity": self.fidelity,
            "attenuated_correlation": self.attenuated_correlation,
            "sector_phases": None
            if self.sector_phases is None
            else self.sector_phases.to_json(),
            "bell_label": self.bell_label,
        }


def _mat_json(M: np.ndarray) -> list:
    return np.stack([M.real, M.imag], axis=-1).tolist()


def _mirror_phases(w: complex, n_sites: int) -> tuple[complex, ...]:
    """p_k = w^k (-1)^(k(k-1)/2) for a one-excitation block w R: each of k
    excitations carries w, and reversing their order gives the sign."""
    return tuple(w**k * (-1.0) ** ((k * (k - 1) // 2) % 2) for k in range(n_sites + 1))


def _engineered_w(n_sites: int) -> complex:
    """(-i)^(N-1): the engineered chain's one-excitation phase at the mirror time."""
    return (-1j) ** ((n_sites - 1) % 4)


def _phase_table(u: np.ndarray) -> SectorPhaseTable | None:
    """The sector phases when u = w R for the site reversal R, else None."""
    w = _mirror_phase(u)
    return None if w is None else SectorPhaseTable(len(u), _mirror_phases(w / abs(w), len(u)))


def transfer_single(
    n_sites: int,
    site: int,
    state: np.ndarray,
    mode: str = "pure",
    spec: ChainSpec | None = None,
) -> TransferReport:
    """Send a one-qubit state from `site` to its mirror N+1-site.

    `state` is a 2-vector ket in pure mode, or a traceless Hermitian 2x2
    deviation operator in deviation mode.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if not 1 <= (site := _json_int(site, "site")) <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    if mode == "deviation" and n_sites > sys.float_info.max_exp:
        raise ValueError(f"a single-site deviation output scales as 2^(N-1), which "
                         f"exceeds the float range above {sys.float_info.max_exp} sites")
    data = np.asarray(state, complex)
    shape = (2,) if mode == "pure" else (2, 2)
    if data.shape != shape:
        raise ValueError(f"state must have shape {shape} in {mode} mode, got {data.shape}")
    if mode == "pure":
        norm = np.linalg.norm(data)  # nan or inf for non-finite entries
        if not 0.0 < norm < math.inf:
            raise ValueError("state must be a ket of finite, nonzero norm")
        data = data / norm
    return _transfer(n_sites, (site,), QuantumState(mode, data).data, mode, spec)


def transfer_entangled(
    n_sites: int,
    sites: tuple[int, int],
    bell_kind: str,
    mode: str = "pure",
    spec: ChainSpec | None = None,
) -> TransferReport:
    """Send a Bell pair from `sites` to the mirror pair.

    Pure mode keeps spectators in |0>; deviation mode prepares the Bell
    projector with maximally mixed spectators.  The reduced output is
    classified against the four Bell projectors and labeled when the
    overlap exceeds the labeling threshold.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if bell_kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {bell_kind!r}; expected one of {BELL_KINDS}")
    i, j = _json_array(sites, "sites", _json_int)
    if not (1 <= i < j <= n_sites):
        raise ValueError(f"sites {sites!r} must satisfy 1 <= i < j <= {n_sites}")
    return _transfer(n_sites, (i, j), bell_state(bell_kind), mode, spec)


def _transfer(
    n_sites: int,
    sites: tuple[int, ...],
    local: np.ndarray,
    mode: str,
    spec: ChainSpec | None,
) -> TransferReport:
    """Place `local` on `sites`, evolve to the mirror time, reduce onto the
    mirrored sites and compare with the expected output.

    `local` is a ket, placed with |0> spectators in pure mode and as its
    projector over maximally mixed spectators in deviation mode, and
    judged against the projector of its mirrored ket.  A 2x2 `local` is a
    single-site deviation operator, judged on the full register.
    """
    if spec is None:
        spec = ChainSpec.engineered(n_sites)
    elif spec.n_sites != n_sites:
        raise ValueError(f"chain has {spec.n_sites} sites, transfer asked for {n_sites}")
    u = propagator(single_excitation_matrix(spec), MIRROR_TIME)
    table = _phase_table(u)
    dest = tuple(n_sites + 1 - s for s in reversed(sites))
    if local.ndim == 2:
        rho_in = local
        rho_out = _reduced(_rotation(u), local, sites, dest) * 2.0 ** (n_sites - 1)
        metrics = _scores(*_register_terms(local, sites, spec, u))
    else:
        rho_in = np.outer(local, local.conj())
        if mode == "pure":
            rho_out = _pure_output(u, local, sites, dest)
        else:
            rho_out = _reduced(_rotation(u), rho_in, sites, dest)
        ref = table.phases if table is not None else _mirror_phases(_engineered_w(n_sites), n_sites)
        ket_th = _mirrored_ket(local, ref)
        metrics = _report_metrics(np.outer(ket_th, ket_th.conj()), rho_out)
    return TransferReport(
        mode=mode,
        source_sites=sites,
        destination_sites=dest,
        input_matrix=rho_in,
        output_matrix=rho_out,
        **metrics,
        sector_phases=table,
        bell_label=_classify_bell(rho_out) if len(sites) == 2 else None,
    )


def _excited(k: int) -> list[tuple[int, ...]]:
    """For each local label l on k sites, the positions it excites ('1' is
    a 0 bit; the first site is the most significant)."""
    return [tuple(t for t in range(k) if not (label >> (k - 1 - t)) & 1)
            for label in range(1 << k)]


def _pure_output(
    u: np.ndarray, ket: np.ndarray, sites: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Reduced output on `keep` of `ket` on `sites`, with |0> spectators.

    The ket has at most two excitations: a vacuum amplitude, a vector v and
    an antisymmetric A over the k input sites.  The chain takes them to
    y = C v and W = C A C^T for the k input columns C of u.  Row a of M
    holds amp(S_a) and amp(S_a + {r}) for the excited set S_a of kept label
    a and each rest site r, which needs y and the kept rows of W only.
    Pairs inside the rest add |W_rest|^2 / 2 to the all-'0' label, with
    |C_r A C_r^T|^2 = Tr(A^H K A conj(K)) for K = C_r^H C_r.
    """
    n, k = len(u), len(sites)
    C = u[:, np.subtract(sites, 1)]
    v, A = np.zeros(k, complex), np.zeros((k, k), complex)
    for amp, S in zip(ket, _excited(k)):
        if len(S) == 0:
            vacuum = amp
        elif len(S) == 1:
            v[S] = amp
        else:
            A[S], A[S[::-1]] = amp, -amp
    kept = np.subtract(keep, 1)
    rest = np.delete(np.arange(n), kept)
    y = C @ v
    W = C[kept] @ A @ C.T
    M = np.zeros((1 << k, 1 + n - k), complex)
    for row, S in zip(M, _excited(k)):
        if len(S) == 0:
            row[0], row[1:] = vacuum, y[rest]
        elif len(S) == 1:  # amp(S_a + {r}) = W[t, r] or W[r, t] = -W[t, r]
            t = kept[S[0]]
            row[0] = y[t]
            row[1:] = W[S[0], rest] * np.sign(rest - t)
        else:
            row[0] = W[S[0], kept[S[1]]]
    rho = M @ M.conj().T
    K = C[rest].conj().T @ C[rest]
    rho[-1, -1] += np.trace(A.conj().T @ K @ A @ K.conj()).real / 2
    return rho


def _rotation(u: np.ndarray) -> np.ndarray:
    """R with U g_k U^dag = sum_l R[l, k] g_l for the Majoranas
    g_2j = Z...Z X_j and g_2j+1 = Z...Z Y_j (site j from 0).

    Block (l, k) is [[Re v, Im v], [-Im v, Re v]] with
    v_lk = (-1)^(l+k) u_lk; R is orthogonal because u is unitary, and
    det R = |det v|^2 = 1.
    """
    n = len(u)
    sign = (-1.0) ** np.arange(n)
    v = sign[:, None] * u * sign
    R = np.empty((2 * n, 2 * n))
    R[0::2, 0::2] = R[1::2, 1::2] = v.real
    R[0::2, 1::2] = v.imag
    R[1::2, 0::2] = -v.imag
    return R


def _majorana_sets(sites: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, member) for all 4^k words on the 1-based `sites`, identity
    elsewhere, indexed x 2^k + z by their masks: word w equals c[w] g_S for
    the ascending Majorana product g_S over S = flatnonzero(member[w]).

    With (x_j, z_j) the word's bits at site j and p_j the parity of x above
    j, site j holds g_2j when x_j ^ z_j ^ p_j and g_2j+1 when z_j ^ p_j,
    and g_S = i^q W with q = sum_j (z_j ^ p_j) - x_j z_j.
    """
    k = len(sites)
    words = np.arange(1 << 2 * k)
    x, z = np.zeros((2, len(words), n), dtype=np.int64)
    for t, site in enumerate(sites):
        x[:, site - 1] = words >> (2 * k - 1 - t) & 1
        z[:, site - 1] = words >> (k - 1 - t) & 1
    b = z ^ (np.cumsum(x[:, ::-1], axis=1)[:, ::-1] - x) & 1
    q = b.sum(axis=1) - (x & z).sum(axis=1)
    member = np.stack([x ^ b, b], axis=2).reshape(len(words), 2 * n).astype(bool)
    return np.take(_I_POW, -q % 4), member


def _minors(R: np.ndarray, T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """det R[T_i, S_j] for the boolean rows T and S, all of one size m.

    Past m = n rows the complements are taken instead: R is in SO(2n), so
    Jacobi's identity with R^-1 = R^T gives
    det R[T, S] = (-1)^(sum T + sum S) det R[T^c, S^c].  The minors are
    gathered in blocks of about _MINOR_BLOCK entries.
    """
    sign = None
    if 2 * np.count_nonzero(T[0]) > len(R):
        idx = np.arange(len(R))
        sign = np.outer((-1.0) ** (T @ idx % 2), (-1.0) ** (S @ idx % 2))
        T, S = ~T, ~S
    m = np.count_nonzero(T[0])
    rows = np.nonzero(T)[1].reshape(len(T), m)
    cols = np.nonzero(S)[1].reshape(len(S), m)
    i, j = np.divmod(np.arange(len(T) * len(S)), len(S))
    out = np.empty(len(i))
    step = max(1, _MINOR_BLOCK // max(1, m * m))
    for lo in range(0, len(i), step):
        r, c = rows[i[lo:lo + step]], cols[j[lo:lo + step]]
        out[lo:lo + step] = np.linalg.det(R[r[:, :, None], c[:, None, :]])
    out = out.reshape(len(T), len(S))
    return out if sign is None else out * sign


def _reduced(
    R: np.ndarray, local: np.ndarray, sites: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Tr_rest(U (local ⊗ I) U^dag) / 2^(N - k) on the `keep` sites, for
    `local` on k `sites` and U the Gaussian evolution with rotation R.

    With P = p g_S and Q = q g_T words of the input and output sites,
    Tr(Q U P U^dag) / 2^N = q p (-1)^(m(m-1)/2) det R[T, S] when
    |S| = |T| = m, and 0 otherwise.  The input coefficients Tr(P local)
    are one :func:`xz_traces`, the minors of each size m are batched, and
    the output is summed over its words by one Walsh transform.
    """
    n, k = len(R) // 2, len(sites)
    d = 1 << k
    words = np.arange(d * d)
    phase = np.take(_I_POW, np.bitwise_count(words >> k & words) % 4)
    p, S = _majorana_sets(sites, n)
    q, T = _majorana_sets(keep, n)
    a = xz_traces(local).ravel() * phase * p
    m_in, m_out = S.sum(axis=1), T.sum(axis=1)
    c = np.zeros(d * d, complex)
    for m in np.unique(m_in[a != 0]):
        ins = np.flatnonzero((m_in == m) & (a != 0))
        outs = np.flatnonzero(m_out == m)
        if len(outs):
            c[outs] = (_minors(R, T[outs], S[ins]) * a[ins]).sum(axis=1)
    c *= q * (-1.0) ** (m_out * (m_out - 1) // 2 % 2) / d * phase
    # Word (x, z) adds c (-1)^|j & z| at [j ^ x, j] for each column j.
    b = _walsh(c.reshape(d, d))
    j = np.arange(d)
    out = np.empty((d, d), complex)
    out[j ^ j[:, None], j] = b
    return out


def _register_terms(
    local: np.ndarray, site: tuple[int, ...], spec: ChainSpec, u: np.ndarray
) -> tuple[float, float, float]:
    """(Tr(rho_th rho_out), Tr(rho_th^2), Tr(rho_out^2)) / 2^(N-1) on the full
    register for the deviation L = `local` on `site`: rho_out = U (L ⊗ I)
    U^dag and rho_th the same under the engineered chain E.  The scores
    are scale-free, and 2^(N-1) would overflow their products from 513 sites.

    Both norms are Tr(L^2), and an engineered chain is its own reference.
    Otherwise the overlap is Tr(L R_V(L)) for V = E^dag U, whose
    one-excitation block is conj(w) u[::-1] for u_E = w R, so its Majorana
    rotation is R_E^T R_U.
    """
    norm = float(np.vdot(local, local).real)
    if spec.is_engineered:
        return norm, norm, norm
    u_v = np.conj(_engineered_w(len(u))) * u[::-1]
    return float(np.vdot(local, _reduced(_rotation(u_v), local, site, site)).real), norm, norm


def _mirrored_ket(ket: np.ndarray, phases) -> np.ndarray:
    """The ket a mirror leaves on the mirrored sites: the local bit order
    reversed, and each k-excitation amplitude times phases[k] / phases[0]."""
    k = len(ket).bit_length() - 1
    ratios = np.asarray(phases) / phases[0]
    return (ket * ratios[excitation_numbers(k)])[mirror_permutation(k)]


def _classify_bell(rho: np.ndarray) -> str | None:
    tr = float(np.trace(rho).real)
    if tr <= 0.0:
        return None
    for kind in BELL_KINDS:
        b = bell_state(kind)
        overlap = float((b.conj() @ rho @ b).real) / tr
        if overlap >= BELL_LABEL_THRESHOLD:
            return kind
    return None
