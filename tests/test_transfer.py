"""Mirror transfer of single-site states and Bell pairs, sector phases,
and the ensemble fidelity metrics."""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mirrorchain import chain, states, transfer
from mirrorchain.chain import (
    MIRROR_TIME,
    ChainSpec,
    chain_propagator,
    engineered_couplings,
    propagator,
    single_excitation_matrix,
)
from mirrorchain.pauli import _I_POW, _LETTER_BITS, LETTERS, PauliString, pauli_matrix
from mirrorchain.states import (
    BELL_KINDS,
    basis_index,
    basis_ket,
    bell_state,
    bit_label,
    embed_at,
    embed_operator,
    excitation_numbers,
    mirror_permutation,
    partial_trace,
)
from mirrorchain.transfer import (
    SectorPhaseTable,
    _mirrored_ket,
    _report_metrics,
    attenuated_correlation,
    fidelity_metric,
    sector_phases,
    transfer_entangled,
    transfer_single,
)
from test_chain import kron_hamiltonian, oracle_chains

P = PauliString


# ---------------------------------------------------------------------------
# dense reference: kron-built propagators and full 2^N products


@functools.lru_cache(maxsize=None)
def dense_propagator(spec, tau=MIRROR_TIME):
    return propagator(kron_hamiltonian(spec), tau)


def reference_sector_phases(U, n):
    """Per-index loop over the dense propagator; None when not a mirror."""
    perm = mirror_permutation(n)
    refs = [None] * (n + 1)
    for j in range(1 << n):
        p = complex(U[perm[j], j])
        k = bit_label(j, n).count("1")
        if abs(abs(p) - 1.0) > 1e-9:
            return None
        if refs[k] is None:
            refs[k] = p / abs(p)
        elif abs(p - refs[k]) > 1e-9:
            return None
    return SectorPhaseTable(n, tuple(refs))


def reference_scores(rho_th, rho_ex):
    """(fidelity metric, attenuated correlation) from trace products."""
    t = np.trace(rho_th @ rho_ex).real
    na = np.trace(rho_th @ rho_th).real
    nb = np.trace(rho_ex @ rho_ex).real
    return t / math.sqrt(na * nb), t / na


def reference_single(n, site, state, mode, spec):
    U = dense_propagator(spec)
    table = reference_sector_phases(U, n)
    mirror = n + 1 - site
    if mode == "pure":
        ket = state / np.linalg.norm(state)
        out = U @ embed_at(ket, (site,), n)
        rho_out = partial_trace(np.outer(out, out.conj()), (mirror,), n)
        ratio = table.phases[1] / table.phases[0] if table is not None else (-1j) ** (n - 1)
        ket_th = np.array([ratio * ket[0], ket[1]])
        return table, rho_out, reference_scores(np.outer(ket_th, ket_th.conj()), rho_out)
    full = embed_operator(state, (site,), n)
    out = U @ full @ U.conj().T
    U_ref = dense_propagator(ChainSpec.engineered(n))
    rho_th = U_ref @ full @ U_ref.conj().T
    return table, partial_trace(out, (mirror,), n), reference_scores(rho_th, out)


def reference_bell(n, sites, kind, mode, spec):
    U = dense_propagator(spec)
    table = reference_sector_phases(U, n)
    dest = (n + 1 - sites[1], n + 1 - sites[0])
    bell = bell_state(kind)
    if mode == "pure":
        out = U @ embed_at(bell, sites, n)
        rho_out = partial_trace(np.outer(out, out.conj()), dest, n)
    else:
        rho = embed_operator(np.outer(bell, bell.conj()), sites, n) / (1 << (n - 2))
        rho_out = partial_trace(U @ rho @ U.conj().T, dest, n)
    phases = table.phases if table is not None else engineered_phases(n)
    ket_th = reference_mirrored_ket(bell, phases)
    return table, rho_out, reference_scores(np.outer(ket_th, ket_th.conj()), rho_out)


def engineered_phases(n):
    """p_k = w^k (-1)^(k(k-1)/2), w = (-i)^(N-1): the engineered chain's table."""
    w = (-1j) ** (n - 1)
    return [w**k * (-1.0) ** (k * (k - 1) // 2) for k in range(n + 1)]


def reference_mirrored_ket(ket, phases):
    """Per-label loop: label b lands as reversed(b), phased by its '1' count."""
    k = len(ket).bit_length() - 1
    out = np.zeros_like(ket, dtype=complex)
    for idx, amp in enumerate(ket):
        label = bit_label(idx, k)
        out[basis_index(label[::-1])] += amp * phases[label.count("1")] / phases[0]
    return out


def signed_chain(n, rng):
    """Seeded couplings with alternating signs and a zero last coupling, plus fields."""
    couplings = rng.uniform(0.2, 2.0, n - 1) * (-1.0) ** np.arange(1, n)
    couplings[-1] = 0.0
    return ChainSpec(couplings, rng.uniform(-1.0, 1.0, n))


def perturbed_chain(n, rng):
    """Engineered couplings times (1 + 0.05 g), kept palindromic: not a mirror."""
    g = rng.standard_normal(n)
    scale = [1.0 + 0.05 * g[min(i, n - 2 - i)] for i in range(n - 1)]
    return ChainSpec([J * s for J, s in zip(engineered_couplings(n), scale)], (0.0,) * n)


def assert_report_matches(rep, reference):
    table, rho_out, (fidelity, attenuated) = reference
    assert (rep.sector_phases is None) == (table is None)
    if table is not None:
        assert np.abs(np.array(rep.sector_phases.phases) - table.phases).max() <= 1e-12
    assert np.abs(rep.output_matrix - rho_out).max() <= 1e-12
    assert abs(rep.fidelity - fidelity) <= 1e-12
    assert abs(rep.attenuated_correlation - attenuated) <= 1e-12


def test_sector_phases_match_dense_oracle():
    # mirror chains give the loop's table from the sector blocks and from
    # the dense matrix; every other chain or time is rejected by both
    rng = np.random.default_rng(36)
    for n in range(2, 9):
        for spec in oracle_chains(n, rng) + [perturbed_chain(n, rng)]:
            for tau in (MIRROR_TIME, 0.37):
                U = dense_propagator(spec, tau)
                want = reference_sector_phases(U, n)
                check_sector_phases(chain_propagator(spec, tau), U, n)
        # Site reversal times unit phases: one phase per sector is a
        # mirror, a phase that varies inside a sector is not.
        R = np.eye(1 << n)[mirror_permutation(n)]
        k = excitation_numbers(n)
        for phases in (np.exp(1j * rng.uniform(-3, 3, n + 1))[k],
                       np.exp(1j * rng.uniform(-3, 3, 1 << n))):
            U = R * phases
            check_sector_phases(U, U, n)


def check_sector_phases(prop, U, n):
    want = reference_sector_phases(U, n)
    for given in (prop, U):
        if want is None:
            with pytest.raises(ValueError):
                sector_phases(given, n)
        else:
            got = sector_phases(given, n).phases
            assert np.abs(np.array(got) - want.phases).max() <= 1e-12


def test_transfer_reports_match_dense_oracle():
    # engineered chains, seeded chains with fields (no phase table), chains
    # with a zero and negative couplings, and perturbed chains, whose
    # deviation reference is the engineered chain; every source site and
    # ascending pair up to six sites, then site 1 and the pairs (1, 2),
    # (1, n) and (n - 1, n), whose Majorana sets span the chain
    rng = np.random.default_rng(37)
    signed_rng = np.random.default_rng(43)
    ket = np.array([0.8j, 0.6])
    sx = pauli_matrix(P("X"))
    for n in range(2, 9):
        sites = range(1, n + 1) if n <= 6 else (1,)
        if n <= 6:
            pairs = list(itertools.combinations(range(1, n + 1), 2))
        else:
            pairs = [(1, 2), (1, n), (n - 1, n)]
        chains = oracle_chains(n, rng) + [perturbed_chain(n, rng), signed_chain(n, signed_rng)]
        for spec in chains:
            for mode, state in (("pure", ket), ("deviation", sx)):
                for site in sites:
                    rep = transfer_single(n, site, state, mode=mode, spec=spec)
                    assert_report_matches(rep, reference_single(n, site, state, mode, spec))
                for pair, kind in itertools.product(pairs, ("phi+", "psi-")):
                    rep = transfer_entangled(n, pair, kind, mode=mode, spec=spec)
                    assert_report_matches(rep, reference_bell(n, pair, kind, mode, spec))


def majorana_matrices(n):
    """g_2j = Z...Z X_j and g_2j+1 = Z...Z Y_j as dense 2^N matrices."""
    return [pauli_matrix(P("Z" * j + letter + "I" * (n - j - 1)))
            for j in range(n) for letter in "XY"]


def test_rotation_matches_numerical_majorana_traces():
    # R[l, k] = Tr(g_l U g_k U^dag) / 2^N on seeded chains with fields,
    # at a generic time and at the mirror time
    rng = np.random.default_rng(44)
    for n in range(1, 7):
        g = majorana_matrices(n)
        for tau in (0.7, MIRROR_TIME):
            spec = ChainSpec(rng.uniform(-1.5, 1.5, n - 1), rng.uniform(-1.0, 1.0, n))
            U = dense_propagator(spec, tau)
            want = np.array([[np.vdot(gl, U @ gk @ U.conj().T).real for gk in g] for gl in g])
            u = propagator(single_excitation_matrix(spec), tau)
            assert np.abs(transfer._rotation(u) - want / (1 << n)).max() <= 1e-12, (n, tau)


def reference_majorana_word(letters, sites, n):
    """(c, S) with the word `letters` on the 1-based `sites`, identity
    elsewhere, equal to c g_S for the ascending Majorana product g_S.

    With (x_j, z_j) the word's bits at site j and p_j the parity of x above
    j, site j holds g_2j when x_j ^ z_j ^ p_j and g_2j+1 when z_j ^ p_j,
    and g_S = i^q W with q = sum_j (z_j ^ p_j) - x_j z_j.
    """
    x, z = np.zeros((2, n), dtype=int)
    for site, letter in zip(sites, letters):
        x[site - 1], z[site - 1] = _LETTER_BITS[letter]
    b = z ^ (np.cumsum(x[::-1])[::-1] - x) & 1
    q = int(b.sum() - (x & z).sum())
    return _I_POW[-q % 4], np.flatnonzero(np.stack([x ^ b, b], axis=1))


def reference_reduced(R, local, sites, keep):
    """Per-word, per-pair reduction: one Pauli matrix and one trace per
    word, one direct determinant per pair of equal-size Majorana sets."""
    n = len(R) // 2
    words = ["".join(w) for w in itertools.product(LETTERS, repeat=len(sites))]
    mats = [pauli_matrix(P(w)) for w in words]
    ins = [(np.vdot(M, local), reference_majorana_word(w, sites, n)) for w, M in zip(words, mats)]
    out = np.zeros_like(mats[0])
    for w, Q in zip(words, mats):
        q, T = reference_majorana_word(w, keep, n)
        m = len(T)
        sign = (-1.0) ** (m * (m - 1) // 2 % 2)
        c = sum(a * p * np.linalg.det(R[np.ix_(T, S)])
                for a, (p, S) in ins if a and len(S) == m)
        out += (q * sign * c / len(Q)) * Q
    return out


def seeded_rotations(n, rng):
    """Majorana rotations of the engineered chain at the mirror time and of
    a seeded chain with fields at a generic time."""
    specs = ((ChainSpec.engineered(n), MIRROR_TIME),
             (ChainSpec(rng.uniform(-1.5, 1.5, n - 1), rng.uniform(-1.0, 1.0, n)), 0.7))
    return [transfer._rotation(propagator(single_excitation_matrix(spec), tau))
            for spec, tau in specs]


def test_complementary_minors_equal_direct_minors():
    # det R[T, S] = (-1)^(sum T + sum S) det R[T^c, S^c] for R in SO(2N),
    # for every size m; _minors takes the complement past N rows
    rng = np.random.default_rng(46)
    for n in range(2, 9):
        for R in seeded_rotations(n, rng):
            for m in range(2 * n + 1):
                sets = np.zeros((6, 2 * n), bool)
                for row in sets:
                    row[rng.choice(2 * n, m, replace=False)] = True
                T, S = sets[:3], sets[3:]
                want = np.array([[np.linalg.det(R[np.ix_(t, s)]) for s in S] for t in T])
                sign = np.array([[(-1.0) ** (np.flatnonzero(t).sum() + np.flatnonzero(s).sum())
                                  for s in S] for t in T])
                comp = np.array([[np.linalg.det(R[np.ix_(~t, ~s)]) for s in S] for t in T])
                assert np.abs(sign * comp - want).max() <= 1e-12, (n, m)
                assert np.abs(transfer._minors(R, T, S) - want).max() <= 1e-12, (n, m)


def test_batched_reduction_matches_per_word_reduction():
    # every choice of k = 1 or 2 input sites and kept sites up to six sites,
    # for a dense Hermitian input (all 4^k words) and a Bell projector
    rng = np.random.default_rng(47)
    for n in range(2, 7):
        for R in seeded_rotations(n, rng):
            for k in (1, 2):
                H = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
                locals_ = [H + H.conj().T]
                if k == 2:
                    locals_.append(np.outer(bell_state("psi-"), bell_state("psi-").conj()))
                choices = list(itertools.combinations(range(1, n + 1), k))
                for sites, keep, local in itertools.product(choices, choices, locals_):
                    want = reference_reduced(R, local, sites, keep)
                    got = transfer._reduced(R, local, sites, keep)
                    assert np.abs(got - want).max() <= 1e-12, (n, sites, keep)


def test_transfer_phase_table_matches_sector_phases():
    # the verdict from u = w R agrees with the per-basis-state check of the
    # dense propagator, and so do the phases; the uniform field keeps the
    # mirror but moves w
    rng = np.random.default_rng(45)
    ket = np.array([0.8j, 0.6])
    for n in range(2, 11):
        engineered_with_field = ChainSpec(engineered_couplings(n), (0.3,) * n)
        chains = oracle_chains(n, rng) + [perturbed_chain(n, rng), engineered_with_field]
        verdicts = []
        for spec in chains:
            try:
                want = sector_phases(chain_propagator(spec, MIRROR_TIME), n)
            except ValueError:
                want = None
            got = transfer_single(n, 1, ket, spec=spec).sector_phases
            verdicts.append(got is not None)
            assert (got is None) == (want is None), (n, spec)
            if want is not None:
                assert np.abs(np.array(got.phases) - want.phases).max() <= 1e-12, n
        assert verdicts == [True, False, False, True], n
    # a reversal whose middle site carries another phase is not a mirror
    R = np.eye(3)[::-1]
    assert transfer._phase_table(1j * R).phases == (1.0, 1j, 1.0, 1j)
    assert transfer._phase_table(np.diag([1j, -1j, 1j]) @ R) is None


def test_engineered_transfer_at_four_hundred_sites():
    # no site cap: the engineered chain still inverts perfectly, and the
    # Bell label follows the two-excitation phase, phi+ -> phi+ for even N
    # and phi- for odd N; past 512 sites the register norms 2^(N-1) Tr(L^2)
    # would overflow their product
    sx = pauli_matrix(P("X"))
    for n, label in ((400, "phi+"), (601, "phi-")):
        for mode, pair in itertools.product(("pure", "deviation"), ((1, 2), (1, n))):
            rep = transfer_entangled(n, pair, "phi+", mode=mode)
            assert rep.destination_sites == (n + 1 - pair[1], n + 1 - pair[0])
            assert rep.fidelity >= 1 - 1e-9, (n, mode, pair)
            assert rep.bell_label == label, (n, mode, pair)
        rep = transfer_single(n, 1, sx, mode="deviation")
        assert rep.destination_sites == (n,)
        assert rep.fidelity >= 1 - 1e-9, n


def test_mirrored_ket_reverses_bits_and_phases_sectors():
    # Bell inputs are reversal-symmetric up to a sign, so they cannot show
    # a missing bit reversal; |10> and a generic three-site ket can.
    phases = (1j, -1.0, 1.0)
    assert np.abs(_mirrored_ket(basis_ket("10"), phases) - 1j * basis_ket("01")).max() == 0.0
    phases = tuple(np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7])))
    got = _mirrored_ket(basis_ket("110"), phases)
    assert np.abs(got - phases[2] / phases[0] * basis_ket("011")).max() <= 1e-15
    rng = np.random.default_rng(38)
    ket = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    want = reference_mirrored_ket(ket, phases)
    assert np.abs(_mirrored_ket(ket, phases) - want).max() <= 1e-15


def test_transfer_calls_no_kron(monkeypatch):
    # embedding and reduction go through the site-index map, in both modes,
    # for the engineered chain and for one judged against the engineered reference
    calls = []
    original = np.kron

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    ket = np.array([0.8j, 0.6])
    sx = pauli_matrix(P("X"))
    perturbed = perturbed_chain(5, np.random.default_rng(39))
    monkeypatch.setattr(np, "kron", counted)
    for spec in (None, perturbed):
        for mode, state in (("pure", ket), ("deviation", sx)):
            transfer_single(5, 2, state, mode=mode, spec=spec)
            transfer_entangled(5, (1, 3), "psi+", mode=mode, spec=spec)
    assert calls == []


def test_deviation_transfer_forms_no_register_operator(monkeypatch):
    # outputs and metric terms come from the N x N one-excitation
    # propagator: no sector block is built, no operator is lifted to the
    # register and no register state is reduced
    def refuse(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"{name} was called")
        return raiser

    for module, name in ((chain, "chain_propagator"), (chain, "build_hamiltonian"),
                         (states, "embed_operator"), (states, "partial_trace")):
        monkeypatch.setattr(module, name, refuse(name))
        monkeypatch.setattr(transfer, name, refuse(name), raising=False)
    sx = pauli_matrix(P("X"))
    perturbed = perturbed_chain(5, np.random.default_rng(40))
    for spec in (None, perturbed):
        transfer_single(5, 2, sx, mode="deviation", spec=spec)
        transfer_entangled(5, (1, 3), "psi+", mode="deviation", spec=spec)
        transfer_single(5, 2, np.array([0.8j, 0.6]), mode="pure", spec=spec)


def test_deviation_transfer_peak_memory_at_ten_sites():
    # one 1024 x 1024 complex array is 16 MiB
    sx = pauli_matrix(P("X"))
    perturbed = perturbed_chain(10, np.random.default_rng(41))
    runs = (
        lambda: transfer_single(10, 1, sx, "deviation"),
        lambda: transfer_entangled(10, (1, 2), "phi+", "deviation"),
        lambda: transfer_single(10, 1, sx, "deviation", perturbed),
    )
    for i, run in enumerate(runs):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, (i, peak / 2**20)


# ---------------------------------------------------------------------------
# sector phases


def test_engineered_sector_phases_follow_reordering_rule():
    # p_k = w^k (-1)^(k(k-1)/2) with w = (-i)^(N-1), normalized to p_0 = 1
    for n in range(2, 9):
        U = chain_propagator(ChainSpec.engineered(n), MIRROR_TIME)
        table = sector_phases(U, n)
        w = (-1j) ** (n - 1)
        assert table.phases[0] == pytest.approx(1.0, abs=1e-9)
        for k in range(n + 1):
            want = w**k * (-1.0) ** ((k * (k - 1) // 2) % 2)
            assert table.phases[k] / table.phases[0] == pytest.approx(want, abs=1e-7), (n, k)


def test_five_site_phase_ratios():
    U = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    table = sector_phases(U, 5)
    assert table.phases[1] / table.phases[0] == pytest.approx(1.0, abs=1e-9)
    assert table.phases[2] / table.phases[0] == pytest.approx(-1.0, abs=1e-9)


def test_sector_phases_rejects_non_mirror():
    U = chain_propagator(ChainSpec.engineered(4), 0.8 * MIRROR_TIME)
    with pytest.raises(ValueError):
        sector_phases(U, 4)


def test_sector_phases_rejects_inconsistent_sector():
    # a diagonal phase gate fixes every basis state (N=1 reversal is
    # trivial) but breaks the common-phase requirement inside k=0 vs k=1
    n = 2
    d = 4
    U = np.diag(np.exp(1j * np.array([0.1, 0.1, 0.3, 0.1])))
    # basis index 1 ('10') and 2 ('01') both have k=1 but map to each
    # other under reversal with different phases -> not a mirror at all
    with pytest.raises(ValueError):
        sector_phases(U, n)


def test_phase_table_validation():
    with pytest.raises(ValueError):
        SectorPhaseTable(2, (1.0, 1.0))  # needs N+1 entries
    with pytest.raises(ValueError):
        SectorPhaseTable(1, (1.0, 2.0))  # non-unit modulus
    table = SectorPhaseTable(1, (1.0, -1j))
    assert table.to_json()["phases"] == [[1.0, 0.0], [0.0, -1.0]]


# ---------------------------------------------------------------------------
# fidelity metrics


def test_report_metrics_equal_the_public_metrics():
    rng = np.random.default_rng(12)
    A, B = (M + M.conj().T for M in (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
                                     for _ in range(2)))
    for a, b in ((A, B), (A, A), (A, A.copy())):
        assert _report_metrics(a, b) == {
            "fidelity": fidelity_metric(a, b.copy()),
            "attenuated_correlation": attenuated_correlation(a, b.copy()),
        }


def test_each_report_computes_its_metric_terms_once(monkeypatch):
    # single-site deviation reports take their terms on the full register
    # from unitarity; a chain that is not engineered takes its engineered
    # reference from the closed form, so every report builds one N x N
    # propagator
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("_metric_terms", "_register_terms", "propagator"):
        monkeypatch.setattr(transfer, name, counted(name, getattr(transfer, name)))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    perturbed = perturbed_chain(5, np.random.default_rng(13))
    runs = [
        (lambda: transfer_single(5, 2, np.array([1.0, 1j]), "pure"), "_metric_terms"),
        (lambda: transfer_single(5, 2, x, "deviation"), "_register_terms"),
        (lambda: transfer_single(5, 2, x, "deviation", perturbed), "_register_terms"),
        (lambda: transfer_entangled(5, (1, 2), "phi+", "deviation"), "_metric_terms"),
    ]
    for run, terms in runs:
        calls.clear()
        run()
        assert [c for c in calls if c != "propagator"] == [terms]
        assert calls.count("propagator") == 1


def test_metric_on_identical_states_is_one():
    rho = np.outer(bell_state("phi+"), bell_state("phi+").conj())
    assert fidelity_metric(rho, rho) == pytest.approx(1.0)
    # scale invariance in both arguments
    assert fidelity_metric(rho, 0.5 * rho) == pytest.approx(1.0)
    assert fidelity_metric(3.0 * rho, rho) == pytest.approx(1.0)


def test_attenuated_correlation_tracks_scale():
    rho = np.outer(bell_state("phi+"), bell_state("phi+").conj())
    assert attenuated_correlation(rho, 0.5 * rho) == pytest.approx(0.5)
    assert attenuated_correlation(rho, rho) == pytest.approx(1.0)


def test_metric_between_orthogonal_bell_deviations():
    # deviation parts of phi+ and phi- projectors overlap at -1/3
    plus = np.outer(bell_state("phi+"), bell_state("phi+").conj()) - np.eye(4) / 4
    minus = np.outer(bell_state("phi-"), bell_state("phi-").conj()) - np.eye(4) / 4
    assert fidelity_metric(plus, minus) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_metric_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        fidelity_metric(rho, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fidelity_metric(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        fidelity_metric(rho, np.eye(4) / 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("metric", [fidelity_metric, attenuated_correlation])
def test_metrics_refuse_non_finite_input(metric, bad):
    rho = np.eye(2) / 2
    odd = rho.copy()
    odd[0, 0] = bad
    with pytest.raises(ValueError, match="rho_ex must be finite"):
        metric(rho, odd)
    with pytest.raises(ValueError, match="rho_th must be finite"):
        metric(odd, rho)


@pytest.mark.parametrize("ket", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0], [1.0, -math.inf]])
def test_transfer_refuses_non_finite_or_zero_kets(ket):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="state must be a ket of finite, nonzero norm"):
            transfer_single(4, 1, np.array(ket))


@pytest.mark.parametrize("mode, state", [
    ("pure", [1.0]),
    ("pure", [1.0, 0.0, 0.0, 0.0]),
    ("pure", np.eye(2)),
    ("deviation", np.diag([1.0, -1.0, 1.0, -1.0])),
    ("deviation", [1.0, -1.0]),
])
def test_transfer_refuses_a_state_that_is_not_one_qubit(mode, state):
    with pytest.raises(ValueError, match=r"^state must have shape"):
        transfer_single(4, 1, np.array(state), mode=mode)


@pytest.mark.parametrize("call, field", [
    (lambda: transfer_single(4, 1.5, basis_ket("0")), "site"),
    (lambda: transfer_single(4, True, basis_ket("0")), "site"),
    (lambda: transfer_single(4, 1.0, pauli_matrix(P("Z")), mode="deviation"), "site"),
    (lambda: transfer_entangled(4, (1.0, 2.0), "phi+"), r"sites\[0\]"),
    (lambda: transfer_entangled(4, (1, True), "phi+"), r"sites\[1\]"),
    (lambda: transfer_single(5.5, 1, basis_ket("1")), "n_sites"),
    (lambda: transfer_single(True, 1, basis_ket("1")), "n_sites"),
    (lambda: transfer_entangled(5.5, (1, 2), "phi+"), "n_sites"),
], ids=["float", "bool", "deviation-float", "pair-float", "pair-bool", "n-float", "n-bool",
        "pair-n-float"])
def test_transfer_sites_must_be_integers(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: transfer_entangled(4, (1,), "phi+"), r"sites must hold two sites, got \(1,\)"),
    (lambda: transfer_entangled(4, (1, 2, 3), "phi+"), "sites must hold two sites"),
    (lambda: transfer_single(4, 1, basis_ket("1"), spec=5), "spec must be a ChainSpec, got int"),
    (lambda: transfer_entangled(4, (1, 4), "phi+", spec="chain.json"),
     "spec must be a ChainSpec, got str"),
    (lambda: transfer_single(4, 1, "ab"), "state must be numeric"),
    (lambda: fidelity_metric("a", "b"), "rho_th must be numeric"),
    (lambda: attenuated_correlation(np.eye(2), None), "rho_ex must be numeric"),
], ids=["one-site", "three-sites", "single-spec", "pair-spec", "state-str", "metric-str",
        "metric-none"])
def test_transfer_refuses_a_malformed_pair_or_chain(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.fixture
def six_state_design() -> dict[str, np.ndarray]:
    """The +-X, +-Y, +-Z eigenstate kets, keyed by axis and sign."""
    design: dict[str, np.ndarray] = {}
    for axis in "xyz":
        evals, evecs = np.linalg.eigh(pauli_matrix(P(axis.upper())))
        for val, vec in zip(evals, evecs.T):
            design[f"{'+' if val > 0 else '-'}{axis}"] = vec.astype(complex)
    return design


def test_six_state_design(six_state_design):
    assert set(six_state_design) == {"+x", "-x", "+y", "-y", "+z", "-z"}
    for axis in "xyz":
        sigma = pauli_matrix(P(axis.upper()))
        for sign in "+-":
            vec = six_state_design[f"{sign}{axis}"]
            val = 1.0 if sign == "+" else -1.0
            assert np.allclose(sigma @ vec, val * vec, atol=1e-12)


# ---------------------------------------------------------------------------
# single-site transfer


def test_pure_transfer_site_one_to_five():
    ket = np.array([1.0, 1.0])  # transfer_single normalizes the ket
    rep = transfer_single(5, 1, ket, mode="pure")
    assert rep.source_sites == (1,)
    assert rep.destination_sites == (5,)
    assert rep.fidelity >= 1 - 1e-9
    assert rep.sector_phases is not None


def test_pure_transfer_all_sites_and_states(six_state_design):
    for n in (4, 5, 6):
        for site in range(1, n + 1):
            for ket in six_state_design.values():
                rep = transfer_single(n, site, ket, mode="pure")
                assert rep.fidelity >= 1 - 1e-9, (n, site)


def test_center_site_is_fixed_point():
    rep = transfer_single(5, 3, np.array([0.8j, 0.6]), mode="pure")
    assert rep.destination_sites == (3,)
    assert rep.fidelity >= 1 - 1e-12


def test_pure_transfer_phase_matters():
    # the transferred ket is NOT the input when the one-excitation phase
    # is nontrivial: for N=4, w = (-i)^3 = i, so |0>+|1> lands as |0>+i|1>
    # at site 4; the naive unphased target has fidelity 1/2
    ket = np.array([1.0, 1.0]) / np.sqrt(2)
    rep = transfer_single(4, 1, ket, mode="pure")
    assert rep.fidelity >= 1 - 1e-9
    naive = np.outer(ket, ket.conj())
    got = rep.output_matrix
    overlap = float(np.trace(naive @ got).real)
    assert overlap == pytest.approx(0.5, abs=1e-9)


def test_deviation_transfer_site_one():
    rep = transfer_single(5, 1, pauli_matrix(P("X")), mode="deviation")
    assert rep.mode == "deviation"
    assert rep.fidelity >= 1 - 1e-9
    assert rep.bell_label is None


def test_deviation_heisenberg_x_to_anti_phase_string():
    # sigma_x on site 1 evolves to Z Z Z Z sigma_x under the 5-site mirror
    U = chain_propagator(ChainSpec.engineered(5), MIRROR_TIME)
    sx_full = embed_operator(pauli_matrix(P("X")), (1,), 5)
    evolved = U @ sx_full @ U.conj().T
    want = pauli_matrix(P("ZZZZX"))
    assert np.abs(evolved - want).max() < 1e-9


def test_deviation_reduced_output_is_attenuated():
    # the reduced single-site output shows no coherence: it hides in the
    # Z-string correlations, so the reduced matrix is nearly zero while the
    # full-register fidelity is perfect
    rep = transfer_single(5, 1, pauli_matrix(P("X")), mode="deviation")
    assert np.abs(rep.output_matrix).max() < 1e-9
    assert rep.fidelity >= 1 - 1e-9


def test_deviation_z_input_survives_reduction():
    # sigma_z commutes with the Z strings, so the reduced output is exact
    # up to the 2^(N-1) scale of tracing the identity spectators
    rep = transfer_single(4, 2, pauli_matrix(P("Z")), mode="deviation")
    assert rep.fidelity >= 1 - 1e-9
    assert np.abs(rep.output_matrix - 8.0 * pauli_matrix(P("Z"))).max() < 1e-9


def test_transfer_site_range_checked():
    with pytest.raises(ValueError):
        transfer_single(5, 0, basis_ket("0"))
    with pytest.raises(ValueError):
        transfer_single(5, 6, basis_ket("0"))
    with pytest.raises(ValueError):
        transfer_single(5, 1, basis_ket("0"), mode="heisenberg")


def test_transfer_with_explicit_spec():
    spec = ChainSpec.engineered(4)
    rep = transfer_single(4, 1, basis_ket("1"), spec=spec)
    assert rep.fidelity >= 1 - 1e-9
    with pytest.raises(ValueError):
        transfer_single(5, 1, basis_ket("1"), spec=spec)


def test_transfer_on_non_mirror_chain_reports_low_fidelity():
    # a uniform chain does not mirror at pi/2; the report should still be
    # produced, with no sector table and imperfect fidelity
    spec = ChainSpec((1.0, 1.0, 1.0), (0.0,) * 4)
    rep = transfer_single(4, 1, np.array([1.0, 1.0]), spec=spec)
    assert rep.sector_phases is None
    assert rep.fidelity < 1 - 1e-3


# ---------------------------------------------------------------------------
# Bell transfer


def test_bell_phi_plus_becomes_phi_minus():
    rep = transfer_entangled(5, (1, 2), "phi+", mode="pure")
    assert rep.destination_sites == (4, 5)
    assert rep.fidelity >= 1 - 1e-9
    assert rep.bell_label == "phi-"


def test_bell_psi_plus_stays_psi_plus():
    rep = transfer_entangled(5, (1, 2), "psi+", mode="pure")
    assert rep.fidelity >= 1 - 1e-9
    assert rep.bell_label == "psi+"


def test_bell_transfer_both_modes_all_kinds():
    # frozen labels for the 5-site chain, pair (1,2) -> (4,5): the two-
    # excitation sector flips the phi sign while psi pairs ride sector one
    want = {"phi+": "phi-", "phi-": "phi+", "psi+": "psi+", "psi-": "psi-"}
    for kind in BELL_KINDS:
        for mode in ("pure", "deviation"):
            rep = transfer_entangled(5, (1, 2), kind, mode=mode)
            assert rep.fidelity >= 1 - 1e-9, (kind, mode)
            assert rep.bell_label == want[kind], (kind, mode)


def test_bell_adjacent_center_pair():
    rep = transfer_entangled(4, (2, 3), "phi+", mode="pure")
    # destination is the same pair, order preserved by the swap
    assert rep.destination_sites == (2, 3)
    assert rep.fidelity >= 1 - 1e-9


def test_bell_arbitrary_pair_six_sites():
    rep = transfer_entangled(6, (2, 5), "psi-", mode="deviation")
    assert rep.destination_sites == (2, 5)
    assert rep.fidelity >= 1 - 1e-9
    assert rep.bell_label == "psi-"


def test_bell_site_validation():
    with pytest.raises(ValueError):
        transfer_entangled(5, (2, 2), "phi+")
    with pytest.raises(ValueError):
        transfer_entangled(5, (3, 1), "phi+")
    with pytest.raises(ValueError):
        transfer_entangled(5, (1, 2), "bell")


def test_report_serializes():
    rep = transfer_entangled(5, (1, 2), "phi+", mode="pure")
    data = rep.to_json()
    assert data["bell_label"] == "phi-"
    assert data["mode"] == "pure"
    assert len(data["output_matrix"]) == 4
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-9)
