"""Pulse-level control: drift model, exact gradients, and the optimizer.

The slow full-size optimizations live in the acceptance suite; here the
instances are kept small enough to run in seconds.
"""

import itertools
import math
import pathlib

import numpy as np
import pytest

from mirrorchain import grape
from mirrorchain.grape import (
    GrapeConfig,
    GrapeResult,
    NmrSystemSpec,
    PulseSequence,
    control_operators,
    drift_hamiltonian,
    fidelity_hs,
    grape_optimize,
    mean_fidelity_and_gradient,
    propagate,
)
from mirrorchain.pauli import PauliString, pauli_matrix

P = PauliString

SINGLE_SPIN = NmrSystemSpec((0.0,), ((0.0,),), ((1,),), (1.0,))

TWO_SPIN_10HZ = NmrSystemSpec(
    shifts_hz=(0.0, 0.0),
    couplings_hz=((0.0, 10.0), (10.0, 0.0)),
    channels=((1,), (2,)),
    weights=(1.0, 1.0),
)

THREE_SPIN = NmrSystemSpec(
    shifts_hz=(120.0, -40.0, 310.0),
    couplings_hz=((0.0, 8.0, 2.0), (8.0, 0.0, 12.0), (2.0, 12.0, 0.0)),
    channels=((1, 2), (3,)),
    weights=(1.0, 0.94),
)

SPECS = (SINGLE_SPIN, TWO_SPIN_10HZ, THREE_SPIN)
SCALES = ((1.0,), (0.9, 1.0, 1.1))

DEMO_THREE_SPIN = pathlib.Path(__file__).resolve().parents[1] / "demos/specs/nmr_three_spin.json"


def random_unitary(rng, d):
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(M)[0]


# Reference: one eigh and one Python loop per step, and a sum over every
# (step, channel, x/y) gradient component, as the package computed them
# before the batched kernel.

def reference_gamma(evals, dt):
    """(e^{-i dt a} - e^{-i dt b}) / (a - b), exact at every gap: the quotient
    where dt |a - b| >= 0.1, else e^{-i dt b} (-i dt) sum_m (-i y)^m / (m + 1)!
    with y = dt (a - b), a series that needs no subtraction."""
    a, b = evals[:, None], evals[None, :]
    y = dt * (a - b)
    series = sum((-1j * y) ** m / math.factorial(m + 1) for m in range(20))
    near = -1j * dt * np.exp(-1j * dt * b) * series
    far = np.abs(y) >= 0.1
    quotient = (np.exp(-1j * dt * a) - np.exp(-1j * dt * b)) / np.where(far, a - b, 1.0)
    return np.where(far, quotient, near)


def reference_propagate(spec, pulse):
    Hd = drift_hamiltonian(spec)
    ops = control_operators(spec)
    U = np.eye(Hd.shape[0], dtype=complex)
    for t in range(pulse.n_steps):
        H = Hd.copy()
        for c, (cx, cy) in enumerate(ops):
            H += pulse.amplitudes[t, c, 0] * cx + pulse.amplitudes[t, c, 1] * cy
        evals, Q = np.linalg.eigh(H)
        U = (Q * np.exp(-1j * pulse.dt * evals)) @ Q.conj().T @ U
    return U


def reference_phi_and_grad(spec, target, u, dt, scales):
    Hd = drift_hamiltonian(spec)
    ops = control_operators(spec)
    d = Hd.shape[0]
    T = u.shape[0]
    Vh = target.conj().T
    phi_total = 0.0
    grad_total = np.zeros_like(u)
    for s in scales:
        eigs = []
        Us = []
        for t in range(T):
            H = Hd.copy()
            for c, (cx, cy) in enumerate(ops):
                H += s * (u[t, c, 0] * cx + u[t, c, 1] * cy)
            evals, Q = np.linalg.eigh(H)
            eigs.append((evals, Q))
            Us.append((Q * np.exp(-1j * dt * evals)) @ Q.conj().T)
        F = [np.eye(d, dtype=complex)]
        for t in range(T):
            F.append(Us[t] @ F[-1])
        B = [np.eye(d, dtype=complex) for _ in range(T + 2)]
        for t in range(T, 0, -1):
            B[t] = B[t + 1] @ Us[t - 1]
        z = complex(np.trace(Vh @ F[T]))
        phi_total += abs(z) / d
        if abs(z) > 1e-15:
            zbar = z.conjugate()
            for t in range(T):
                evals, Q = eigs[t]
                Qh = Q.conj().T
                gamma = reference_gamma(evals, dt)
                P = (Qh @ (F[t] @ Vh @ B[t + 2]) @ Q).T
                for c, (cx, cy) in enumerate(ops):
                    for xy, E in ((0, cx), (1, cy)):
                        G = Qh @ E @ Q
                        dz = s * complex(np.sum(P * (gamma * G)))
                        grad_total[t, c, xy] += (zbar * dz).real / (abs(z) * d)
    k = float(len(scales))
    return phi_total / k, grad_total / k


class TestSystemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NmrSystemSpec((), (), (), ())
        with pytest.raises(ValueError):  # asymmetric couplings
            NmrSystemSpec((0.0, 0.0), ((0.0, 1.0), (2.0, 0.0)), ((1, 2),), (1.0,))
        with pytest.raises(ValueError):  # nonzero diagonal
            NmrSystemSpec((0.0,), ((5.0,),), ((1,),), (1.0,))
        with pytest.raises(ValueError):  # channels not a partition
            NmrSystemSpec((0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), ((1,),), (1.0,))
        with pytest.raises(ValueError):  # weight count
            NmrSystemSpec((0.0,), ((0.0,),), ((1,),), (1.0, 2.0))
        for spec in (
            ((math.nan,), ((0.0,),), ((1,),), (1.0,)),
            ((0.0, 0.0), ((0.0, math.inf), (math.inf, 0.0)), ((1, 2),), (1.0,)),
            ((0.0,), ((0.0,),), ((1,),), (math.nan,)),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                NmrSystemSpec(*spec)

    def test_json_round_trip(self):
        again = NmrSystemSpec.from_json(THREE_SPIN.to_json())
        assert again == THREE_SPIN
        with pytest.raises(ValueError):
            NmrSystemSpec.from_json({"n": 2, "shifts_hz": [0.0]})

    def test_counts(self):
        assert THREE_SPIN.n_spins == 3
        assert THREE_SPIN.n_channels == 2


class TestHamiltonians:
    def test_two_spin_drift(self):
        # pure 10 Hz coupling: (pi/2) * 10 * ZZ
        want = (math.pi / 2.0) * 10.0 * pauli_matrix(P("ZZ"))
        assert np.allclose(drift_hamiltonian(TWO_SPIN_10HZ), want)

    def test_shift_terms(self):
        spec = NmrSystemSpec((25.0,), ((0.0,),), ((1,),), (1.0,))
        want = -math.pi * 25.0 * pauli_matrix(P("Z"))
        assert np.allclose(drift_hamiltonian(spec), want)

    def test_drift_is_diagonal(self):
        H = drift_hamiltonian(THREE_SPIN)
        assert np.abs(H - np.diag(np.diag(H))).max() == 0.0

    def test_control_operators(self):
        ops = control_operators(THREE_SPIN)
        assert len(ops) == 2
        want_x = math.pi * (pauli_matrix(P("XII")) + pauli_matrix(P("IXI")))
        assert np.allclose(ops[0][0], want_x)
        want_y3 = math.pi * 0.94 * pauli_matrix(P("IIY"))
        assert np.allclose(ops[1][1], want_y3)


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseSequence(0.0, np.zeros((3, 1, 2)))
        with pytest.raises(ValueError):
            PulseSequence(1e-4, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            PulseSequence(1e-4, np.full((3, 1, 2), np.nan))
        for dt in (math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be"):
                PulseSequence(dt, np.zeros((3, 1, 2)))
        for dt in (True, "0.5"):
            with pytest.raises(ValueError, match="dt must be a number"):
                PulseSequence(dt, np.zeros((3, 1, 2)))

    def test_properties(self):
        pulse = PulseSequence(2e-3, np.zeros((25, 2, 2)))
        assert pulse.n_steps == 25
        assert pulse.n_channels == 2
        assert pulse.total_duration == pytest.approx(0.05)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        amps = rng.uniform(-100, 100, (4, 2, 2))
        path = tmp_path / "pulse.csv"
        PulseSequence(1e-4, amps).write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,channel,amp_x_hz,amp_y_hz"
        assert len(lines) == 1 + 4 * 2
        step, chan, x, y = lines[1 + 2 * 2 + 1].split(",")  # step 2, channel 1
        assert (int(step), int(chan)) == (2, 1)
        assert float(x) == amps[2, 1, 0]  # repr round-trips exactly
        assert float(y) == amps[2, 1, 1]


class TestPropagation:
    def test_zero_pulse_is_pure_drift(self):
        pulse = PulseSequence(0.01, np.zeros((5, 2, 2)))
        got = propagate(TWO_SPIN_10HZ, pulse)
        H = drift_hamiltonian(TWO_SPIN_10HZ)
        w, Q = np.linalg.eigh(H)
        want = (Q * np.exp(-1j * 0.05 * w)) @ Q.conj().T
        assert np.allclose(got, want, atol=1e-12)

    def test_step_order_is_time_ordered(self):
        # two noncommuting steps: an X pulse then a Y pulse; the product
        # must apply step 0 first (rightmost factor)
        amps = np.array([[[1000.0, 0.0]], [[0.0, 1000.0]]])
        pulse = PulseSequence(1e-4, amps)
        got = propagate(SINGLE_SPIN, pulse)
        a = math.pi * 1000.0 * 1e-4
        ux = math.cos(a) * np.eye(2) - 1j * math.sin(a) * pauli_matrix(P("X"))
        uy = math.cos(a) * np.eye(2) - 1j * math.sin(a) * pauli_matrix(P("Y"))
        assert np.allclose(got, uy @ ux, atol=1e-12)
        assert not np.allclose(got, ux @ uy, atol=1e-3)

    def test_unitarity(self):
        rng = np.random.default_rng(51)
        pulse = PulseSequence(2e-4, rng.uniform(-300, 300, (6, 2, 2)))
        U = propagate(THREE_SPIN, pulse)
        assert np.allclose(U @ U.conj().T, np.eye(8), atol=1e-12)

    def test_channel_count_checked(self):
        with pytest.raises(ValueError):
            propagate(SINGLE_SPIN, PulseSequence(1e-4, np.zeros((2, 3, 2))))


class TestFidelityAndGradient:
    def test_fidelity_phase_invariant(self):
        U = pauli_matrix(P("X")).astype(complex)
        assert fidelity_hs(U, U) == pytest.approx(1.0)
        assert fidelity_hs(U, np.exp(0.7j) * U) == pytest.approx(1.0)
        assert fidelity_hs(U, np.eye(2, dtype=complex)) == pytest.approx(0.0, abs=1e-12)

    def test_single_scale_equals_plain_objective(self):
        rng = np.random.default_rng(52)
        u = rng.standard_normal((4, 2, 2)) * 200.0
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        V, _ = np.linalg.qr(M)
        phi, _ = mean_fidelity_and_gradient(THREE_SPIN, V, u, 2e-4, (1.0,))
        U = propagate(THREE_SPIN, PulseSequence(2e-4, u))
        assert phi == pytest.approx(fidelity_hs(V, U), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # exact divided-difference gradient vs central differences
        for spec, scales in itertools.product(SPECS, SCALES):
            rng = np.random.default_rng(3)
            V = random_unitary(rng, 2 ** spec.n_spins)
            u = rng.standard_normal((4, spec.n_channels, 2)) * 200.0
            dt = 2e-4
            h = 1e-4
            phi, grad = mean_fidelity_and_gradient(spec, V, u, dt, scales)
            assert 0.0 < phi < 1.0
            worst = 0.0
            for t in range(4):
                for c in range(spec.n_channels):
                    for xy in range(2):
                        up = u.copy()
                        up[t, c, xy] += h
                        um = u.copy()
                        um[t, c, xy] -= h
                        fp, _ = mean_fidelity_and_gradient(spec, V, up, dt, scales)
                        fm, _ = mean_fidelity_and_gradient(spec, V, um, dt, scales)
                        fd = (fp - fm) / (2 * h)
                        denom = max(abs(fd), abs(grad[t, c, xy]), 1e-12)
                        worst = max(worst, abs(fd - grad[t, c, xy]) / denom)
            assert worst <= 1e-5, (spec, scales)

    def test_gradient_with_rf_scales_is_the_scale_average(self):
        for spec in SPECS:
            rng = np.random.default_rng(53)
            V = random_unitary(rng, 2 ** spec.n_spins)
            u = rng.standard_normal((3, spec.n_channels, 2)) * 150.0
            dt = 2e-4
            scales = (0.9, 1.0, 1.1)
            phi, grad = mean_fidelity_and_gradient(spec, V, u, dt, scales)
            phis, grads = zip(
                *(mean_fidelity_and_gradient(spec, V, u * 1.0, dt, (s,))
                  for s in scales)
            )
            # each scale-s term equals the plain objective at scaled amplitudes
            for s, p in zip(scales, phis):
                Us = propagate(spec, PulseSequence(dt, s * u))
                assert p == pytest.approx(fidelity_hs(V, Us), abs=1e-12)
            assert phi == pytest.approx(sum(phis) / 3.0, abs=1e-12)
            # chain rule: d/du of the scale-s term carries a factor s handled
            # inside; the average must match
            avg = sum(np.asarray(g) for g in grads) / 3.0
            assert np.abs(grad - avg).max() < 1e-12

    @pytest.mark.parametrize("spec", SPECS, ids=["one", "two", "three"])
    @pytest.mark.parametrize("scales", SCALES, ids=["plain", "robust"])
    def test_batched_kernel_matches_per_step_reference(self, spec, scales):
        rng = np.random.default_rng(54)
        V = random_unitary(rng, 2 ** spec.n_spins)
        u = rng.uniform(-300.0, 300.0, (7, spec.n_channels, 2))
        u[2] = 0.0  # a drift-only step has degenerate eigenvalues
        dt = 1e-3
        for s in scales:
            pulse = PulseSequence(dt, s * u)
            want = reference_propagate(spec, pulse)
            assert np.abs(propagate(spec, pulse) - want).max() <= 1e-12
        phi, grad = mean_fidelity_and_gradient(spec, V, u, dt, scales)
        phi_ref, grad_ref = reference_phi_and_grad(spec, V, u, dt, scales)
        assert 0.0 < phi < 1.0
        assert abs(phi - phi_ref) <= 1e-12
        assert np.abs(grad - grad_ref).max() <= 1e-12


    def test_inputs_are_validated_with_the_field_named(self):
        V = np.eye(2, dtype=complex)
        u = np.zeros((3, 1, 2))
        for kwargs, field in (
            (dict(rf_scales=()), "rf_scales"),
            (dict(rf_scales=(1.0, math.nan)), "rf_scales"),
            (dict(amplitudes=np.full((3, 1, 2), math.nan)), "amplitudes"),
            (dict(amplitudes=np.zeros((3, 1))), "amplitudes"),
            (dict(amplitudes=np.zeros((3, 2, 2))), "amplitudes"),
            (dict(dt=math.nan), "dt"),
            (dict(dt=0.0), "dt"),
            (dict(target=np.eye(4)), "target"),
            (dict(target=np.full((2, 2), math.nan)), "target"),
        ):
            args = {**dict(target=V, amplitudes=u, dt=1e-4, rf_scales=(1.0,)), **kwargs}
            with pytest.raises(ValueError, match=field):
                mean_fidelity_and_gradient(SINGLE_SPIN, **args)


class TestKernel:
    """The value pass, the gradient pass and the pairwise step product."""

    def test_gamma_is_exact_for_near_degenerate_eigenvalues(self):
        # a quotient of the two exponentials loses digits as the gap closes
        a, dt = 1000.0, 1e-3
        for gap in 10.0 ** -np.arange(6, 14):
            evals = np.array([a, a + gap, a - 3.0 * gap, 0.0])
            want = reference_gamma(evals, dt)
            rel = np.abs(grape._gamma(evals, dt) - want) / np.abs(want)
            assert rel.max() <= 1e-13, gap

    @pytest.mark.parametrize("steps", [1, 2, 3, 33, 64, 65])
    def test_kernel_matches_per_step_reference(self, steps):
        rng = np.random.default_rng(55)
        V = random_unitary(rng, 8)
        u = rng.uniform(-300.0, 300.0, (steps, THREE_SPIN.n_channels, 2))
        dt = 2e-4
        pulse = PulseSequence(dt, u)
        assert np.abs(propagate(THREE_SPIN, pulse) - reference_propagate(THREE_SPIN, pulse)).max() <= 1e-12
        scales = (0.9, 1.0, 1.1)
        phi, grad = mean_fidelity_and_gradient(THREE_SPIN, V, u, dt, scales)
        phi_ref, grad_ref = reference_phi_and_grad(THREE_SPIN, V, u, dt, scales)
        assert 0.0 < phi < 1.0
        assert abs(phi - phi_ref) <= 1e-12
        assert np.abs(grad - grad_ref).max() <= 1e-12

    @pytest.mark.parametrize("scales", SCALES, ids=["plain", "robust"])
    def test_value_pass_equals_composite(self, scales):
        rng = np.random.default_rng(56)
        V = random_unitary(rng, 8)
        u = rng.uniform(-300.0, 300.0, (9, THREE_SPIN.n_channels, 2))
        Hd, ops = drift_hamiltonian(THREE_SPIN), control_operators(THREE_SPIN)
        phi, parts = grape._value(Hd, ops, V.conj().T, u, 1e-3, scales)
        phi_full, grad = grape._phi_and_grad(Hd, ops, V.conj().T, u, 1e-3, scales)
        assert abs(phi - phi_full) <= 1e-12
        assert len(parts) == len(scales)
        assert np.array_equal(grape._gradient(ops, 1e-3, parts), grad)

    def test_optimizer_evaluates_each_trial_once_and_differentiates_accepted_ones(
        self, monkeypatch
    ):
        counts = dict.fromkeys(("eigh", "value", "gradient", "prefixes", "prefixes in gradient"), 0)
        active = []  # the counted calls now running, outermost first

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if name == "prefixes" and "gradient" in active:
                    counts["prefixes in gradient"] += 1
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(grape, "_value", counted("value", grape._value))
        monkeypatch.setattr(grape, "_gradient", counted("gradient", grape._gradient))
        monkeypatch.setattr(grape, "_prefixes", counted("prefixes", grape._prefixes))
        scales = (0.95, 1.0, 1.05)
        cfg = GrapeConfig(steps=20, dt=1e-4, amp_max_hz=2000.0, stop_fidelity=0.9999,
                          seed=5, max_iterations=40, rf_scales=scales)
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("Z")), cfg)
        assert res.iterations > 0
        # the initial point and every line-search trial
        assert counts["eigh"] == len(scales) * counts["value"]
        # one step product per scale and value pass; the gradient reads its prefixes
        assert counts["prefixes"] == len(scales) * counts["value"]
        assert counts["prefixes in gradient"] == 0
        # rejected trials do occur, and they pay for no gradient
        assert counts["value"] > res.iterations + 1
        assert counts["gradient"] == res.iterations + 1


class TestOptimizer:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrapeConfig(steps=0, dt=1e-4, amp_max_hz=100.0)
        with pytest.raises(ValueError):
            GrapeConfig(steps=5, dt=-1.0, amp_max_hz=100.0)
        with pytest.raises(ValueError):
            GrapeConfig(steps=5, dt=1e-4, amp_max_hz=100.0, init="warm")
        with pytest.raises(ValueError):
            GrapeConfig(steps=5, dt=1e-4, amp_max_hz=100.0, rf_scales=())
        for bad in (
            dict(dt=math.nan),
            dict(amp_max_hz=math.inf),
            dict(stop_fidelity=math.nan),
        ):
            kwargs = {**dict(steps=5, dt=1e-4, amp_max_hz=100.0), **bad}
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be .*finite"):
                GrapeConfig(**kwargs)
        for scales in ((0.0,), (1.0, -0.5)):
            with pytest.raises(ValueError, match="rf_scales must be .*positive"):
                GrapeConfig(steps=5, dt=1e-4, amp_max_hz=100.0, rf_scales=scales)
        # Each scale is read by field, so a bad element is named with its index.
        for scales, message in (
            ((1.0, math.nan), r"rf_scales\[1\] must be finite"),
            ((True,), r"rf_scales\[0\] must be a number"),
            ((1.0, "2"), r"rf_scales\[1\] must be a number"),
            ((s for s in (1.0,)), "rf_scales must be an array"),
        ):
            with pytest.raises(ValueError, match=message):
                GrapeConfig(steps=5, dt=1e-4, amp_max_hz=100.0, rf_scales=scales)
        for bad in (dict(steps=2.5), dict(max_iterations=-3), dict(seed=True),
                    dict(seed=2.0), dict(seed="3"), dict(seed=-1)):
            kwargs = {**dict(steps=5, dt=1e-4, amp_max_hz=100.0), **bad}
            with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
                GrapeConfig(**kwargs)

    @pytest.mark.parametrize("target", [3.0 * np.eye(2), np.full((2, 2), 0.5)])
    def test_target_must_be_unitary(self, target):
        # a scaled identity used to report fidelity 2.98 and converged
        cfg = GrapeConfig(steps=3, dt=1e-4, amp_max_hz=100.0, stop_fidelity=0.5)
        with pytest.raises(ValueError, match=r"^target: input matrix is not a finite unitary"):
            grape_optimize(SINGLE_SPIN, target, cfg)
        with pytest.raises(ValueError, match=r"^target"):
            mean_fidelity_and_gradient(SINGLE_SPIN, target, np.zeros((3, 1, 2)), 1e-4, (1.0,))

    @pytest.mark.parametrize(
        "scales, iterations, fidelity",
        [((1.0,), 66, 0.9950200784844977), ((0.95, 1.0, 1.05), 127, 0.9950048758627309)],
    )
    def test_demo_three_spin_runs_are_pinned(self, scales, iterations, fidelity):
        # iteration counts and fidelities of the per-step reference on the
        # exp(-i 0.47 YXZ) compile of demo 04
        system = NmrSystemSpec.load(str(DEMO_THREE_SPIN))
        target = math.cos(0.47) * np.eye(8) - 1j * math.sin(0.47) * pauli_matrix(P("YXZ"))
        cfg = GrapeConfig(steps=50, dt=1e-3, amp_max_hz=500.0, stop_fidelity=0.995,
                          seed=3, rf_scales=scales)
        res = grape_optimize(system, target, cfg)
        assert res.iterations == iterations
        assert abs(res.fidelity - fidelity) <= 1e-12

    def test_identity_target_zero_init(self):
        cfg = GrapeConfig(steps=4, dt=1e-4, amp_max_hz=500.0, init="zero",
                          stop_fidelity=0.999)
        res = grape_optimize(SINGLE_SPIN, np.eye(2, dtype=complex), cfg)
        assert res.converged
        assert res.iterations == 0
        assert res.fidelity > 1 - 1e-12

    def test_x_gate_single_scale(self):
        cfg = GrapeConfig(steps=20, dt=1e-4, amp_max_hz=2000.0,
                          stop_fidelity=0.9999, seed=1, rf_scales=(1.0,))
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("X")), cfg)
        assert res.converged
        assert res.fidelity >= 0.9999
        assert res.iterations <= 60
        assert np.abs(res.pulse.amplitudes).max() <= 2000.0 + 1e-9

    def test_x_gate_robust_scales(self):
        # averaging over (0.95, 1, 1.05) caps the plain pi pulse near
        # (2 cos(0.025 pi) + 1)/3 ~ 0.99795; the run must clear 0.99
        cfg = GrapeConfig(steps=20, dt=1e-4, amp_max_hz=2000.0,
                          stop_fidelity=0.997, seed=1)
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("X")), cfg)
        assert res.fidelity >= 0.99
        assert res.converged

    def test_trajectory_is_monotone(self):
        cfg = GrapeConfig(steps=20, dt=1e-4, amp_max_hz=2000.0,
                          stop_fidelity=0.9999, seed=1, rf_scales=(1.0,))
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("X")), cfg)
        assert len(res.trajectory) == res.iterations + 1
        for a, b in zip(res.trajectory, res.trajectory[1:]):
            assert b >= a - 1e-12

    def test_determinism(self):
        cfg = GrapeConfig(steps=10, dt=1e-4, amp_max_hz=1000.0,
                          stop_fidelity=0.99, seed=7, rf_scales=(1.0,))
        r1 = grape_optimize(SINGLE_SPIN, pauli_matrix(P("Y")), cfg)
        r2 = grape_optimize(SINGLE_SPIN, pauli_matrix(P("Y")), cfg)
        assert r1.fidelity == r2.fidelity
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.pulse.amplitudes, r2.pulse.amplitudes)

    def test_infeasible_target_reports_failure(self):
        # one 0.1 ms step capped at 10 Hz cannot produce a pi rotation
        cfg = GrapeConfig(steps=1, dt=1e-4, amp_max_hz=10.0,
                          stop_fidelity=0.99, seed=4, max_iterations=60)
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("X")), cfg)
        assert not res.converged
        assert res.fidelity < 0.9
        assert res.iterations <= 60

    def test_amplitudes_respect_cap(self):
        cfg = GrapeConfig(steps=8, dt=1e-4, amp_max_hz=50.0,
                          stop_fidelity=0.9999, seed=5, max_iterations=30)
        res = grape_optimize(SINGLE_SPIN, pauli_matrix(P("Z")), cfg)
        assert np.abs(res.pulse.amplitudes).max() <= 50.0 + 1e-9

    def test_result_serializes(self):
        cfg = GrapeConfig(steps=3, dt=1e-4, amp_max_hz=100.0, init="zero",
                          stop_fidelity=0.5)
        res = grape_optimize(SINGLE_SPIN, np.eye(2, dtype=complex), cfg)
        data = res.to_json()
        assert data["converged"] is True
        assert data["total_duration"] == pytest.approx(3e-4)
        assert np.asarray(data["amplitudes"]).shape == (3, 1, 2)
