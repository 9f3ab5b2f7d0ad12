"""Piecewise-constant pulse compilation by gradient ascent on gate fidelity.

The plant is a weak-coupling spin system in the multiply rotating frame,

    H_drift = -pi sum_i nu_i Z_i + (pi/2) sum_{i<j} c_ij Z_i Z_j,

with shifts nu_i and effective couplings c_ij in Hz.  Controls come per
channel (a channel is a set of spins sharing one RF coil): an amplitude
pair (x, y) in Hz adds pi * amp * weight * sum_{i in channel} sigma^{x/y}
to the step Hamiltonian, where the channel weight carries the relative
gyromagnetic ratio.

The objective is the Hilbert-Schmidt gate fidelity |Tr(V^dag U)| / 2^n,
averaged over a set of RF scale factors that multiply all control
amplitudes (robustness to coil inhomogeneity).  Per pulse and scale, one
batched eigh diagonalizes all T step Hamiltonians, H_t = Q diag(l) Q^dag;
`propagate` and the objective share it and the forward products
F_t = U_{t-1} ... U_0.  Gradients are exact (Khaneja et al., J. Magn.
Reson. 172, 296, 2005): with the divided differences
Gamma_ab = (e^{-i dt l_a} - e^{-i dt l_b}) / (l_a - l_b), the backward
products B_t = U_{T-1} ... U_{t+1} and M_t = Q^dag F_t V^dag B_t Q, the
derivative of Tr(V^dag U) along control E of step t is Tr(Y_t E) with
Y_t = Q (M_t o Gamma) Q^dag (Gamma is symmetric), so one contraction gives
every component.  Ascent uses backtracking line search with amplitude
clipping, so accepted fidelities never decrease.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .decompose import gate_fidelity as fidelity_hs
from .pauli import PauliString, _json_int, pauli_matrix

__all__ = [
    "NmrSystemSpec",
    "PulseSequence",
    "GrapeConfig",
    "GrapeResult",
    "drift_hamiltonian",
    "control_operators",
    "equilibrium_deviation",
    "propagate",
    "fidelity_hs",
    "mean_fidelity_and_gradient",
    "grape_optimize",
]

@dataclass(frozen=True)
class NmrSystemSpec:
    """A weak-coupling spin system and its RF channel layout.

    shifts_hz[i] is the Zeeman shift of spin i+1; couplings_hz is the
    symmetric zero-diagonal matrix of effective two-spin couplings;
    channels lists the 1-based spins sharing each RF channel (together a
    partition of all spins); weights holds one relative gyromagnetic
    factor per channel.
    """

    shifts_hz: tuple[float, ...]
    couplings_hz: tuple[tuple[float, ...], ...]
    channels: tuple[tuple[int, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        shifts = tuple(float(v) for v in self.shifts_hz)
        coup = tuple(tuple(float(v) for v in row) for row in self.couplings_hz)
        chans = tuple(tuple(_json_int(s, "channel spin") for s in ch) for ch in self.channels)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", coup)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "weights", weights)
        n = len(shifts)
        if n < 1:
            raise ValueError("need at least one spin")
        for name, values in (("shifts_hz", shifts), ("couplings_hz", sum(coup, ())),
                             ("weights", weights)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        if len(coup) != n or any(len(row) != n for row in coup):
            raise ValueError(f"coupling matrix must be {n} x {n}")
        for i in range(n):
            if coup[i][i] != 0.0:
                raise ValueError("coupling matrix must have zero diagonal")
            for j in range(n):
                if coup[i][j] != coup[j][i]:
                    raise ValueError("coupling matrix must be symmetric")
        flat = sorted(s for ch in chans for s in ch)
        if flat != list(range(1, n + 1)):
            raise ValueError("channels must partition the spins 1..n")
        if len(weights) != len(chans):
            raise ValueError("one weight per channel required")

    @property
    def n_spins(self) -> int:
        return len(self.shifts_hz)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def to_json(self) -> dict:
        return {
            "n": self.n_spins,
            "shifts_hz": list(self.shifts_hz),
            "couplings_hz": [list(row) for row in self.couplings_hz],
            "channels": [list(ch) for ch in self.channels],
            "weights": list(self.weights),
        }

    @classmethod
    def from_json(cls, data: dict) -> "NmrSystemSpec":
        try:
            n = _json_int(data["n"], "n")
            spec = cls(
                tuple(data["shifts_hz"]),
                tuple(tuple(row) for row in data["couplings_hz"]),
                tuple(tuple(ch) for ch in data["channels"]),
                tuple(data["weights"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed system record: {exc}") from exc
        if spec.n_spins != n:
            raise ValueError(f"record claims {n} spins but lists {spec.n_spins} shifts")
        return spec

    @classmethod
    def load(cls, path: str) -> "NmrSystemSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _z_diagonals(n: int) -> np.ndarray:
    """Row i: the sigma-z eigenvalue of spin i+1 on each basis index."""
    idx = np.arange(1 << n)
    return np.stack(
        [1.0 - 2.0 * ((idx >> (n - i)) & 1) for i in range(1, n + 1)]
    )


def drift_hamiltonian(spec: NmrSystemSpec) -> np.ndarray:
    """-pi sum nu_i Z_i + (pi/2) sum_{i<j} c_ij Z_i Z_j (diagonal, dense)."""
    n = spec.n_spins
    z = _z_diagonals(n)
    diag = np.zeros(1 << n)
    for i in range(n):
        diag += -math.pi * spec.shifts_hz[i] * z[i]
    for i in range(n):
        for j in range(i + 1, n):
            diag += (math.pi / 2.0) * spec.couplings_hz[i][j] * z[i] * z[j]
    return np.diag(diag.astype(complex))


def control_operators(spec: NmrSystemSpec) -> np.ndarray:
    """ops[c, k]: generator pi * weight_c * sum_{s in channel c} sigma_s (k=0 x, k=1 y)."""
    n = spec.n_spins
    return np.array([
        [math.pi * w * sum(pauli_matrix(PauliString("I" * (s - 1) + p + "I" * (n - s)))
                           for s in ch) for p in "XY"]
        for ch, w in zip(spec.channels, spec.weights)
    ])


def equilibrium_deviation(spec: NmrSystemSpec) -> np.ndarray:
    """High-temperature equilibrium deviation sum_channels weight * sum Z_i."""
    n = spec.n_spins
    z = _z_diagonals(n)
    diag = np.zeros(1 << n)
    for ch, w in zip(spec.channels, spec.weights):
        for s in ch:
            diag += w * z[s - 1]
    return np.diag(diag.astype(complex))


@dataclass(frozen=True)
class PulseSequence:
    """A piecewise-constant pulse: amplitudes[step, channel] = (x_hz, y_hz)."""

    dt: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 3 or amps.shape[2] != 2:
            raise ValueError("amplitudes must have shape (steps, channels, 2)")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_channels(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def total_duration(self) -> float:
        return self.dt * self.n_steps

    def write_csv(self, path: str) -> None:
        """Rows (step, channel, amp_x_hz, amp_y_hz), both indices 0-based."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "channel", "amp_x_hz", "amp_y_hz"])
            for t in range(self.n_steps):
                for c in range(self.n_channels):
                    x, y = self.amplitudes[t, c]
                    writer.writerow([t, c, repr(float(x)), repr(float(y))])


def _steps(Hd: np.ndarray, ops: np.ndarray, u: np.ndarray, dt: float,
           scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l, Q, exp(-i dt H_t)) for every step, H_t = Hd + scale * sum u[t,c,k] ops[c,k]."""
    evals, Q = np.linalg.eigh(Hd + scale * np.einsum("tck,ckij->tij", u, ops))
    return evals, Q, (Q * np.exp(-1j * dt * evals)[:, None, :]) @ Q.conj().transpose(0, 2, 1)


def _forward(Us: np.ndarray) -> np.ndarray:
    """F[t] = U_{t-1} ... U_0, the product of the first t steps (F[0] = I)."""
    F = np.empty((len(Us) + 1,) + Us.shape[1:], dtype=complex)
    F[0] = np.eye(Us.shape[1])
    for t, U in enumerate(Us):
        F[t + 1] = U @ F[t]
    return F


def propagate(spec: NmrSystemSpec, pulse: PulseSequence) -> np.ndarray:
    """Time-ordered product of the per-step exponentials (step 0 first)."""
    if pulse.n_channels != spec.n_channels:
        raise ValueError(
            f"pulse drives {pulse.n_channels} channels, system has {spec.n_channels}"
        )
    Hd = drift_hamiltonian(spec)
    _, _, Us = _steps(Hd, control_operators(spec), pulse.amplitudes, pulse.dt, 1.0)
    return _forward(Us)[-1]


def _gamma(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of x -> exp(-i dt x) on each step's eigenvalue grid."""
    ph = np.exp(-1j * dt * evals)
    num = ph[..., :, None] - ph[..., None, :]
    den = evals[..., :, None] - evals[..., None, :]
    small = np.abs(den) < 1e-12
    return np.where(small, -1j * dt * ph[..., :, None], num / np.where(small, 1.0, den))


def mean_fidelity_and_gradient(
    spec: NmrSystemSpec,
    target: np.ndarray,
    amplitudes: np.ndarray,
    dt: float,
    rf_scales: tuple[float, ...] = (1.0,),
) -> tuple[float, np.ndarray]:
    """Mean HS fidelity over RF scales and its exact amplitude gradient.

    The scale-s term propagates with all control amplitudes multiplied by
    s; with rf_scales=(1.0,) this is exactly the plain objective.
    """
    Hd = drift_hamiltonian(spec)
    ops = control_operators(spec)
    return _phi_and_grad(Hd, ops, target, np.asarray(amplitudes, float), dt, rf_scales)


def _phi_and_grad(
    Hd: np.ndarray,
    ops: np.ndarray,
    target: np.ndarray,
    u: np.ndarray,
    dt: float,
    scales: tuple[float, ...],
) -> tuple[float, np.ndarray]:
    d = Hd.shape[0]
    if target.shape != (d, d):
        raise ValueError(f"target shape {target.shape} does not match dimension {d}")
    T, C = u.shape[0], u.shape[1]
    if C != len(ops):
        raise ValueError(f"amplitudes drive {C} channels, system has {len(ops)}")
    Vh = target.conj().T
    phi_total = 0.0
    grad_total = np.zeros_like(u)

    for s in scales:
        evals, Q, Us = _steps(Hd, ops, u, dt, s)
        F = _forward(Us)
        z = complex(np.trace(Vh @ F[T]))
        phi_total += abs(z) / d
        if abs(z) > 1e-15:
            # B[t] = U_{T-1} ... U_{t+1}, the steps after step t.
            B, after = np.empty_like(Us), np.eye(d)
            for t in range(T - 1, -1, -1):
                B[t], after = after, after @ Us[t]
            Qh = Q.conj().transpose(0, 2, 1)
            M = Qh @ (F[:T] @ Vh @ B) @ Q
            Y = Q @ (M * _gamma(evals, dt)) @ Qh
            dz = s * np.einsum("tji,ckij->tck", Y, ops)
            grad_total += (z.conjugate() * dz).real / (abs(z) * d)

    return phi_total / len(scales), grad_total / len(scales)


@dataclass(frozen=True)
class GrapeConfig:
    """Knobs for one optimization run."""

    steps: int
    dt: float
    amp_max_hz: float
    max_iterations: int = 200
    rf_scales: tuple[float, ...] = (0.95, 1.0, 1.05)
    stop_fidelity: float = 0.99
    seed: int = 0
    init: str = "random"
    init_amplitude_hz: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rf_scales", tuple(float(s) for s in self.rf_scales))
        for name, low in (("steps", 1), ("max_iterations", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("dt", "amp_max_hz", "stop_fidelity", "init_amplitude_hz"):
            if not math.isfinite(getattr(self, name) or 0.0):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0.0 or self.amp_max_hz <= 0.0:
            raise ValueError("dt and amp_max_hz must be positive")
        if self.init not in ("random", "zero"):
            raise ValueError("init must be 'random' or 'zero'")
        if not self.rf_scales or not all(math.isfinite(s) and s > 0.0 for s in self.rf_scales):
            raise ValueError(
                f"rf_scales must be nonempty, positive and finite, got {self.rf_scales!r}"
            )


@dataclass(frozen=True)
class GrapeResult:
    """Best pulse found, with its fidelity history."""

    pulse: PulseSequence
    fidelity: float
    iterations: int
    trajectory: tuple[float, ...]
    converged: bool

    def to_json(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "iterations": self.iterations,
            "trajectory": list(self.trajectory),
            "converged": self.converged,
            "dt": self.pulse.dt,
            "total_duration": self.pulse.total_duration,
            "amplitudes": self.pulse.amplitudes.tolist(),
        }


def grape_optimize(
    spec: NmrSystemSpec, target: np.ndarray, config: GrapeConfig
) -> GrapeResult:
    """Gradient ascent with backtracking line search and amplitude clipping.

    Runs until stop_fidelity is reached, the iteration cap is hit, or the
    line search cannot improve the objective; `converged` records whether
    the stop fidelity was met.  Identical inputs and seed give identical
    results.
    """
    Hd = drift_hamiltonian(spec)
    ops = control_operators(spec)
    cap = config.amp_max_hz
    if config.init == "zero":
        u = np.zeros((config.steps, spec.n_channels, 2))
    else:
        rng = np.random.default_rng(config.seed)
        scale = (
            config.init_amplitude_hz
            if config.init_amplitude_hz is not None
            else cap / 100.0
        )
        u = np.clip(rng.standard_normal((config.steps, spec.n_channels, 2)) * scale,
                    -cap, cap)

    phi, grad = _phi_and_grad(Hd, ops, target, u, config.dt, config.rf_scales)
    trajectory = [phi]
    alpha = None
    iterations = 0

    while phi < config.stop_fidelity and iterations < config.max_iterations:
        gmax = float(np.abs(grad).max())
        if gmax < 1e-15:
            break
        if alpha is None:
            # First trial step moves the largest amplitude by 2% of the cap,
            # making the search scale-free in the control units.
            alpha = 0.02 * cap / gmax
        accepted = False
        for _ in range(40):
            trial = np.clip(u + alpha * grad, -cap, cap)
            phi_trial, grad_trial = _phi_and_grad(
                Hd, ops, target, trial, config.dt, config.rf_scales
            )
            if phi_trial > phi + 1e-14:
                u, phi, grad = trial, phi_trial, grad_trial
                alpha *= 1.5
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        iterations += 1
        trajectory.append(phi)

    return GrapeResult(
        pulse=PulseSequence(config.dt, u),
        fidelity=phi,
        iterations=iterations,
        trajectory=tuple(trajectory),
        converged=phi >= config.stop_fidelity,
    )
