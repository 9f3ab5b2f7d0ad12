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
batched eigh diagonalizes all T step Hamiltonians, H_t = Q diag(l) Q^dag,
and the value pass multiplies the step propagators U_t one by one into the
prefixes F_0 = I, F_{t+1} = U_t F_t, up to F_T = U_{T-1} ... U_0.
`propagate` is the last prefix.

Gradients are exact (Khaneja et al., J. Magn. Reson. 172, 296, 2005).
With the divided differences Gamma_ab = (e^{-i dt l_a} - e^{-i dt l_b}) /
(l_a - l_b), the derivative of Tr(V^dag U) along control E of step t is
Tr(Y_t E), Y_t = Q (M_t o Gamma) Q^dag (Gamma is symmetric), where
M_t = Q^dag F_t V^dag B_t Q, F_t = U_{t-1} ... U_0 and B_t = U_{T-1} ...
U_{t+1}.  Since B_t = F_T F_{t+1}^dag and F_{t+1}^dag Q = F_t^dag Q
diag(e^{+i dt l}), with X = V^dag F_T

    M_t = Q^dag F_t X F_t^dag Q diag(e^{+i dt l}),

so only forward products appear, and one matmul contracts every Y_t with
every control.

Ascent uses backtracking line search with amplitude clipping, so accepted
fidelities never decrease.  A trial runs the value pass only; the gradient
pass runs once per accepted trial, on that trial's eigendecompositions and
prefixes, so no eigh and no step product runs twice and a rejected trial
costs no gradient.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .decompose import gate_fidelity as fidelity_hs
from .pauli import (
    PauliString,
    _as_unitary,
    _json_array,
    _json_float,
    _json_int,
    _json_key,
    _json_object,
    _read_json,
    _write_text,
    pauli_matrix,
)

__all__ = [
    "NmrSystemSpec",
    "PulseSequence",
    "GrapeConfig",
    "GrapeResult",
    "drift_hamiltonian",
    "control_operators",
    "propagate",
    "fidelity_hs",
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
        shifts = _json_array(self.shifts_hz, "shifts_hz", _json_float)
        rows = partial(_json_array, item=_json_float)
        coup = _json_array(self.couplings_hz, "couplings_hz", rows)
        chans = _json_array(self.channels, "channels", partial(_json_array, item=_json_int))
        weights = _json_array(self.weights, "weights", _json_float)
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", coup)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "weights", weights)
        n = len(shifts)
        if n < 1:
            raise ValueError("need at least one spin")
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
            _json_object(data, "system record")
            n = _json_int(_json_key(data, "n"), "n")
            spec = cls(*(_json_key(data, key) for key in
                         ("shifts_hz", "couplings_hz", "channels", "weights")))
        except ValueError as exc:
            raise ValueError(f"malformed system record: {exc}") from exc
        if spec.n_spins != n:
            raise ValueError(f"record claims {n} spins but lists {spec.n_spins} shifts")
        return spec

    @classmethod
    def load(cls, path: str) -> "NmrSystemSpec":
        return cls.from_json(_read_json(path))


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
        if (dt := _json_float(self.dt, "dt")) <= 0.0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        object.__setattr__(self, "dt", dt)
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
        table = io.StringIO(newline="")
        writer = csv.writer(table)
        writer.writerow(["step", "channel", "amp_x_hz", "amp_y_hz"])
        for t in range(self.n_steps):
            for c in range(self.n_channels):
                x, y = self.amplitudes[t, c]
                writer.writerow([t, c, repr(float(x)), repr(float(y))])
        _write_text(path, table.getvalue())


def _steps(Hd: np.ndarray, ops: np.ndarray, u: np.ndarray, dt: float,
           scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(l, Q, exp(-i dt H_t)) for every step, H_t = Hd + scale * sum u[t,c,k] ops[c,k]."""
    T, d = len(u), Hd.shape[0]
    H = Hd + ((scale * u.reshape(T, -1)) @ ops.reshape(-1, d * d)).reshape(T, d, d)
    evals, Q = np.linalg.eigh(H)
    return evals, Q, (Q * np.exp(-1j * dt * evals)[:, None, :]) @ Q.conj().transpose(0, 2, 1)


def _prefixes(Us: np.ndarray) -> np.ndarray:
    """F[t] = U_{t-1} ... U_0 for t = 0 .. T, the steps before step t (F[0] = I)."""
    F = np.empty((len(Us) + 1,) + Us.shape[1:], dtype=Us.dtype)
    F[0] = np.eye(Us.shape[1])
    for t in range(len(Us)):
        np.matmul(Us[t], F[t], out=F[t + 1])
    return F


def _target_adjoint(target: np.ndarray, d: int) -> np.ndarray:
    """V^dag of a finite d x d unitary target."""
    try:
        V, _ = _as_unitary(target)
    except ValueError as exc:
        raise ValueError(f"target: {exc}") from None
    if V.shape != (d, d):
        raise ValueError(f"target shape {V.shape} does not match dimension {d}")
    return V.conj().T


def _rf_scales(values) -> tuple[float, ...]:
    """The RF scale factors as floats: at least one, each positive and finite."""
    scales = _json_array(values, "rf_scales", _json_float)
    if not scales or not all(s > 0.0 for s in scales):
        raise ValueError(f"rf_scales must be nonempty, positive and finite, got {scales!r}")
    return scales


def propagate(spec: NmrSystemSpec, pulse: PulseSequence) -> np.ndarray:
    """Time-ordered product of the per-step exponentials (step 0 first)."""
    if pulse.n_channels != spec.n_channels:
        raise ValueError(
            f"pulse amplitudes drive {pulse.n_channels} channels, system has {spec.n_channels}"
        )
    Hd, ops = drift_hamiltonian(spec), control_operators(spec)
    return _prefixes(_steps(Hd, ops, pulse.amplitudes, pulse.dt, 1.0)[2])[-1]


def _gamma(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of x -> exp(-i dt x) on each step's eigenvalue grid.

    (e^{-i dt a} - e^{-i dt b}) / (a - b) = -i dt h_a h_b sinc(dt (a - b) / 2)
    with h = e^{-i dt x / 2}; the sinc form has no quotient to cancel, so it
    stays exact for near-degenerate eigenvalues and on the diagonal.
    """
    h = np.exp(-0.5j * dt * evals)
    x = 0.5 * dt * (evals[..., :, None] - evals[..., None, :])
    return -1j * dt * h[..., :, None] * h[..., None, :] * np.sinc(x / np.pi)


def _value(
    Hd: np.ndarray,
    ops: np.ndarray,
    Vh: np.ndarray,
    u: np.ndarray,
    dt: float,
    scales: tuple[float, ...],
) -> tuple[float, list]:
    """Mean fidelity, with each scale's (s, l, Q, F_t, V^dag F_T) for `_gradient`."""
    d = Hd.shape[0]
    phi, parts = 0.0, []
    for s in scales:
        evals, Q, Us = _steps(Hd, ops, u, dt, s)
        F = _prefixes(Us)
        X = Vh @ F[-1]
        phi += abs(complex(np.trace(X))) / d
        parts.append((s, evals, Q, F, X))
    return phi / len(scales), parts


def _gradient(ops: np.ndarray, dt: float, parts: list) -> np.ndarray:
    """Exact amplitude gradient of the mean fidelity from `_value`'s parts."""
    T, d = parts[0][2].shape[:2]
    # Tr(Y E) = sum_ij Y_ij conj(E_ij), since every control generator E is Hermitian.
    Ec = ops.reshape(-1, d * d).conj().T
    grad = np.zeros((T, Ec.shape[1]))
    for s, evals, Q, F, X in parts:
        z = complex(np.trace(X))
        if abs(z) <= 1e-15:
            continue
        A = F[:-1].conj().transpose(0, 2, 1) @ Q  # F_t^dag Q_t
        M = (A.conj().transpose(0, 2, 1) @ X @ A) * np.exp(1j * dt * evals)[:, None, :]
        Y = Q @ (M * _gamma(evals, dt)) @ Q.conj().transpose(0, 2, 1)
        dz = s * (Y.reshape(T, d * d) @ Ec)
        grad += (z.conjugate() * dz).real / (abs(z) * d)
    return grad.reshape(T, -1, 2) / len(parts)


def _phi_and_grad(
    Hd: np.ndarray,
    ops: np.ndarray,
    Vh: np.ndarray,
    u: np.ndarray,
    dt: float,
    scales: tuple[float, ...],
) -> tuple[float, np.ndarray]:
    """Mean fidelity and its gradient: one value pass, then its gradient pass."""
    phi, parts = _value(Hd, ops, Vh, u, dt, scales)
    return phi, _gradient(ops, dt, parts)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "rf_scales", _rf_scales(self.rf_scales))
        for name, low in (("steps", 1), ("max_iterations", 0), ("seed", 0)):
            object.__setattr__(self, name, value := _json_int(getattr(self, name), name))
            if value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("dt", "amp_max_hz", "stop_fidelity"):
            object.__setattr__(self, name, _json_float(getattr(self, name), name))
        if self.dt <= 0.0 or self.amp_max_hz <= 0.0:
            raise ValueError("dt and amp_max_hz must be positive")
        if self.init not in ("random", "zero"):
            raise ValueError("init must be 'random' or 'zero'")


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
    Vh = _target_adjoint(target, Hd.shape[0])
    cap = config.amp_max_hz
    if config.init == "zero":
        u = np.zeros((config.steps, spec.n_channels, 2))
    else:
        rng = np.random.default_rng(config.seed)
        u = np.clip(rng.standard_normal((config.steps, spec.n_channels, 2)) * (cap / 100.0),
                    -cap, cap)

    phi, grad = _phi_and_grad(Hd, ops, Vh, u, config.dt, config.rf_scales)
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
            phi_trial, parts = _value(Hd, ops, Vh, trial, config.dt, config.rf_scales)
            if phi_trial > phi + 1e-14:
                u, phi, grad = trial, phi_trial, _gradient(ops, config.dt, parts)
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
