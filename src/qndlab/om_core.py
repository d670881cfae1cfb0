"""Linearized optomechanical cavity model.

Pure evaluation of susceptibilities, the driven steady state, the
input-output transfer coefficients of the output field, detection
quadrature phases, and the beam-splitter transforms for losses and
mode matching.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError
from .params import (
    CavityParams,
    CouplingState,
    DetectionParams,
    DriveParams,
    MechanicalParams,
    SystemParams,
    hbar,
)

# Relative floor on the susceptibility bracket before declaring instability.
_DIVERGENCE_FLOOR = 1e-30

VACUUM_CHANNELS = ("a1", "a2", "a3", "a4", "a5")
CLASSICAL_CHANNELS = ("eps", "zeta", "xi")
CHANNELS = VACUUM_CHANNELS + CLASSICAL_CHANNELS

# Channel groups used for noise budgets.
SOURCE_GROUPS = {
    "laser": ("a1", "eps"),
    "cavity_loss": ("a2",),
    "thermal": ("xi",),
    "cavity_phase": ("zeta",),
    "detection": ("a3", "a4", "a5"),
}


def mech_susceptibility(mech: MechanicalParams, omega):
    """chi(omega) = omega_m / (omega_m^2 - omega^2 - i*omega*gamma_m)."""
    omega = np.asarray(omega, dtype=float)
    return mech.omega_m / (
        mech.omega_m**2 - omega**2 - 1j * omega * mech.gamma_m
    )


def optical_susceptibility(kappa: float, omega):
    """chi_opt(omega) = 1 / (1 - i*omega/kappa)."""
    if kappa <= 0:
        raise ModelError("kappa must be positive")
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (1.0 - 1j * omega / kappa)


def single_photon_coupling(mech: MechanicalParams, cavity: CavityParams) -> float:
    """G0 = -(omega_c/L_c) * sqrt(hbar / (m * omega_m))."""
    omega_c = cavity.omega_laser - (cavity.detuning0 or 0.0)
    return -(omega_c / cavity.length) * np.sqrt(hbar / (mech.mass * mech.omega_m))


def steady_state(
    mech: MechanicalParams,
    cavity: CavityParams,
    drive: DriveParams,
) -> CouplingState:
    """Stationary solution of the driven cavity.

    With the effective detuning Delta given, alpha_s = E0/(kappa - i*Delta)
    is exact.  With only the bare detuning Delta0, the radiation-pressure
    shift y = Delta - Delta0 = G0*q_s solves
    y*(kappa^2 + (Delta0 + y)^2) = G0^2*E0^2/omega_m (Dorsel et al., PRL 51,
    1550 (1983)).  In x = y/kappa and a = Delta0/kappa that is the cubic
    x^3 + 2a*x^2 + (1 + a^2)*x - p = 0, p = G0^2*E0^2/(omega_m*kappa^3);
    its discriminant -4a(9 + a^2)p - 4(1 + a^2)^2 - 27p^2 is negative
    where the cubic has one real root, the one steady state.  A drive whose
    discriminant is not negative is bistable and raises ModelError.
    """
    g0 = single_photon_coupling(mech, cavity)
    e0 = drive.e0(cavity)
    kappa = cavity.kappa

    if cavity.detuning is not None:
        delta = cavity.detuning
    elif cavity.detuning0 is not None:
        a = cavity.detuning0 / kappa
        p = g0**2 * e0**2 / (mech.omega_m * kappa**3)
        if -4.0 * a * (9.0 + a * a) * p - 4.0 * (1.0 + a * a) ** 2 - 27.0 * p * p >= 0:
            raise ModelError(
                f"bistable drive: {drive.power:.6g} W mode-matched at bare "
                f"detuning {a:.6g} kappa has more than one steady state"
            )
        roots = np.roots([1.0, 2.0 * a, 1.0 + a * a, -p])
        delta = cavity.detuning0 + kappa * roots[np.argmin(np.abs(roots.imag))].real
    else:
        raise ModelError("either detuning or detuning0 must be set")
    alpha_s = e0 / (kappa - 1j * delta)
    q_s = (g0 / mech.omega_m) * abs(alpha_s) ** 2

    g = g0 * np.sqrt(2.0) * alpha_s
    return CouplingState(g0=g0, g=g, alpha_s=alpha_s, q_s=q_s, detuning=delta)


def effective_susceptibility(
    state: CouplingState,
    cavity: CavityParams,
    mech: MechanicalParams,
    omega,
):
    """Optical-spring-modified susceptibility chi_eff(omega).

    chi_eff = omega_m * [omega_m^2 - omega^2 - i*omega*gamma_m
                         + |G|^2*Delta*omega_m/((kappa-i*omega)^2+Delta^2)]^-1
    """
    omega = np.asarray(omega, dtype=float)
    delta = state.detuning
    kappa = cavity.kappa
    spring = (
        abs(state.g) ** 2
        * delta
        * mech.omega_m
        / ((kappa - 1j * omega) ** 2 + delta**2)
    )
    bracket = mech.omega_m**2 - omega**2 - 1j * omega * mech.gamma_m + spring
    if np.any(np.abs(bracket) < _DIVERGENCE_FLOOR * mech.omega_m**3):
        raise ModelError(
            "effective susceptibility bracket below the stability floor"
        )
    return mech.omega_m / bracket


def transfer_coefficients(
    state: CouplingState,
    cavity: CavityParams,
    mech: MechanicalParams,
    omega,
):
    """Output-field coefficients nu_1..nu_7 over the cavity input channels.

    Returns a dict with keys "nu1".."nu7", each an array over omega.  The
    output field reads

        a_out = nu1 a1 + nu2 a1^dag + nu3 a2 + nu4 a2^dag
                + nu5 zeta + nu6 eps + nu7 xi.
    """
    omega = np.asarray(omega, dtype=float)
    delta = state.detuning
    kappa = cavity.kappa
    kappa1, kappa2 = cavity.kappa1, cavity.kappa2
    g = state.g
    chi_eff = effective_susceptibility(state, cavity, mech, omega)

    d_plus = kappa - 1j * (delta + omega)
    d_minus = kappa + 1j * (delta - omega)

    nu1 = (kappa - 2.0 * kappa2 + 1j * (delta + omega)) / d_plus + (
        1j * abs(g) ** 2 * kappa1 * chi_eff / d_plus**2
    )
    nu2 = 1j * g**2 * kappa1 * chi_eff / (d_plus * d_minus)
    nu3 = np.sqrt(kappa2 / kappa1) * (nu1 + 1.0)
    nu4 = np.sqrt(kappa2 / kappa1) * nu2
    nu5 = (1j * state.alpha_s / np.sqrt(2.0 * kappa1)) * (nu1 - nu2 + 1.0)
    nu6 = nu1 + nu2
    nu7 = 1j * g * np.sqrt(kappa1) * chi_eff / d_plus
    return {
        "nu1": nu1, "nu2": nu2, "nu3": nu3, "nu4": nu4,
        "nu5": nu5, "nu6": nu6, "nu7": nu7,
    }


def mean_reflected_field(
    state: CouplingState, cavity: CavityParams, drive: DriveParams
) -> complex:
    """E_R = sqrt(P/hbar*omega0) * (kappa - 2*kappa2 + i*Delta)/(kappa - i*Delta)."""
    delta = state.detuning
    kappa, kappa2 = cavity.kappa, cavity.kappa2
    amp = np.sqrt(drive.power / (hbar * cavity.omega_laser))
    return amp * (kappa - 2.0 * kappa2 + 1j * delta) / (kappa - 1j * delta)


def _root_arm_ratio(det: DetectionParams) -> float:
    """sqrt(R), R the cavity/reference arm power ratio; inf for a dark reference arm."""
    if det.p_reference_arm == 0:
        return np.inf
    return np.sqrt(det.p_cavity_arm / det.p_reference_arm)


def quadrature_phases(
    state: CouplingState, cavity: CavityParams, det: DetectionParams
) -> tuple[float, float, float]:
    """Phases (phi_r, phi_m, phi_s) of the detected quadratures.

    phi_r is the dephasing of the reflected mean field, phi_m = phi_r + pi/2
    the meter quadrature, and phi_s the amplitude quadrature of the
    polarizer output, where the cavity arm beats with the reference arm:
    phi_r - phi_s = arg(sqrt(R) + exp(i phi0)), R the cavity/reference arm
    power ratio.  A dark reference arm (R = inf) gives phi_s = phi_r.
    """
    delta = state.detuning
    kappa, kappa2 = cavity.kappa, cavity.kappa2
    phi_r = np.arctan2(delta, kappa - 2.0 * kappa2) + np.arctan2(delta, kappa)
    phi_m = phi_r + np.pi / 2.0
    phi_s = phi_r - np.angle(_root_arm_ratio(det) + np.exp(1j * det.phi0))
    return float(phi_r), float(phi_m), float(phi_s)


def signal_phase_tuning_range(det: DetectionParams) -> float:
    """Maximum |phi_s - phi_r| reachable with a lock phase phi0 in (-pi/2, pi/2).

    phi_r - phi_s = arg(sqrt(R) + exp(i phi0)) is monotone in phi0 there and
    tends to +-arctan(1/sqrt(R)) at its ends; 0 for a dark reference arm.
    """
    return float(np.arctan2(1.0, _root_arm_ratio(det)))


def lock_phase_for_signal_phase(
    state: CouplingState,
    cavity: CavityParams,
    det: DetectionParams,
    phi_s_target: float,
) -> float:
    """Invert the phi0 -> phi_s map; raises ModelError if out of range."""
    phi_r, _, _ = quadrature_phases(state, cavity, det)
    span = signal_phase_tuning_range(det)
    if abs(phi_s_target - phi_r) > span:
        raise ModelError(
            f"target signal phase {phi_s_target:.4f} rad outside the "
            f"tuning range {phi_r:.4f} +/- {span:.4f} rad"
        )
    root_ratio = _root_arm_ratio(det)
    if np.isinf(root_ratio):
        return 0.0  # every lock phase gives phi_r
    # sqrt(R) + exp(i phi0) = t exp(i o) for o = phi_r - phi_s, t the larger
    # root of |t exp(i o) - sqrt(R)| = 1; within the tuning range it puts
    # phi0 in (-pi/2, pi/2)
    o = phi_r - phi_s_target
    t = root_ratio * np.cos(o) + np.sqrt(1.0 - (root_ratio * np.sin(o)) ** 2)
    return float(np.angle(t * np.exp(1j * o) - root_ratio))


def apply_losses_and_modematch(nu: dict, det: DetectionParams) -> dict:
    """Mix the bare output coefficients with loss and mode-match vacua.

    Takes the nu1..nu7 coefficient dict of the intracavity output field and
    returns ``{port: {channel: (A, B)}}`` for the "meter" and "signal"
    ports, A and B multiplying (c, c^dag) for input channel c.  Each port
    lists only the channels that reach it, in ``CHANNELS`` order; a real
    classical input is its own conjugate, so its B is its A.  The
    non-mode-matched fraction of the drive bypasses the cavity and beats
    with an auxiliary vacuum a5; each port then admixes its own detection
    vacuum, a3 for the meter and a4 for the signal, which reaches no other
    port.  That vacuum's (A, B) is the same at every frequency, so it is a
    pair of scalars; every other entry is an array over omega.
    """
    eta_mm = det.eta_modematch

    # Mode-matching substitutions applied to the bare cavity output; the
    # non-matched field bypasses the cavity and beats with vacuum a5.
    root_mm = np.sqrt(eta_mm * (1.0 - eta_mm))
    mm_a = {
        "a1": eta_mm * nu["nu1"] + (1.0 - eta_mm),
        "a2": np.sqrt(eta_mm) * nu["nu3"],
        "a5": root_mm * (nu["nu1"] - 1.0),
        "eps": eta_mm * nu["nu6"] + (1.0 - eta_mm),
        "zeta": np.sqrt(eta_mm) * nu["nu5"],
        "xi": np.sqrt(eta_mm) * nu["nu7"],
    }
    mm_b = {
        "a1": eta_mm * nu["nu2"],
        "a2": np.sqrt(eta_mm) * nu["nu4"],
        "a5": root_mm * nu["nu2"],
    }

    ports = {}
    for port, eta, own_vacuum in (
        ("meter", det.eta_meter, "a3"),
        ("signal", det.eta_signal, "a4"),
    ):
        root = np.sqrt(eta)
        coef = {}
        for ch in CHANNELS:
            if ch == own_vacuum:
                # the loss beam splitter passes the vacuum's annihilator alone
                coef[ch] = (np.sqrt(1.0 - eta), 0.0)
            elif ch in mm_a:
                a = root * mm_a[ch]
                coef[ch] = (a, root * mm_b[ch]) if ch in mm_b else (a, a)
        ports[port] = coef
    return ports


def output_port_coefficients(system: SystemParams, omega, state: CouplingState) -> dict:
    """Detected-port coefficients after losses and mode matching.

    Returns ``apply_losses_and_modematch``'s ``{port: {channel: (A, B)}}``
    evaluated on the given (possibly signed) omega grid at the steady
    ``state`` of the mode-matched drive.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    nu = transfer_coefficients(state, system.cavity, system.mech, omega)
    return apply_losses_and_modematch(nu, system.det)
