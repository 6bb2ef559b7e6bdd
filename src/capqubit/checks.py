"""The package's invariants, each stated once with its tolerance.

Each check takes its inputs and returns the worst error it measured; the
constant beside it is the largest error that counts as correct.
``run_verify`` (``capqubit verify``) and the acceptance tests call the same
checks against the same constants, each on draws of its own.
"""

import math
import sys

import numpy as np

from .evolution import PulseSegment, Schedule, propagate, propagate_rk4
from .experiments import INITIAL_STATE, _sweep_device
from .hamiltonian import (_Z1, _Z2, DeviceParams, QubitParams, build_capacitive,
                          build_capacitive_pauli_form, build_dipole, effective_levels)
from .linalg import distance_up_to_global_phase, eigh
from .pulsecompiler import (GateSpec, compile_cnot, compile_cnot_gates, compile_phase_block,
                            ideal_composition, ideal_gate)

BUILDER_IDENTITY_TOL = 1e-15  # largest entry gap between the two builders
DIPOLE_EQUIVALENCE_TOL = 1e-15  # capacitive vs dipole plus its diagonal shift
LEVELS_TOL = 0.0  # splittings vs effective_levels: exact on dyadic inputs
EIGH_TOL = 1e-12  # eigenvector orthonormality and relative reconstruction
PROPAGATOR_TOL = 1e-9  # propagator unitarity and state norm drift
COMPOSITION_TOL = 1e-10  # ideal composition vs requested product, global phase aside
PHASE_BLOCK_TOL = 1e-12  # phase block off-diagonal mass and diagonal phase error
RK4_TOL = 1e-6  # exact vs RK4 final-state error at dt = T / RK4_STEPS
RK4_STEPS = 10**5


def ideal_product(specs):
    """Ideal unitary of a gate list: later gates act on the left."""
    u = np.eye(4, dtype=complex)
    for spec in specs:
        u = ideal_gate(spec) @ u
    return u


def builder_identity_error(devices):
    """Largest |build_capacitive - build_capacitive_pauli_form| entry over
    the devices, and its 0-based (row, column)."""
    worst, entry = 0.0, (0, 0)
    for dev in devices:
        diff = np.abs(build_capacitive(dev) - build_capacitive_pauli_form(dev))
        idx = np.unravel_index(np.argmax(diff), diff.shape)
        if diff[idx] > worst:
            worst, entry = float(diff[idx]), idx
    return worst, entry


def dipole_equivalence_error(couplings):
    """Largest entry of capacitive(D) - dipole(D/4) - (D/4)(sigma_z^1 +
    sigma_z^2 + 1) over the couplings D, both qubits idle: the paper's claim
    that the capacitive coupling is the dipole-dipole one up to single-qubit
    shifts and a constant."""
    idle = QubitParams(0.0, 0.0)
    shifts = np.diag(np.add(_Z1, _Z2) + 1.0)
    worst = 0.0
    for d12 in couplings:
        quarter = d12 / 4.0
        diff = (build_capacitive(DeviceParams(idle, idle, d12))
                - build_dipole(DeviceParams(idle, idle, quarter))
                - quarter * shifts)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def effective_levels_error(devices):
    """Largest gap between the conditional splittings on the Hamiltonian
    diagonal and ``effective_levels`` (drives off)."""
    worst = 0.0
    for dev in devices:
        h = np.real(np.diag(build_capacitive(dev)))
        splits = ((h[0] - h[2]) / 2.0, (h[1] - h[3]) / 2.0,
                  (h[0] - h[1]) / 2.0, (h[2] - h[3]) / 2.0)
        levels = [effective_levels(dev, q, excited) for q in (1, 2) for excited in (True, False)]
        worst = max(worst, max(abs(a - b) for a, b in zip(splits, levels)))
    return worst


def eigh_residuals(matrices):
    """Worst orthonormality and relative reconstruction errors of ``eigh``."""
    orth = recon = 0.0
    for h in matrices:
        w, v = eigh(h)
        orth = max(orth, float(np.linalg.norm(v.conj().T @ v - np.eye(4))))
        recon = max(recon, float(np.linalg.norm((v * w) @ v.conj().T - h)
                                 / (1.0 + np.linalg.norm(h))))
    return orth, recon


def propagator_errors(schedules, psi0):
    """Worst propagator unitarity error and norm drift from psi0."""
    unit = drift = 0.0
    for sched in schedules:
        res = propagate(sched, psi0)
        u = res.total_propagator
        unit = max(unit, float(np.linalg.norm(u.conj().T @ u - np.eye(4))))
        drift = max(drift, res.norm_drift)
    return unit, drift


def composition_error(specs, compiled):
    """Distance, up to global phase, from the compiled gates' ideal
    composition to the requested product of specs."""
    return distance_up_to_global_phase(ideal_composition(compiled), ideal_product(specs))


def phase_block_errors(thetas, device, expected_phases):
    """Off-diagonal mass and worst diagonal phase error (vs expected_phases)
    of one gated phase block with angles (z1, z2, zz), propagated exactly."""
    block = compile_phase_block(*thetas, device, "gated")
    u = propagate(Schedule(block.segments, device), INITIAL_STATE).total_propagator
    off_mass = float(np.linalg.norm(u - np.diag(np.diag(u))))
    return off_mass, float(np.max(np.abs(np.angle(np.diag(u)) - expected_phases)))


def rk4_state_error(cases):
    """Largest final-state distance between ``propagate`` and
    ``propagate_rk4`` at dt = T / RK4_STEPS over (schedule, psi0) pairs."""
    worst = 0.0
    for sched, psi0 in cases:
        exact = propagate(sched, psi0).final_state
        approx = propagate_rk4(sched, psi0, sched.total_duration / RK4_STEPS)
        worst = max(worst, float(np.linalg.norm(exact - approx)))
    return worst


def run_verify(stream=None):
    """Run every check on fixed draws and print a pass/fail table; returns
    0 iff all pass, else 1 with the first failing check named last."""
    out = stream if stream is not None else sys.stdout
    rng = np.random.default_rng(20250814)
    failures = []

    def report(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'}  {name}{f'  [{detail}]' if detail else ''}", file=out)
        if not ok:
            failures.append(name)

    def identity_device():
        (d1, d2, d12), (a1, a2) = rng.uniform(-5.0, 5.0, 3), rng.uniform(0.0, 5.0, 2)
        return DeviceParams(QubitParams(d1, a1), QubitParams(d2, a2), d12)

    worst, (row, col) = builder_identity_error(identity_device() for _ in range(2000))
    report("hamiltonian identity, tensor vs pauli form (2000 draws)",
           worst <= BUILDER_IDENTITY_TOL,
           f"max diff {worst:.2e} at entry ({row + 1},{col + 1})")

    # Dyadic draws keep the level arithmetic exact.
    worst = effective_levels_error(
        DeviceParams(QubitParams(d1, 0.0), QubitParams(d2, 0.0), d12)
        for d1, d2, d12 in (rng.integers(-320, 321, 3) / 64.0 for _ in range(500)))
    report("effective levels match diagonal differences (500 dyadic draws)",
           worst <= LEVELS_TOL)

    orth, recon = eigh_residuals(
        (m + m.conj().T) / 2.0
        for m in (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                  for _ in range(200)))
    report("eigensolver orthonormality and reconstruction (200 draws)",
           orth <= EIGH_TOL and recon <= EIGH_TOL,
           f"orth {orth:.2e}, recon {recon:.2e}")

    def random_schedule():
        dev = DeviceParams(QubitParams(rng.uniform(-2, 2), rng.uniform(0, 2)),
                           QubitParams(rng.uniform(-2, 2), rng.uniform(0, 2)),
                           rng.uniform(-2, 2))
        segs = tuple(
            PulseSegment(duration=rng.uniform(0.1, 2.0),
                         delta1=rng.uniform(-2, 2), delta2=rng.uniform(-2, 2),
                         a1=rng.uniform(0, 2), a2=rng.uniform(0, 2))
            for _ in range(rng.integers(1, 5))
        )
        return Schedule(segs, dev)

    unit, drift = propagator_errors((random_schedule() for _ in range(30)), INITIAL_STATE)
    report("propagator unitarity and norm conservation (30 random schedules)",
           unit <= PROPAGATOR_TOL and drift <= PROPAGATOR_TOL,
           f"unitarity {unit:.2e}, drift {drift:.2e}")

    dist = composition_error([GateSpec("cnot")],
                             compile_cnot_gates(_sweep_device(0.05), "gated"))
    report("ideal CNOT composition", dist <= COMPOSITION_TOL, f"distance {dist:.2e}")

    # The worked block example lands its documented diagonal phases exactly.
    off_mass, phase_err = phase_block_errors(
        (-math.pi / 2, math.pi / 2, math.pi / 2),
        DeviceParams(QubitParams(0.0, 1.0), QubitParams(0.0, 1.0), 0.25),
        np.array([-math.pi / 2, math.pi / 2, -math.pi / 2, -math.pi / 2]))
    report("phase block diagonal phases",
           off_mass <= PHASE_BLOCK_TOL and phase_err <= PHASE_BLOCK_TOL,
           f"off-diagonal {off_mass:.2e}, phase err {phase_err:.2e}")

    err = rk4_state_error([(compile_cnot(_sweep_device(0.05), "gated"), INITIAL_STATE)])
    report("integrator cross-check, CNOT at coupling 0.05 (dt = T/1e5)",
           err <= RK4_TOL, f"state error {err:.2e}")

    worst = dipole_equivalence_error(rng.uniform(-5.0, 5.0, 500))
    report("capacitive = dipole at delta12/4 plus diagonal shifts (500 draws)",
           worst <= DIPOLE_EQUIVALENCE_TOL, f"max diff {worst:.2e}")

    if failures:
        print(f"\nFAILED: {failures[0]}", file=out)
        return 1
    print("\nall checks passed", file=out)
    return 0
