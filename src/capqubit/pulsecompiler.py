"""Gate-to-pulse compiler for the capacitively coupled two-qubit device.

Translates abstract gate requests (x/y/z rotations, zz phase blocks, CNOT)
into physical ``PulseSegment`` schedules.  The only physical knobs are the
level settings Delta_1, Delta_2 and the drive strengths a_1, a_2; the
coupling Delta_12 is a device constant that can never be switched off, which
shapes the whole design:

* Virtual z policy: z rotations are never emitted as physical segments.
  They accumulate in a ``PhaseLedger`` and are discharged by the detuning
  choice of the next phase block.  The ledger keeps two separate streams:
  gate content (virtual z requests, which surface in the delivering block's
  intended unitary) and coupling surplus (the deterministic z/zz phases,
  Delta_12 t / 2 each, that the always-present coupling accrues during
  rotation segments; blocks cancel these physically and they never appear in
  intended unitaries).  The split keeps composed intended unitaries equal to
  the requested ideal product at any coupling strength.
* Phase blocks: with drives off (gated mode) the Hamiltonian is diagonal,
  so a block of duration t delivers exact z angles 2 (Delta_i + Delta_12/4) t
  and a zz angle Delta_12 t / 2.  The block duration is fixed by the zz
  target; the two detunings then solve the z targets in closed form.
* Drive modes: ``gated`` switches drives off outside rotations.
  ``always_on`` keeps both drives running, so undriven qubits must be parked
  at large detuning.  Parking is where an always-on drive leaves its
  fingerprint; see the parking helpers below for the strategy (full-cycle
  parking for rotation spectators, an exact phase solve for the block's
  target qubit, and the mod-2pi accrual equation with flip caps for the
  block's control qubit).  The control's accrual equation books the bare
  detuning phase, not the drive-dressed one, and the difference -- the
  drive-induced level shift integrated over the block -- is the dominant,
  intentionally unmodeled always-on phase error.

The CNOT sequence is the NMR-style decomposition: x(-pi/2) on the target, a
phase block (-pi/2, +pi/2, +pi/2), x(+pi/2) on the target, and a closing
block (0, +pi/2, +pi/2).  The closing block's angles fold in the virtual-z
brackets that turn bare x rotations into y rotations; the composition is
checked against the ideal CNOT by ``verify_schedule`` and the
ideal-composition oracle rather than assumed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .evolution import PulseSegment, Schedule, propagate
from .hamiltonian import _Z1, _Z2, DeviceParams, _place_drives, _require_qubit
from .linalg import _require_finite, _require_unitary, distance_up_to_global_phase, wrap_angle

__all__ = [
    "CompilationError",
    "GateSpec",
    "PhaseLedger",
    "CompiledGate",
    "ideal_gate",
    "ideal_composition",
    "compile_x_rotation",
    "compile_z_rotation",
    "compile_phase_block",
    "compile_cnot_gates",
    "compile_cnot",
    "compile_schedule",
    "verify_schedule",
]

MODES = ("gated", "always_on")
GATE_KINDS = ("rx", "ry", "rz", "zz", "cnot")

# Parked qubits must sit at least this many drive strengths away from
# resonance (in units of their own a).
_PARKING_FLOOR = 10.0
# Always-on admissibility caps: maximum tolerated spin-flip probability of a
# parked qubit per block (evaluated on both neighbor-state branches) and
# maximum leakage of the exactly solved qubit.
_FLIP_CAP = 1e-3
_LEAK_CAP = 1e-3
# Minimum separation between the two parked detunings, in drive units, to
# stay clear of two-qubit flip-flop and double-excitation resonances.
_SEPARATION_MIN = 2.0
# Search bounds for the mod-2pi parking equations.
_K_MAX = 10**6
_MAX_PHASE_BRANCHES = 400
# The searches' array screens admit candidates this far (relative) past a
# cap or radius, since numpy's sin and hypot may differ from math's by an
# ulp; a scalar test then decides.
_SCREEN_SLACK = 1e-6
# A zz remainder r below this is delivered as a full 2 pi cycle, as r = 0
# is: a block of length 2 r / |Delta_12| needs detunings ~ 1 / r (overflow
# at r ~ 1e-184), and skipping r errs by no more than the 1e-12 rad every
# block's diagonal phases are held to (checks.PHASE_BLOCK_TOL).
_ZZ_ROUNDOFF = 1e-12

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0


class CompilationError(ValueError):
    """A gate request cannot be realized on the given device/mode."""


def _require_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class GateSpec:
    """One abstract gate request.

    Kinds: ``rx``/``ry``/``rz`` (qubit and angle required), ``zz`` (angle
    only) and ``cnot`` (control is qubit 1, target qubit 2, no parameters).
    Conventions: R_n(theta) = exp(-i (theta/2) sigma_n), U_zz(theta) =
    exp(-i (theta/2) sigma_z^1 sigma_z^2); angles in radians.  ``ideal_gate``
    builds each from one rule, stated in the ideal-gate section below.
    """

    kind: str
    qubit: int = None
    angle: float = None

    def __post_init__(self):
        kind = str(self.kind).lower()
        object.__setattr__(self, "kind", kind)
        if kind not in GATE_KINDS:
            raise ValueError(f"gate kind must be one of {GATE_KINDS}, got {self.kind!r}")
        if kind in ("rx", "ry", "rz"):
            _require_qubit(self.qubit)
            _require_finite("angle", self.angle)
        elif kind == "zz":
            if self.qubit is not None:
                raise ValueError("zz gates act on both qubits; qubit must be None")
            _require_finite("angle", self.angle)
        else:  # cnot
            if self.qubit is not None or self.angle is not None:
                raise ValueError("cnot takes no qubit or angle parameters")


@dataclass(frozen=True)
class PhaseLedger:
    """Deferred-phase bookkeeping threaded through compilation (a value, not
    shared state).

    Two separate streams are tracked, because they live at different layers:

    * ``pending_z1``/``pending_z2`` -- gate content: virtual R_z requests not
      yet delivered.  ``request_z`` subtracts the requested angle (pending is
      the angle delivered ahead of requests, so owing a rotation makes it
      negative).  The next phase block delivers the balance physically AND
      shows it in its intended unitary: this is where a virtual z becomes
      part of the ideal composition.
    * ``surplus_z1``/``surplus_z2``/``pending_zz`` -- coupling surplus: the
      deterministic extra z and zz phase (Delta_12 t / 2 each) that a drive
      segment accrues because the coupling cannot be gated off.  The next
      block cancels it physically but it never appears in any intended
      unitary -- it is error compensation, not gate content.

    Angles are stored unreduced; the block that delivers them wraps the
    owed totals to (-pi, pi].  A ledger is immutable, so ``PhaseLedger()``
    serves as the compilers' default.
    """

    pending_z1: float = 0.0
    pending_z2: float = 0.0
    pending_zz: float = 0.0
    surplus_z1: float = 0.0
    surplus_z2: float = 0.0

    def __post_init__(self):
        for name in ("pending_z1", "pending_z2", "pending_zz", "surplus_z1", "surplus_z2"):
            _require_finite(name, getattr(self, name))

    def request_z(self, qubit, angle):
        """Record a virtual R_z(angle) on a qubit; returns the new ledger."""
        _require_qubit(qubit)
        _require_finite("angle", angle)
        if qubit == 1:
            return replace(self, pending_z1=self.pending_z1 - angle)
        return replace(self, pending_z2=self.pending_z2 - angle)

    @property
    def is_phase_neutral(self):
        """True when every stream is an exact multiple of 2 pi on its own."""
        return (
            wrap_angle(self.pending_z1) == 0.0
            and wrap_angle(self.pending_z2) == 0.0
            and wrap_angle(self.surplus_z1) == 0.0
            and wrap_angle(self.surplus_z2) == 0.0
            and wrap_angle(self.pending_zz) == 0.0
        )


@dataclass(frozen=True)
class CompiledGate:
    """The physical realization of one gate request: emitted segments, the
    gate's contribution to the ideal composition at this time slot, and the
    ledger after compilation.  Virtual z content contributes at the block
    that delivers it, so a bare rz shows the identity here."""

    segments: tuple
    intended_unitary: np.ndarray
    ledger_after: PhaseLedger

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        u = np.asarray(self.intended_unitary, dtype=complex)
        object.__setattr__(self, "intended_unitary", u)
        _require_unitary("intended unitary", u, 1e-12)


# ---------------------------------------------------------------------------
# Ideal (noise-free) gate matrices
# ---------------------------------------------------------------------------
# Every gate but the CNOT is exp(-i (theta/2) P) about a Pauli string P, and
# P @ P = I makes it cos(theta/2) I - i sin(theta/2) P.  The seven strings
# are built once from hamiltonian's conventions: z signs from _Z1/_Z2,
# sigma_x^q from the drive placement, and sigma_y^q = i sigma_x^q sigma_z^q.

_Z_SIGNS = np.array([_Z1, _Z2, np.multiply(_Z1, _Z2)])  # rows z1, z2, z1 z2
_I4 = np.eye(4)
_X1, _X2 = np.zeros((4, 4)), np.zeros((4, 4))
_place_drives(_X1, 1.0, 0.0)
_place_drives(_X2, 0.0, 1.0)
_PAULI = {
    ("rx", 1): _X1, ("ry", 1): 1j * _X1 * _Z_SIGNS[0], ("rz", 1): np.diag(_Z_SIGNS[0]),
    ("rx", 2): _X2, ("ry", 2): 1j * _X2 * _Z_SIGNS[1], ("rz", 2): np.diag(_Z_SIGNS[1]),
    ("zz", None): np.diag(_Z_SIGNS[2]),
}
# The pure permutation |1>|1> <-> |1>|0>, no scalar prefactor.
_CNOT = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)


def ideal_gate(g: GateSpec):
    """Exact 4x4 matrix of a gate request in the fixed product basis: the
    CNOT permutation, or for every other kind the Pauli-string rotation
    stated once at the head of this section."""
    if g.kind == "cnot":
        return _CNOT.copy()
    half = g.angle / 2.0
    return math.cos(half) * _I4 - 1j * math.sin(half) * _PAULI[g.kind, g.qubit]


def _block_unitary(theta_z1, theta_z2, theta_zz):
    """Ideal diagonal unitary of a phase block, Rz1 Rz2 Uzz of the given
    angles: the entrywise product of the three diagonals exp(-i theta/2 z)."""
    thetas = np.array([theta_z1, theta_z2, theta_zz])
    return np.diag(np.exp(-0.5j * thetas[:, None] * _Z_SIGNS).prod(axis=0))


def ideal_composition(gates):
    """Product of the intended unitaries of compiled gates in time order."""
    u = np.eye(4, dtype=complex)
    for g in gates:
        u = g.intended_unitary @ u
    return u


# ---------------------------------------------------------------------------
# Always-on parking helpers
# ---------------------------------------------------------------------------
# An undriven-but-driven qubit (drive on, meant to idle) evolves under
# D sigma_z + a sigma_x with D its effective detuning.  Over a time t it
# flips with probability (a/Omega)^2 sin^2(Omega t) and acquires a z phase
# angle theta_phys = -2 arg U_00, where Omega = sqrt(D^2 + a^2).  The helpers
# below choose D.  The two searches walk their candidates in a fixed order
# and take the first that passes a scalar test.  They screen the walk in
# numpy blocks that double in length, so a search that ends early stays
# cheap: each block's candidates are screened as arrays, with
# _SCREEN_SLACK of relative margin past each cap and radius, and only the
# candidates the screen admits meet the scalar test, in the walk's order.
# The scalar test alone decides, so each pick is the walk's own float.


def _blocks(count, first, largest):
    """Consecutive ranges (i0, i1) covering range(count), their length
    doubling from first up to largest."""
    i0, n = 0, first
    while i0 < count:
        yield i0, min(i0 + n, count)
        i0 += n
        n = min(2 * n, largest)


def _leakage(detuning, a, t, xp=math):
    """Spin-flip probability of a parked qubit after time t (a > 0); xp is
    math for a float or numpy for an array of detunings."""
    om = xp.hypot(detuning, a)
    ratio = a / om
    return ratio * ratio * xp.sin(om * t) ** 2


def _phase_unwrapped(detuning, a, t):
    """Accumulated z-phase angle of the parked evolution, unwrapped.

    Writing U_00 = e^{-i Omega t} (cos^2 + (D/Omega) sin^2 ... ) in the
    rotating frame of Omega, the returned value F(D) = 2 Omega t - 2 arg(z)
    with z = e^{i Omega t} U_00 is continuous in D > 0, and F mod 2 pi
    equals the physical z angle.  F strictly increases wherever
    D^2 Omega t >= a^2 / 2, so from the parking floor up once a t >= 5e-4.
    Solving on F instead of the wrapped angle keeps bisection away from
    branch cuts even when the drive-induced shift spans many turns.
    """
    om = math.hypot(detuning, a)
    wt = om * t
    c = math.cos(wt)
    s = math.sin(wt)
    re = c * c + (detuning / om) * s * s
    im = s * c * (1.0 - detuning / om)
    return 2.0 * om * t - 2.0 * math.atan2(im, re)


def _exact_detuning(beta, a, t, shift):
    """Detuning delta delivering z angle beta (mod 2 pi) exactly under an
    active drive, with |delta| >= the parking floor and leakage <= _LEAK_CAP.

    Solves F(D) = +-beta + 2 pi m (the phase is odd in D) by bisection on
    branches m from a start radius outward, the positive sign first on
    each; the first admissible root wins.  A branch's root lies in a
    closed-form bracket [lo, hi], built for a block of branches at once, and
    at the root the leakage is q / (1 + q) with q = (a sin(beta/2) / D)^2, so
    it passes the cap only if hi reaches the leak radius
    a |sin(beta/2)| sqrt(1/cap - 1).  Only the branches whose bracket
    reaches it are bisected and tested, in the walk's order; the start
    clears the floor on either sign, so the floor screens none.  The
    returned value is the detuning delta relative to the coupling shift:
    D = delta + shift.
    """
    floor_abs = _PARKING_FLOOR * a
    # A solution has leakage ~ (a/Omega)^2 sin^2(beta/2); start the walk at
    # the radius where that can pass the cap instead of crawling to it.
    om_req = a * abs(math.sin(beta / 2.0)) / math.sqrt(_LEAK_CAP)
    d_req = math.sqrt(max(om_req * om_req - a * a, 0.0)) * 0.999
    start = max(floor_abs + abs(shift) + 0.05 * a, d_req)
    f_start = _phase_unwrapped(start, a, t)
    radius = a * abs(math.sin(beta / 2.0)) * math.sqrt(1.0 / _LEAK_CAP - 1.0)

    for i0, i1 in _blocks(_MAX_PHASE_BRANCHES, 1, 200):
        # Branches count from the lowest one at or above F(start), + before -
        # on each.  re > 0 in _phase_unwrapped, so |F - 2 Omega t| < pi: the
        # root has Omega in [(y - pi) / 2t, (y + pi) / 2t], which brackets it
        # in closed form.  numpy's ceil, sqrt and arithmetic round as math's
        # do, so these arrays hold the scalar walk's floats.
        i = np.arange(i0, i1)[:, None]
        sign = np.array([1.0, -1.0])
        y = sign * beta + _TWO_PI * (np.ceil((f_start - sign * beta) / _TWO_PI) + i)
        om_lo = np.maximum((y - math.pi) / (2.0 * t), a)
        om_hi = (y + math.pi) / (2.0 * t)
        # sqrt(om^2 - a^2) as a product, which cannot overflow.
        lo = np.maximum(start, np.sqrt(om_lo - a) * np.sqrt(om_lo + a))
        hi = np.sqrt(om_hi - a) * np.sqrt(om_hi + a)
        for j in np.flatnonzero(hi >= radius * (1.0 - _SCREEN_SLACK)).tolist():
            target, r_lo, r_hi = float(y.flat[j]), float(lo.flat[j]), float(hi.flat[j])
            for _ in range(90):
                mid = 0.5 * (r_lo + r_hi)
                if _phase_unwrapped(mid, a, t) < target:
                    if mid == r_lo:
                        break  # a fixed point: the halvings left change nothing
                    r_lo = mid
                else:
                    if mid == r_hi:
                        break
                    r_hi = mid
            root = float(sign[j % 2]) * (0.5 * (r_lo + r_hi))
            delta = root - shift
            if abs(delta) >= floor_abs and _leakage(root, a, t) <= _LEAK_CAP:
                return delta
    raise CompilationError(
        f"no exact parking detuning found (target angle {beta:.4f} rad, "
        f"duration {t:.4f}, floor {floor_abs:.4f}, leak cap {_LEAK_CAP:g})"
    )


def _control_parking(theta, a, t, d12, delta2, sep):
    """Detuning of a block's qubit 1: the solution of the bare accrual
    equation 2 (delta + Delta_12/4) t == theta (mod 2 pi) nearest the floor,
    on either sign, that flips within _FLIP_CAP with qubit 2 in either state
    and sits at least sep away from +-delta2.

    Candidates k alternate k_up + i, k_down - i outward from the floor.  A
    block of them is screened as arrays with the scalar test's own formula,
    the flip caps widened by _SCREEN_SLACK; the admitted candidates then
    meet the scalar test in that order.
    """
    shift = d12 / 4.0
    floor_abs = _PARKING_FLOOR * a
    k_up = math.ceil(((floor_abs + shift) * 2.0 * t - theta) / _TWO_PI)
    k_down = math.floor(((-floor_abs + shift) * 2.0 * t - theta) / _TWO_PI)

    def admissible(k, xp, cap):
        # the floor, both flip probabilities (qubit 2 in its ground and its
        # excited state) and the separation from +-delta2; & serves floats
        # and arrays alike
        delta = (theta + _TWO_PI * k) / (2.0 * t) - shift
        return delta, ((abs(delta) >= floor_abs)
                       & (_leakage(delta, a, t, xp) <= cap)
                       & (_leakage(delta + d12 / 2.0, a, t, xp) <= cap)
                       & (abs(delta - delta2) >= sep) & (abs(delta + delta2) >= sep))

    for i0, i1 in _blocks(_K_MAX, 32, 2048):
        # row i holds k_up + i, k_down - i; floats, so no k overflows
        i = np.arange(i0, i1, dtype=float)[:, None]
        k = np.array([k_up, k_down], dtype=float) + np.array([1.0, -1.0]) * i
        _, screen = admissible(k, np, _FLIP_CAP * (1.0 + _SCREEN_SLACK))
        for j in np.flatnonzero(screen).tolist():
            row, down = divmod(j, 2)
            delta, ok = admissible(k_down - i0 - row if down else k_up + i0 + row,
                                   math, _FLIP_CAP)
            if ok:
                return delta
    raise CompilationError(
        f"no admissible always-on parking for qubit 1 within "
        f"k <= {_K_MAX} (theta {theta:.4f} rad, duration {t:.4f}, "
        f"floor {floor_abs:.4f})"
    )


def _full_cycle_parking(a, t, shift):
    """Detuning parking a rotation spectator on an exact generalized-Rabi
    cycle: Omega t = m pi gives zero flip probability and zero net z phase,
    independent of the drive.  Picks the smallest such m above the floor."""
    om_min = math.hypot(_PARKING_FLOOR * a + 0.5 * a + abs(shift), a)
    m = math.ceil(om_min * t / math.pi)
    om = math.pi * m / t
    delta = math.sqrt(om * om - a * a) - shift
    if not math.isfinite(delta):
        raise CompilationError(f"pulse of duration {t:.3g} too short to park the spectator")
    return delta


# ---------------------------------------------------------------------------
# Gate compilers
# ---------------------------------------------------------------------------

def compile_x_rotation(qubit, angle, device: DeviceParams, mode,
                       ledger: PhaseLedger = PhaseLedger()):
    """Compile R_x(angle) on one qubit into a resonant drive segment.

    The driven qubit sits at Delta = 0 with its device drive strength for a
    duration t = theta / (2 a), negative angles realized as theta + 2 pi
    (durations are the only knob and must be positive).  In gated mode the
    spectator is fully idle; in always-on mode it keeps its drive and is
    parked on a full generalized-Rabi cycle.  The ledger books the coupling
    surplus accrued during the segment.
    """
    _require_qubit(qubit)
    _require_mode(mode)
    _require_finite("angle", angle)
    if not (-_TWO_PI < angle <= _TWO_PI):
        raise CompilationError(
            f"rotation angle must lie in (-2 pi, 2 pi], got {angle}"
        )
    intended = ideal_gate(GateSpec("rx", qubit, angle))
    if angle == 0.0:
        return CompiledGate((), intended, ledger)

    a_drive = device.q1.a if qubit == 1 else device.q2.a
    if a_drive <= 0.0:
        raise CompilationError(
            f"qubit {qubit} has no drive (a = 0); x rotation unreachable"
        )
    theta_pos = angle if angle > 0.0 else angle + _TWO_PI
    t = theta_pos / (2.0 * a_drive)

    a_spec = device.q2.a if qubit == 1 else device.q1.a
    if mode == "always_on" and a_spec > 0.0:
        d_spec = _full_cycle_parking(a_spec, t, device.delta12 / 4.0)
    else:
        a_spec = d_spec = 0.0
    if qubit == 1:
        delta1, delta2, a1, a2 = 0.0, d_spec, a_drive, a_spec
    else:
        delta1, delta2, a1, a2 = d_spec, 0.0, a_spec, a_drive
    segment = PulseSegment(
        duration=t,
        delta1=delta1,
        delta2=delta2,
        a1=a1,
        a2=a2,
        label=f"rx(q{qubit},{angle:.6g})",
    )
    # The full cycle nulls a parked spectator's net z phase, so only the
    # driven qubit books surplus; an idle spectator (a_spec = 0) books it too.
    surplus = device.delta12 * t / 2.0
    s1, s2 = ledger.surplus_z1, ledger.surplus_z2
    after = replace(
        ledger,
        surplus_z1=s1 + surplus if qubit == 1 or a_spec == 0.0 else s1,
        surplus_z2=s2 + surplus if qubit == 2 or a_spec == 0.0 else s2,
        pending_zz=ledger.pending_zz + surplus,
    )
    return CompiledGate((segment,), intended, after)


def compile_z_rotation(qubit, angle, ledger: PhaseLedger = PhaseLedger()):
    """Compile R_z(angle): purely virtual, no physical segments.

    The intended unitary is the identity -- the rotation exists only as
    ledger content here, and becomes part of the ideal composition at the
    phase block that delivers it (whose intended unitary shows it).  This
    keeps composed intended unitaries in one-to-one correspondence with the
    physical time line.
    """
    _require_qubit(qubit)
    _require_finite("angle", angle)
    return CompiledGate((), np.eye(4, dtype=complex),
                        ledger.request_z(qubit, angle))


def compile_phase_block(theta_z1, theta_z2, theta_zz, device: DeviceParams,
                        mode, ledger: PhaseLedger = PhaseLedger()):
    """Compile one phase block delivering z angles theta_z1/theta_z2 and a zz
    angle theta_zz, absorbing all ledger pendings.

    The duration comes from the zz target: t = 2 r / |Delta_12| where r in
    (0, 2 pi] is the coupling-sign-reduced remaining zz angle; a remainder
    below _ZZ_ROUNDOFF, zero included, is promoted to a full 2 pi cycle so
    pure-z blocks still have positive duration.  Gated detunings solve the
    accrual equations in closed form, Delta_i = theta_hat_i / (2 t) -
    Delta_12 / 4.  In always-on mode the parking helpers replace them for
    each driven qubit: an exact drive-aware solve for qubit 2 (on the
    qubit-1-excited branch, matching its role as the rotated qubit in the
    CNOT sequence) and the bare accrual equation with flip caps and a
    separation constraint for qubit 1.
    """
    _require_mode(mode)
    for name, value in (("theta_z1", theta_z1), ("theta_z2", theta_z2),
                        ("theta_zz", theta_zz)):
        _require_finite(name, value)
    # Intended = requested angles plus any owed gate content; coupling
    # surpluses are compensated physically below but are not gate content.
    intended = _block_unitary(
        wrap_angle(theta_z1 - ledger.pending_z1),
        wrap_angle(theta_z2 - ledger.pending_z2),
        theta_zz,
    )

    if (theta_z1 == 0.0 and theta_z2 == 0.0 and theta_zz == 0.0
            and ledger.is_phase_neutral):
        return CompiledGate((), intended, ledger)
    if device.delta12 == 0.0:
        raise CompilationError(
            "coupling absent (delta12 = 0); zz angle unreachable"
        )

    d12 = device.delta12
    th1 = wrap_angle(theta_z1 - ledger.pending_z1 - ledger.surplus_z1)
    th2 = wrap_angle(theta_z2 - ledger.pending_z2 - ledger.surplus_z2)
    sign = 1.0 if d12 > 0.0 else -1.0
    reduced = (sign * (theta_zz - ledger.pending_zz)) % _TWO_PI
    if reduced < _ZZ_ROUNDOFF:
        reduced = _TWO_PI
    t = 2.0 * reduced / abs(d12)
    shift = d12 / 4.0
    delta1 = th1 / (2.0 * t) - shift
    delta2 = th2 / (2.0 * t) - shift

    a1, a2 = (device.q1.a, device.q2.a) if mode == "always_on" else (0.0, 0.0)
    if a2 > 0.0:
        # Target the exact parked phase on the branch where qubit 1 is
        # excited (qubit-2 effective detuning delta2 + Delta_12/2 there);
        # the zz angle then lands on the complementary branch.
        delta2 = _exact_detuning(wrap_angle(th2 + sign * reduced), a2, t, d12 / 2.0)
    if a1 > 0.0:
        delta1 = _control_parking(th1, a1, t, d12, delta2, _SEPARATION_MIN * max(a1, a2))

    segment = PulseSegment(
        duration=t,
        delta1=delta1,
        delta2=delta2,
        a1=a1,
        a2=a2,
        label=f"block({theta_z1:.4g},{theta_z2:.4g},{theta_zz:.4g})",
    )
    return CompiledGate((segment,), intended, PhaseLedger())


def compile_cnot_gates(device: DeviceParams, mode,
                       ledger: PhaseLedger = PhaseLedger()):
    """The CNOT pulse sequence as its four compiled pieces (time order).

    Control is qubit 1, target qubit 2.  The sequence is the NMR-style
    y(-90) . U . y(+90) . U' structure with the y rotations' virtual-z
    brackets folded into the two blocks' angle triples; what remains is two
    bare x pulses on the target and two phase blocks.  The closing block
    discharges all residual ledger phase.  The pieces' intended unitaries
    compose to the ideal CNOT up to a global phase (see
    ``ideal_composition``); acceptance checks that product, not this
    docstring.
    """
    _require_mode(mode)
    if device.delta12 == 0.0:
        raise CompilationError("CNOT requires a nonzero coupling delta12")
    if device.q1.a <= 0.0 or device.q2.a <= 0.0:
        raise CompilationError(
            f"CNOT requires both drives > 0, got a1={device.q1.a}, a2={device.q2.a}"
        )
    g1 = compile_x_rotation(2, -_HALF_PI, device, mode, ledger)
    g2 = compile_phase_block(-_HALF_PI, _HALF_PI, _HALF_PI, device, mode,
                             g1.ledger_after)
    g3 = compile_x_rotation(2, _HALF_PI, device, mode, g2.ledger_after)
    g4 = compile_phase_block(0.0, _HALF_PI, _HALF_PI, device, mode,
                             g3.ledger_after)
    return (g1, g2, g3, g4)


def compile_cnot(device: DeviceParams, mode):
    """Compile the full CNOT into an executable Schedule."""
    return compile_schedule((GateSpec("cnot"),), device, mode)[0]


def compile_schedule(gates, device: DeviceParams, mode):
    """Compile a list of GateSpec requests into one Schedule.

    Gates share a single ledger.  Each ry(theta) is first expanded into
    rz(-pi/2), rx(theta), rz(+pi/2), brackets virtual.  A drive segment
    mixes the rotation axes, so any pending z/zz phase must be physically
    settled before one starts: a discharge block is inserted ahead of every
    rx/cnot whose incoming ledger is not phase-neutral, which also delivers
    an ry's leading bracket.  After the last gate any residual pending phase
    is discharged into a closing block.  Returns (schedule, compiled_gates)
    including any inserted discharge blocks.
    """
    expanded = []
    for spec in gates:
        if not isinstance(spec, GateSpec):
            raise ValueError(f"expected GateSpec, got {spec!r}")
        if spec.kind == "ry":
            expanded += [GateSpec("rz", spec.qubit, -_HALF_PI),
                         GateSpec("rx", spec.qubit, spec.angle),
                         GateSpec("rz", spec.qubit, _HALF_PI)]
        else:
            expanded.append(spec)
    ledger = PhaseLedger()
    compiled = []
    for spec in expanded:
        if spec.kind in ("rx", "cnot") and not ledger.is_phase_neutral:
            settle = compile_phase_block(0.0, 0.0, 0.0, device, mode, ledger)
            compiled.append(settle)
            ledger = settle.ledger_after
        if spec.kind == "rx":
            pieces = (compile_x_rotation(spec.qubit, spec.angle, device, mode, ledger),)
        elif spec.kind == "rz":
            pieces = (compile_z_rotation(spec.qubit, spec.angle, ledger),)
        elif spec.kind == "zz":
            pieces = (compile_phase_block(0.0, 0.0, spec.angle, device, mode, ledger),)
        else:  # cnot
            pieces = compile_cnot_gates(device, mode, ledger)
        compiled.extend(pieces)
        ledger = pieces[-1].ledger_after

    if not ledger.is_phase_neutral:
        compiled.append(compile_phase_block(0.0, 0.0, 0.0, device, mode, ledger))

    segments = tuple(seg for g in compiled for seg in g.segments)
    if not segments:
        raise CompilationError(
            "compiled schedule has no physical segments (only virtual gates)"
        )
    return Schedule(segments=segments, device=device), tuple(compiled)


def verify_schedule(schedule: Schedule, target, tol):
    """Check a schedule's exact propagator against a target unitary.

    Returns {'distance', 'pass', 'phase_offset'}: the global-phase-invariant
    distance, whether it meets tol, and the optimal phase arg tr(T^dagger U).
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise ValueError(f"target must be 4x4, got shape {target.shape}")
    _require_unitary("target", target, 1e-10)
    _require_finite("tol", tol)
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    u = propagate(schedule, psi0).total_propagator
    distance = distance_up_to_global_phase(u, target)
    overlap = np.sum(target.conj() * u)
    phase_offset = float(np.angle(overlap)) if overlap != 0.0 else 0.0
    return {"distance": distance, "pass": distance <= tol,
            "phase_offset": phase_offset}
