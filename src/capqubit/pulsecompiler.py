"""Gate-to-pulse compiler for the capacitively coupled two-qubit device.

Translates abstract gate requests (x/y/z rotations, zz phase blocks, CNOT)
into physical pulse schedules through one entry, ``compile_schedule``, which
states how requests are checked.  The only
physical knobs are the level settings Delta_1, Delta_2 and the drive
strengths a_1, a_2; the coupling Delta_12 is a device constant that can
never be switched off, which shapes the whole design:

* Virtual z policy: z rotations are never emitted as physical segments.
  They accumulate in the phase ledger, a dict of the ``_STREAMS`` that the
  compile loop owns and its steps update in place; it is the only way a z
  request reaches a phase block, and the detuning choice of the next block
  discharges it.  The ledger keeps two kinds of stream: gate content
  (virtual z requests, which surface in the delivering block's gate
  content) and coupling surplus (the deterministic z/zz phases, Delta_12 t
  / 2 each, that the always-present coupling accrues during rotation
  segments; blocks cancel these physically and they never appear in gate
  content).  The split keeps the composed gate content equal to the
  requested ideal product at any coupling strength.
* Phase blocks: with drives off (gated mode) the Hamiltonian is diagonal,
  so a block of duration t delivers exact z angles 2 (Delta_i + Delta_12/4) t
  and a zz angle Delta_12 t / 2.  The block duration is fixed by the zz
  target; the two detunings then solve the ledger's z balances in closed
  form.
* Drive modes: ``gated`` switches drives off outside rotations.
  ``always_on`` keeps both drives running, so undriven qubits must be parked
  at large detuning.  Parking is where an always-on drive leaves its
  fingerprint; see the parking helpers below for the strategy (full-cycle
  parking for rotation spectators, an exact phase solve for the block's
  target qubit, walked branch by branch, and the mod-2pi accrual equation
  with flip caps for the block's control qubit, walked row by row and
  skipping by three closed-form bounds: both flip caps, one flip cap and
  the separation band).  A block is refused once a driven qubit's a t
  passes 4.14e10 (|Delta_12| below about 1e-10 a), where the rounding of
  its parked phase outweighs a detuning step.  The control's accrual
  equation books the bare detuning phase, not the drive-dressed one, and
  the difference -- the drive-induced level shift integrated over the
  block -- is the dominant, intentionally unmodeled always-on phase error.

The compile domain: each nonzero drive a_i and |Delta_12| lie in [1e-150,
1e150] a_ref, or ``_compile_steps`` refuses the device by name; a zero one
meets its own refusal.  Products, ratios and squares of two such magnitudes
stay below about 1e302: an x pulse lasts t <= pi / a, its surplus <= 1.6e300,
its spectator's Omega_min t / pi <= 1.1e301 and Omega_min^2 <= 1.2e302; a
block lasts t in [2e-12, 4 pi] / |Delta_12|, so gated detunings stay <=
8e161, qubit 1's rows within _K_MAX <= 1.6e168 and qubit 2's brackets are
finite below a t = 4.14e10.  Tiny angles and ledger sums are refused by name.

The CNOT is the NMR-style request list ``_CNOT_SEQUENCE``: x(-pi/2) on the
target, virtual z's and a zz(pi/2) block, x(+pi/2) on the target, a virtual
z and a second zz(pi/2) block.  The virtual z's are the brackets that turn
bare x rotations into y rotations; ``compile_schedule`` expands the CNOT into
this list and compiles it like any other.  Each step returns its segments
as plain rows, the five controls of a segment and its label, each checked
by the segment rules where it is made, and its gate content as plain (kind,
qubit, angle) values.  The rows go straight into the ``Schedule``'s (n, 5)
control array; only ``compile_schedule`` builds PulseSegments, GateSpecs
and CompiledGates from them, and ``compile_cnot`` compiles the list to its
Schedule alone.  The composition is checked against the ideal
CNOT by ``verify_schedule`` and the ideal-composition oracle rather than
assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evolution import INITIAL_STATE, PulseSegment, Schedule, _segment_row, propagate
from .hamiltonian import _Z1, _Z2, DeviceParams, QubitParams, _require_qubit, build_capacitive
from .linalg import _require_finite, _require_unitary, distance_up_to_global_phase, wrap_angle

__all__ = [
    "CompilationError",
    "GateSpec",
    "CompiledGate",
    "ideal_gate",
    "ideal_product",
    "ideal_composition",
    "compile_cnot",
    "compile_schedule",
    "verify_schedule",
]

MODES = ("gated", "always_on")
GATE_KINDS = ("rx", "ry", "rz", "zz", "cnot")

# Parked qubits must sit at least this many drive strengths away from
# resonance (in units of their own a).
_PARKING_FLOOR = 10.0
# Always-on admissibility cap: the largest spin-flip probability a parked,
# driven qubit may reach in one block (qubit 1 on both of qubit 2's branches,
# and qubit 2, which is solved exactly, as its leakage).
_FLIP_CAP = 1e-3
# Minimum separation between the two parked detunings, in drive units, to
# stay clear of two-qubit flip-flop and double-excitation resonances.
_SEPARATION_MIN = 2.0
# Search bounds for the mod-2pi parking equations.
_K_MAX = 10**6
_MAX_PHASE_BRANCHES = 400
# The parking searches skip a candidate only when it misses its cap or
# radius by this much (relative): their bounds hold in exact arithmetic, not
# to the last bit; a scalar test then decides.
_SCREEN_SLACK = 1e-6
# A zz remainder r below this is delivered as a full 2 pi cycle, as r = 0
# is: a block of length 2 r / |Delta_12| needs detunings ~ 1 / r (overflow
# at r ~ 1e-184), and skipping r errs by no more than the 1e-12 rad every
# block's diagonal phases are held to (checks.PHASE_BLOCK_TOL).
_ZZ_ROUNDOFF = 1e-12
_DOMAIN = (1e-150, 1e150)  # the compile domain (module docstring), in a_ref

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0


class CompilationError(ValueError):
    """A gate request cannot be realized on the given device/mode."""


def _require_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _require_gate_spec(spec):
    if not isinstance(spec, GateSpec):
        raise ValueError(f"expected GateSpec, got {spec!r}")


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


# The phase ledger: _compile_steps' loop state, one float per stream, kept
# unreduced; the block that delivers the streams wraps the owed totals to
# (-pi, pi].
#
# * pending_z1/pending_z2 -- gate content: virtual R_z requests not yet
#   delivered.  An rz subtracts its angle (pending is the angle delivered
#   ahead of requests, so owing a rotation makes it negative).  The next
#   phase block delivers the balance physically AND lists it in its gate
#   content: this is where a virtual z becomes part of the ideal composition.
# * surplus_z1/surplus_z2/pending_zz -- coupling surplus: the deterministic
#   extra z and zz phase (Delta_12 t / 2 each) that a drive segment accrues
#   because the coupling cannot be gated off.  The next block cancels it
#   physically but it never appears in any gate content -- it is error
#   compensation, not gate content.
_STREAMS = ("pending_z1", "pending_z2", "pending_zz", "surplus_z1", "surplus_z2")


def _is_phase_neutral(owed):
    """True when every stream of the ledger is an exact multiple of 2 pi on
    its own.  A stream that is exactly zero, as most are, skips the wrap."""
    return all(owed[name] == 0.0 or wrap_angle(owed[name]) == 0.0 for name in _STREAMS)


@dataclass(frozen=True)
class CompiledGate:
    """The physical realization of one gate request: emitted segments and the
    gate content they deliver at this time slot (GateSpecs in time order).
    Virtual z content is delivered by the next phase block, so a bare rz
    delivers nothing here."""

    segments: tuple
    content: tuple

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not (isinstance(self.content, tuple)
                and all(isinstance(spec, GateSpec) for spec in self.content)):
            raise ValueError(f"content must be a tuple of GateSpecs, got {self.content!r}")


# ---------------------------------------------------------------------------
# Ideal (noise-free) gate matrices
# ---------------------------------------------------------------------------
# Every gate but the CNOT is exp(-i (theta/2) P) about a Pauli string P, and
# P @ P = I makes it cos(theta/2) I - i sin(theta/2) P.  The seven strings
# are built once from hamiltonian's conventions: z signs from _Z1/_Z2,
# sigma_x^q as the Hamiltonian of a unit drive on qubit q alone, and
# sigma_y^q = i sigma_x^q sigma_z^q.

_Z_SIGNS = np.array([_Z1, _Z2, np.multiply(_Z1, _Z2)])  # rows z1, z2, z1 z2
_I4 = np.eye(4)
_X1, _X2 = (build_capacitive(DeviceParams(QubitParams(0.0, a1), QubitParams(0.0, a2), 0.0)).real
            for a1, a2 in ((1.0, 0.0), (0.0, 1.0)))
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
    _require_gate_spec(g)
    if g.kind == "cnot":
        return _CNOT.copy()
    half = g.angle / 2.0
    return math.cos(half) * _I4 - 1j * math.sin(half) * _PAULI[g.kind, g.qubit]


def ideal_product(specs):
    """Ideal unitary of a gate list: later gates act on the left."""
    u = np.eye(4, dtype=complex)
    for spec in specs:
        u = ideal_gate(spec) @ u
    return u


def ideal_composition(gates):
    """Ideal unitary of the gate content that compiled gates deliver, in
    time order."""
    return ideal_product([spec for g in gates for spec in g.content])


# ---------------------------------------------------------------------------
# Always-on parking helpers
# ---------------------------------------------------------------------------
# An undriven-but-driven qubit (drive on, meant to idle) evolves under
# D sigma_z + a sigma_x with D its effective detuning.  Over a time t it
# flips with probability (a/Omega)^2 sin^2(Omega t) and acquires a z phase
# angle theta_phys = -2 arg U_00, where Omega = sqrt(D^2 + a^2).  The helpers
# below choose D.  Both searches walk their candidates in a fixed order and
# take the first that passes a scalar test, skipping in closed form what
# cannot pass: qubit 2 whole branches, qubit 1 runs of rows by three bounds
# (see _control_parking).  Every skip keeps _SCREEN_SLACK of margin past its
# cap and allows for the rounding of Omega t, so each pick is the float of
# the walk over every candidate; a block where that rounding outweighs a
# detuning step is refused before either search runs.


def _leakage(detuning, a, t):
    """Spin-flip probability of a parked qubit after time t (a > 0)."""
    om = math.hypot(detuning, a)
    ratio = a / om
    return ratio * ratio * math.sin(om * t) ** 2


def _phase_rounding(phase):
    """Rounding allowed between phases Omega t computed at two rows of a walk:
    each errs by up to 5.3e-16 relative (the most seen against 200-bit
    arithmetic on 4e4 seeded rows)."""
    return 1.2e-15 * phase


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
    active drive, with |delta| >= the parking floor and leakage <= _FLIP_CAP.

    Solves F(D) = +-beta + 2 pi m (the phase is odd in D) by bisection on
    branches m from a start radius outward, the positive sign first on
    each; the first admissible root wins.  A branch's root lies in a
    closed-form bracket [lo, hi], and at the root the leakage is q / (1 + q)
    with q = (a sin(beta/2) / D)^2, so it passes the cap only if hi reaches
    the leak radius a |sin(beta/2)| sqrt(1/cap - 1).  A branch whose hi
    stays short of it is skipped before lo is built, but still counts toward
    _MAX_PHASE_BRANCHES; the bisection stops at its fixed point.  The start
    clears the floor on either sign, so only the scalar test checks it.  The
    returned value is the detuning delta relative to the coupling shift:
    D = delta + shift.
    """
    floor_abs = _PARKING_FLOOR * a
    # A solution has leakage ~ (a/Omega)^2 sin^2(beta/2); start the walk at
    # the radius where that can pass the cap instead of crawling to it.
    om_req = a * abs(math.sin(beta / 2.0)) / math.sqrt(_FLIP_CAP)
    d_req = math.sqrt(max(om_req * om_req - a * a, 0.0)) * 0.999
    start = max(floor_abs + abs(shift) + 0.05 * a, d_req)
    f_start = _phase_unwrapped(start, a, t)
    radius = a * abs(math.sin(beta / 2.0)) * math.sqrt(1.0 / _FLIP_CAP - 1.0)

    for i in range(_MAX_PHASE_BRANCHES):
        for sign in (1.0, -1.0):
            # Branches count from the lowest one at or above F(start), + before
            # - on each.  re > 0 in _phase_unwrapped, so |F - 2 Omega t| < pi:
            # the root has Omega in [(y - pi) / 2t, (y + pi) / 2t], which
            # brackets it in closed form; sqrt(om^2 - a^2) is taken as a
            # product, which cannot overflow.
            y = sign * beta + _TWO_PI * (math.ceil((f_start - sign * beta) / _TWO_PI) + i)
            om_hi = (y + math.pi) / (2.0 * t)
            hi = math.sqrt(om_hi - a) * math.sqrt(om_hi + a)
            if hi < radius * (1.0 - _SCREEN_SLACK):
                continue  # the root's leakage is past the cap
            om_lo = max((y - math.pi) / (2.0 * t), a)
            lo = max(start, math.sqrt(om_lo - a) * math.sqrt(om_lo + a))
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if _phase_unwrapped(mid, a, t) < y:
                    if mid == lo:
                        break  # a fixed point: the halvings left change nothing
                    lo = mid
                else:
                    if mid == hi:
                        break
                    hi = mid
            root = sign * (0.5 * (lo + hi))
            delta = root - shift
            if abs(delta) >= floor_abs and _leakage(root, a, t) <= _FLIP_CAP:
                return delta
    raise CompilationError(
        f"no exact parking detuning found (target angle {beta:.4f} rad, "
        f"duration {t:.4f}, floor {floor_abs:.4f}, leak cap {_FLIP_CAP:g})"
    )


def _control_rows_refused(delta, side, a, t, d12, delta2, sep):
    """How many rows after candidate delta on one side (+-1) of qubit 1's
    walk surely fail its scalar test, by the bounds of ``_control_parking``."""
    root_cap = math.sqrt(_FLIP_CAP * (1.0 + _SCREEN_SLACK))
    step = math.pi / t  # the detuning step per row
    branches = (delta, delta + d12 / 2.0)
    oms = [math.hypot(d, a) for d in branches]
    rounding = _phase_rounding(max(oms) * t)
    outward = [side * d >= 0.0 for d in branches]
    gap = max(abs(math.remainder(oms[1] * t - oms[0] * t, math.pi)) - 2.0 * rounding, 0.0)
    om_min = min(oms) if all(outward) else a
    drift = math.pi * abs(d12) * (a / om_min) ** 2 / (2.0 * om_min)  # ratios: a*a underflows
    rows = [(a * math.sin(gap / 2.0) / root_cap - max(oms))  # both caps
            / (step + a * drift / (2.0 * root_cap))]
    for d, om, out in zip(branches, oms, outward):
        phase = math.fmod(om * t, math.pi)
        sine = math.sin(phase) - rounding
        if out and sine > root_cap * om / a:
            fall = math.pi * (a / om) * (a / (om + abs(d)))  # one cap, by its chord
            rows.append((sine - root_cap * om / a)
                        / (fall * sine / (phase - rounding) + root_cap * step / a))
    rows += [(sep - side * (delta - c)) / step  # the band
             for c in (delta2, -delta2) if abs(delta - c) < sep]
    # every row m < max(rows) fails; drop the last of them
    return max(math.ceil(min(max(rows), _K_MAX)) - 2, 0)


def _control_parking(theta, a, t, d12, delta2, sep):
    """Detuning of a block's qubit 1: the solution of the bare accrual
    equation 2 (delta + Delta_12/4) t == theta (mod 2 pi) nearest the floor,
    on either sign, that flips within _FLIP_CAP with qubit 2 in either state
    and sits at least sep away from +-delta2.

    Candidates k alternate k_up + i, k_down - i outward from the floor, each
    row i pi / t further out on both sides; the up side is walked first, and
    the down side over the rows below its pick.  A row the scalar test
    refuses skips the rows after it that surely fail by three bounds
    (``_control_rows_refused``) on Omega_j = hypot(D_j, a), D_1 = delta and
    D_2 = delta + Delta_12/2 on qubit 2's two branches:

    * Both caps.  Both flips (a/Omega_j)^2 sin^2(Omega_j t) pass only if
      max Omega >= a sin(G/2) / sqrt(cap), G the distance of phi = t
      (Omega_2 - Omega_1) from the multiples of pi (each Omega_j t is then
      within arcsin(sqrt(cap) Omega_j / a) of one).  Per row max Omega rises
      by less than pi / t, and phi moves by less than pi |Delta_12| a^2 / (2
      Omega_min^3), Omega_min the smaller Omega while both D_j move away
      from 0, else a.  At the floor this skips up to about 22 a for a CNOT.
    * One cap.  While D_j moves away from 0, Omega_j t mod pi falls by less
      than pi a^2 / (Omega_j (Omega_j + |D_j|)) per row, the admitted sine
      sqrt(cap) Omega_j / a rises by less than sqrt(cap) pi / (t a), and sin
      stays above its chord to 0 on [0, pi].
    * The band.  A row within sep of +-delta2 skips the rest of the band.

    Each bound widens the cap by _SCREEN_SLACK, allows the rounding of the
    phases (``_phase_rounding``) and drops one row, so the scalar test alone
    decides.  Past a t = 4.14e10 the rounding of Omega t outweighs a step and
    no bound could skip; ``_compile_phase_block`` refuses such a block first.
    """
    shift = d12 / 4.0
    floor_abs = _PARKING_FLOOR * a

    def walk(k0, side, rows):
        # the first of the first `rows` rows on one side that passes, or None
        i = 0
        while i < rows:
            delta = (theta + _TWO_PI * (k0 + side * i)) / (2.0 * t) - shift
            # the floor, both flips (qubit 2 in either state), the separation
            if (abs(delta) >= floor_abs
                    and _leakage(delta, a, t) <= _FLIP_CAP
                    and _leakage(delta + d12 / 2.0, a, t) <= _FLIP_CAP
                    and abs(delta - delta2) >= sep and abs(delta + delta2) >= sep):
                return i, delta
            i += 1 + _control_rows_refused(delta, side, a, t, d12, delta2, sep)
        return None

    up = walk(math.ceil(((floor_abs + shift) * 2.0 * t - theta) / _TWO_PI), 1, _K_MAX)
    pick = walk(math.floor(((-floor_abs + shift) * 2.0 * t - theta) / _TWO_PI), -1,
                up[0] if up else _K_MAX) or up
    if pick is None:
        raise CompilationError(
            f"no admissible always-on parking for qubit 1 within "
            f"k <= {_K_MAX} (theta {theta:.4f} rad, duration {t:.4f}, "
            f"floor {floor_abs:.4f})"
        )
    return pick[1]


def _full_cycle_parking(a, t, shift):
    """Detuning parking a rotation spectator on an exact generalized-Rabi
    cycle: Omega t = m pi gives zero flip probability and zero net z phase,
    independent of the drive.  Picks the smallest such m >= 1 above the floor."""
    om_min = math.hypot(_PARKING_FLOOR * a + 0.5 * a + abs(shift), a)
    m = max(1, math.ceil(om_min * t / math.pi))  # Omega t / pi can underflow to 0
    om = math.pi * m / t
    delta = math.sqrt(om * om - a * a) - shift
    if not math.isfinite(delta):
        raise CompilationError(f"pulse of duration {t:.3g} too short to park the spectator")
    return delta


# ---------------------------------------------------------------------------
# Gate compilers
# ---------------------------------------------------------------------------

def _compile_x_rotation(qubit, angle, device: DeviceParams, mode, owed):
    """Compile R_x(angle) on one qubit into a resonant drive segment.

    The driven qubit sits at Delta = 0 with its device drive strength for a
    duration t = theta / (2 a), negative angles realized as theta + 2 pi
    (durations are the only knob and must be positive); a drive whose t is
    not a finite positive float is named in a CompilationError.  In gated
    mode the spectator is fully idle; in always-on mode it keeps its drive
    and is parked on a full generalized-Rabi cycle.  The coupling surplus
    accrued during the segment is added to the ledger ``owed`` in place; a
    zero angle emits nothing and adds nothing.  Returns the step's segment
    rows (``evolution._segment_row``) and its gate content as ``(kind,
    qubit, angle)`` values.
    """
    content = (("rx", qubit, angle),)
    if not (-_TWO_PI < angle <= _TWO_PI):
        raise CompilationError(
            f"rotation angle must lie in (-2 pi, 2 pi], got {angle}"
        )
    if angle == 0.0:
        return (), content

    a_drive = device.q1.a if qubit == 1 else device.q2.a
    if a_drive <= 0.0:
        raise CompilationError(
            f"qubit {qubit} has no drive (a = 0); x rotation unreachable"
        )
    theta_pos = angle if angle > 0.0 else angle + _TWO_PI
    t = theta_pos / (2.0 * a_drive)
    if not 0.0 < t < math.inf:
        raise CompilationError(
            f"qubit {qubit}'s drive a = {a_drive:.3g} gives its x pulse no finite "
            f"positive duration (theta / (2 a) = {t:.3g})"
        )

    a_spec = device.q2.a if qubit == 1 else device.q1.a
    if mode == "always_on" and a_spec > 0.0:
        d_spec = _full_cycle_parking(a_spec, t, device.delta12 / 4.0)
    else:
        a_spec = d_spec = 0.0
    if qubit == 1:
        delta1, delta2, a1, a2 = 0.0, d_spec, a_drive, a_spec
    else:
        delta1, delta2, a1, a2 = d_spec, 0.0, a_spec, a_drive
    row = _segment_row(t, delta1, delta2, a1, a2, f"rx(q{qubit},{angle:.6g})")
    # The full cycle nulls a parked spectator's net z phase, so only the
    # driven qubit books surplus; an idle spectator (a_spec = 0) books it too.
    surplus = device.delta12 * t / 2.0
    if qubit == 1 or a_spec == 0.0:
        owed["surplus_z1"] += surplus
    if qubit == 2 or a_spec == 0.0:
        owed["surplus_z2"] += surplus
    owed["pending_zz"] += surplus
    return (row,), content


def _compile_phase_block(theta_zz, device: DeviceParams, mode, owed):
    """Compile one phase block delivering a zz angle theta_zz and every
    stream of the ledger ``owed``, which it zeroes once it has emitted its
    segment; a block that emits nothing (theta_zz = 0 on a phase-neutral
    ledger) leaves the streams as they are.  z rotations reach a block only
    as virtual requests in the ledger; its gate content and its label show
    the z angles it delivers, wrap(-pending_zi).

    The duration comes from the zz target: t = 2 r / |Delta_12| where r in
    (0, 2 pi] is the coupling-sign-reduced remaining zz angle; a remainder
    below _ZZ_ROUNDOFF, zero included, is promoted to a full 2 pi cycle so
    pure-z blocks still have positive duration.  Gated detunings solve the
    accrual equations in closed form, Delta_i = theta_hat_i / (2 t) -
    Delta_12 / 4, where theta_hat_i = wrap(-pending_zi - surplus_zi) is the
    physical angle owed, coupling surplus included.  In always-on mode the
    parking helpers replace them for each driven qubit: an exact drive-aware
    solve for qubit 2 (on the qubit-1-excited branch, matching its role as
    the rotated qubit in the CNOT sequence) and the bare accrual equation
    with flip caps and a separation constraint for qubit 1; a driven qubit
    whose a t is past the roundoff limit is refused first, qubit 2 before 1.
    Returns the step's segment rows and its gate content as ``(kind,
    qubit, angle)`` values, as ``_compile_x_rotation`` does.
    """
    # An overflowed stream is never phase-neutral, so every such ledger gets here.
    for name in _STREAMS:
        if not math.isfinite(owed[name]):
            raise CompilationError(f"phase ledger overflows: {name} = {owed[name]}")
    # Content = the owed virtual z's; coupling surpluses are compensated
    # physically below but are not gate content.
    z1 = wrap_angle(-owed["pending_z1"])
    z2 = wrap_angle(-owed["pending_z2"])
    content = (("rz", 1, z1), ("rz", 2, z2), ("zz", None, theta_zz))

    if theta_zz == 0.0 and _is_phase_neutral(owed):
        return (), content
    if device.delta12 == 0.0:
        raise CompilationError(
            "coupling absent (delta12 = 0); zz angle unreachable"
        )

    d12 = device.delta12
    th1 = wrap_angle(-owed["pending_z1"] - owed["surplus_z1"])
    th2 = wrap_angle(-owed["pending_z2"] - owed["surplus_z2"])
    sign = 1.0 if d12 > 0.0 else -1.0
    reduced = (sign * (theta_zz - owed["pending_zz"])) % _TWO_PI
    if reduced < _ZZ_ROUNDOFF:
        reduced = _TWO_PI
    t = 2.0 * reduced / abs(d12)
    shift = d12 / 4.0
    delta1 = th1 / (2.0 * t) - shift
    delta2 = th2 / (2.0 * t) - shift

    a1, a2 = (device.q1.a, device.q2.a) if mode == "always_on" else (0.0, 0.0)
    # Where the flip cap binds (Omega ~ a / sqrt(cap)) a detuning step moves
    # Omega t mod pi by about pi cap / 2; past this a t its rounding is more,
    # so the parking walks cannot skip and a flip test reads roundoff.
    roundoff_at = _HALF_PI * _FLIP_CAP * math.sqrt(_FLIP_CAP) / _phase_rounding(1.0)
    for qubit, a in ((2, a2), (1, a1)):
        if a * t >= roundoff_at:
            raise CompilationError(
                f"always-on parking of qubit {qubit} rests on roundoff: its drive "
                f"{a:.3g} times the block duration {t:.3g} passes {roundoff_at:.3g} "
                f"(|delta12| {abs(d12):.3g} is below about 1e-10 times the drive)"
            )
    if a2 > 0.0:
        # Target the exact parked phase on the branch where qubit 1 is
        # excited (qubit-2 effective detuning delta2 + Delta_12/2 there);
        # the zz angle then lands on the complementary branch.
        delta2 = _exact_detuning(wrap_angle(th2 + sign * reduced), a2, t, d12 / 2.0)
    if a1 > 0.0:
        delta1 = _control_parking(th1, a1, t, d12, delta2, _SEPARATION_MIN * max(a1, a2))

    row = _segment_row(t, delta1, delta2, a1, a2, f"block({z1:.4g},{z2:.4g},{theta_zz:.4g})")
    owed.update(dict.fromkeys(_STREAMS, 0.0))
    return (row,), content


# The CNOT (control qubit 1, target qubit 2) as the NMR sequence of bare x
# pulses on the target between z and zz evolutions: y(-90) . U . y(+90) . U'
# with the y rotations' virtual-z brackets folded into the z requests.  It
# composes to the ideal CNOT up to a global phase; acceptance checks that
# product, not this comment.  Requests are (kind, qubit, angle) values, as
# compile_schedule expands them.
_CNOT_SEQUENCE = (
    ("rx", 2, -_HALF_PI),
    ("rz", 1, -_HALF_PI),
    ("rz", 2, _HALF_PI),
    ("zz", None, _HALF_PI),
    ("rx", 2, _HALF_PI),
    ("rz", 2, _HALF_PI),
    ("zz", None, _HALF_PI),
)


def _compiled_gate(step):
    """The CompiledGate of one step's (rows, content) pair."""
    rows, content = step
    return CompiledGate(tuple([PulseSegment(*controls, label) for controls, label in rows]),
                        tuple([GateSpec(*request) for request in content]))


def _compile_steps(requests, device: DeviceParams, mode):
    """Yield each step of expanded (kind, qubit, angle) requests in time
    order, discharge and closing blocks included, as its (rows, content)
    pair.  An rz is booked in the ledger and its step is empty."""
    lo, hi = _DOMAIN
    for name, value in (("a1", device.q1.a), ("a2", device.q2.a), ("delta12", device.delta12)):
        if value != 0.0 and not lo <= abs(value) <= hi:
            raise CompilationError(f"{name} = {value!r} is outside the compile domain "
                                   f"[{lo:g}, {hi:g}] of a nonzero drive or |delta12|")
    owed = dict.fromkeys(_STREAMS, 0.0)
    for kind, qubit, angle in requests:
        if kind == "rx":
            if not _is_phase_neutral(owed):
                yield _compile_phase_block(0.0, device, mode, owed)
            yield _compile_x_rotation(qubit, angle, device, mode, owed)
        elif kind == "rz":
            owed[f"pending_z{qubit}"] -= angle
            yield (), ()
        else:  # zz
            yield _compile_phase_block(angle, device, mode, owed)

    if not _is_phase_neutral(owed):
        yield _compile_phase_block(0.0, device, mode, owed)


def _schedule(rows, device: DeviceParams):
    """The Schedule of compiled segment rows, which must not be empty."""
    if not rows:
        raise CompilationError(
            "compiled schedule has no physical segments (only virtual gates)"
        )
    return Schedule._of_rows(rows, device)


def compile_cnot(device: DeviceParams, mode):
    """Compile the full CNOT into an executable Schedule: the schedule that
    ``compile_schedule`` gives for one cnot request, without the gate
    content it returns alongside, and without building a PulseSegment."""
    _require_mode(mode)
    steps = _compile_steps(_CNOT_SEQUENCE, device, mode)
    return _schedule([row for rows, _ in steps for row in rows], device)


def compile_schedule(gates, device: DeviceParams, mode):
    """Compile a list of GateSpec requests into one Schedule.

    Each request is checked once, when its GateSpec is built, and the mode
    once here; the private x-pulse and phase-block steps trust both.  The
    phase ledger is one dict of ``_STREAMS`` shared by every gate, and the
    steps update it in place.  Each ry(theta) is first expanded into
    rz(-pi/2), rx(theta), rz(+pi/2), brackets virtual, and each cnot into
    ``_CNOT_SEQUENCE``.  A drive segment mixes the rotation axes, so any
    pending z/zz phase must be physically settled before one starts: a
    discharge block is inserted ahead of every rx whose incoming ledger is
    not phase-neutral, which also delivers an ry's leading bracket.  After
    the last gate any residual pending phase is discharged into a closing
    block.  Returns (schedule, compiled_gates) including any inserted
    discharge blocks; the steps hand back their gate content as plain
    values, and this is the one place it becomes GateSpecs and
    CompiledGates.  An rz emits nothing: it is a virtual request booked in
    the ledger, and its content is delivered by the next phase block; it
    still gets an empty CompiledGate, so compiled_gates keeps one entry per
    expanded request.
    """
    _require_mode(mode)
    requests = []
    for spec in gates:
        _require_gate_spec(spec)
        if spec.kind == "ry":
            requests += [("rz", spec.qubit, -_HALF_PI),
                         ("rx", spec.qubit, spec.angle),
                         ("rz", spec.qubit, _HALF_PI)]
        elif spec.kind == "cnot":
            requests += _CNOT_SEQUENCE
        else:
            requests.append((spec.kind, spec.qubit, spec.angle))
    # lists, not tuples grown from the generator: growing a tuple left the
    # allocator fragmented, and peak RSS crept up over many compiles
    rows, compiled = [], []
    for step in _compile_steps(requests, device, mode):
        rows += step[0]
        compiled.append(_compiled_gate(step))
    return _schedule(rows, device), tuple(compiled)


def verify_schedule(schedule: Schedule, target, tol):
    """Check a schedule's exact propagator against a target unitary.

    Returns {'distance', 'pass', 'phase_offset'}: the global-phase-invariant
    distance, whether it meets tol, and the optimal phase arg tr(T^dagger U).
    tol must be finite and >= 0.
    """
    return _verify_propagator(propagate(schedule, INITIAL_STATE).total_propagator, target, tol)


def _verify_propagator(u, target, tol):
    """``verify_schedule``'s report for a schedule's total propagator u."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise ValueError(f"target must be 4x4, got shape {target.shape}")
    _require_unitary("target", target, 1e-10)
    _require_finite("tol", tol)
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    distance = distance_up_to_global_phase(u, target)
    overlap = np.sum(target.conj() * u)
    phase_offset = float(np.angle(overlap)) if overlap != 0.0 else 0.0
    return {"distance": distance, "pass": distance <= tol,
            "phase_offset": phase_offset}
