"""Gate-to-pulse compiler for the capacitively coupled two-qubit device.

Translates abstract gate requests (x/y/z rotations, zz phase blocks, CNOT)
into physical ``PulseSegment`` schedules through one entry,
``compile_schedule``, which states how requests are checked.  The only
physical knobs are the level settings Delta_1, Delta_2 and the drive
strengths a_1, a_2; the coupling Delta_12 is a device constant that can
never be switched off, which shapes the whole design:

* Virtual z policy: z rotations are never emitted as physical segments.
  They accumulate in the phase ledger, a dict of the ``_STREAMS`` that
  ``compile_schedule`` owns and its steps update in place; it is the only
  way a z request reaches a phase block, and the detuning choice of the
  next block discharges it.  The ledger keeps two kinds of stream: gate
  content (virtual z requests, which surface in the delivering block's gate
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
  with flip caps for the block's control qubit, whose candidate walk
  starts at a closed-form flip-cap bound and is screened in numpy blocks).
  The control's accrual equation books the bare detuning phase, not the
  drive-dressed one, and the difference -- the drive-induced level shift
  integrated over the block -- is the dominant, intentionally unmodeled
  always-on phase error.

The CNOT is the NMR-style gate list ``_CNOT_SEQUENCE``: x(-pi/2) on the
target, virtual z's and a zz(pi/2) block, x(+pi/2) on the target, a virtual
z and a second zz(pi/2) block.  The virtual z's are the brackets that turn
bare x rotations into y rotations; ``compile_schedule`` expands the CNOT into
this list and compiles it like any other.  The composition is checked
against the ideal CNOT by ``verify_schedule`` and the ideal-composition
oracle rather than assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .evolution import PulseSegment, Schedule, propagate
from .hamiltonian import _Z1, _Z2, DeviceParams, _place_drives, _require_qubit
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
# The parking searches skip a candidate only when it misses its cap or
# radius by this much (relative): numpy's sin and hypot may differ from
# math's by an ulp, and qubit 2's radius bound holds in exact arithmetic, not
# to the last bit; a scalar test then decides.
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


# The phase ledger: compile_schedule's loop state, one float per stream, kept
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
    its own."""
    return all(wrap_angle(owed[name]) == 0.0 for name in _STREAMS)


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
# below choose D.  The two searches walk their candidates in a fixed order
# and take the first that passes a scalar test, each skipping cheaply what
# cannot pass: qubit 2's walk skips, one branch at a time, the branches
# whose closed-form bracket stays short of the leak radius.  Qubit 1's walk
# starts at the first row a closed-form flip-cap bound admits
# (_control_walk_start; near 22 a for the CNOT's blocks, not at the 10 a
# floor), and the rows from there are screened in numpy blocks that double
# in length (from 32 rows of two candidates up to 2048), so a search that
# ends early stays cheap.  Every skip keeps _SCREEN_SLACK of margin past its
# cap or radius, and the scalar test alone decides, so each pick is the
# float that the walk from the floor returns.


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
    om_req = a * abs(math.sin(beta / 2.0)) / math.sqrt(_LEAK_CAP)
    d_req = math.sqrt(max(om_req * om_req - a * a, 0.0)) * 0.999
    start = max(floor_abs + abs(shift) + 0.05 * a, d_req)
    if not math.isfinite(2.0 * math.hypot(start, a) * t):
        raise CompilationError(
            f"exact parking overflows: the parked phase 2 Omega t at detuning "
            f"{start:.3g} over duration {t:.3g} is not finite"
        )
    f_start = _phase_unwrapped(start, a, t)
    radius = a * abs(math.sin(beta / 2.0)) * math.sqrt(1.0 / _LEAK_CAP - 1.0)

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
            if abs(delta) >= floor_abs and _leakage(root, a, t) <= _LEAK_CAP:
                return delta
    raise CompilationError(
        f"no exact parking detuning found (target angle {beta:.4f} rad, "
        f"duration {t:.4f}, floor {floor_abs:.4f}, leak cap {_LEAK_CAP:g})"
    )


def _control_walk_start(a, t, d12):
    """First row of qubit 1's walk that the flip caps can admit on either
    side, less a row of margin; the bound and its proof are in
    ``_control_parking``.  0 when the bound excludes nothing."""
    floor_abs = _PARKING_FLOOR * a
    om_floor = math.hypot(floor_abs, a)
    gap = _HALF_PI
    for side in (1.0, -1.0):
        # phi on this side lies between its value at the floor and its limit
        lo, hi = sorted((t * (math.hypot(side * floor_abs + d12 / 2.0, a) - om_floor),
                         side * t * d12 / 2.0))
        n = math.floor(lo / math.pi)
        gap = min(gap, lo - n * math.pi, (n + 1) * math.pi - hi)
    # math rounds each phase Omega t by a few ulp, and every skipped row has
    # Omega < a / sqrt(cap)
    gap -= _SCREEN_SLACK + 1e-14 * a * t / math.sqrt(_FLIP_CAP)
    if gap <= 0.0:
        return 0
    om_req = a * math.sin(gap / 2.0) / math.sqrt(_FLIP_CAP * (1.0 + _SCREEN_SLACK))
    bound = math.sqrt(max(om_req * om_req - a * a, 0.0)) - abs(d12) / 2.0
    # row i holds k_up + i and k_down - i, each less than (i + 1) pi / t past
    # the floor on its side, so every row up to (bound - floor) t / pi - 1 is
    # under the bound
    return max(int(min((bound - floor_abs) * t / math.pi, _K_MAX)) - 1, 0)


def _control_parking(theta, a, t, d12, delta2, sep):
    """Detuning of a block's qubit 1: the solution of the bare accrual
    equation 2 (delta + Delta_12/4) t == theta (mod 2 pi) nearest the floor,
    on either sign, that flips within _FLIP_CAP with qubit 2 in either state
    and sits at least sep away from +-delta2.

    Candidates k alternate k_up + i, k_down - i outward from the floor, one
    row i at a time, each row pi / t further out on both sides.  The walk
    starts at row ``_control_walk_start(a, t, d12)``, since no row below
    it can pass the flip caps:

    * A candidate delta sees Omega_1 = hypot(delta, a) and Omega_2 =
      hypot(delta + Delta_12/2, a) on qubit 2's two branches.  If both flip
      probabilities (a/Omega_j)^2 sin^2(Omega_j t) are within cap, then with
      s = cap max(Omega_1, Omega_2)^2 / a^2 < 1 each Omega_j t lies within
      arcsin sqrt(s) of a multiple of pi, so phi(delta) = t (Omega_2 -
      Omega_1) lies within 2 arcsin sqrt(s) of one.
    * x / hypot(x, a) increases, so phi is monotone in delta, and it tends
      to +-sign(Delta_12) r as delta -> +-infinity, with r = |Delta_12| t / 2
      the block's zz remainder.  On each side of the floor, phi therefore
      stays between phi(+-floor) and that limit, and its least distance D
      (<= pi/2) to the multiples of pi is closed form: 0 if the interval
      holds one, else the nearer end's.
    * A candidate can thus pass only if max(Omega_1, Omega_2) >= a sin(D/2)
      / sqrt(cap) (trivially so when s >= 1), and max(Omega_1, Omega_2) <=
      hypot(|delta| + |Delta_12|/2, a); so |delta| >= sqrt(a^2 sin^2(D/2) /
      cap - a^2) - |Delta_12|/2.  The side with the smaller D sets the start.
    * Floats: the cap is widened by _SCREEN_SLACK, and D shrinks by
      _SCREEN_SLACK plus the rounding of the phases Omega t; the start then
      drops one more row than the exact count.  For the CNOT's blocks (r =
      pi/2) the walk starts near 22 a instead of at 10 a.

    From there a block of rows is screened as arrays with the scalar test's
    own formula, the flip caps widened by _SCREEN_SLACK; the admitted
    candidates then meet the scalar test in walk order, so the pick is the
    float that the walk from the floor would return.
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

    i0, n = _control_walk_start(a, t, d12), 32
    while i0 < _K_MAX:
        # rows i0 .. i1 - 1; row i holds k_up + i, k_down - i; floats, so no
        # k overflows
        i1 = min(i0 + n, _K_MAX)
        i = np.arange(i0, i1, dtype=float)[:, None]
        k = np.array([k_up, k_down], dtype=float) + np.array([1.0, -1.0]) * i
        _, screen = admissible(k, np, _FLIP_CAP * (1.0 + _SCREEN_SLACK))
        for j in np.flatnonzero(screen).tolist():
            row, down = divmod(j, 2)
            delta, ok = admissible(k_down - i0 - row if down else k_up + i0 + row,
                                   math, _FLIP_CAP)
            if ok:
                return delta
        i0, n = i1, min(2 * n, 2048)
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
    cycles = om_min * t / math.pi
    if not math.isfinite(cycles):
        raise CompilationError(
            f"spectator parking overflows: its Rabi frequency {om_min:.3g} times the "
            f"pulse duration {t:.3g} is not finite"
        )
    m = math.ceil(cycles)
    om = math.pi * m / t
    delta = math.sqrt(om * om - a * a) - shift
    if not math.isfinite(delta):
        if math.isfinite(om_min * om_min):
            raise CompilationError(f"pulse of duration {t:.3g} too short to park the spectator")
        raise CompilationError(
            f"spectator parking overflows: its Rabi frequency {om_min:.3g} squared is "
            f"not finite (coupling shift {shift:.3g}, drive {a:.3g})"
        )
    return delta


# ---------------------------------------------------------------------------
# Gate compilers
# ---------------------------------------------------------------------------

def _compile_x_rotation(qubit, angle, device: DeviceParams, mode, owed):
    """Compile R_x(angle) on one qubit into a resonant drive segment.

    The driven qubit sits at Delta = 0 with its device drive strength for a
    duration t = theta / (2 a), negative angles realized as theta + 2 pi
    (durations are the only knob and must be positive).  In gated mode the
    spectator is fully idle; in always-on mode it keeps its drive and is
    parked on a full generalized-Rabi cycle.  The coupling surplus accrued
    during the segment is added to the ledger ``owed`` in place; a zero
    angle emits nothing and adds nothing.
    """
    content = (GateSpec("rx", qubit, angle),)
    if not (-_TWO_PI < angle <= _TWO_PI):
        raise CompilationError(
            f"rotation angle must lie in (-2 pi, 2 pi], got {angle}"
        )
    if angle == 0.0:
        return CompiledGate((), content)

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
    if not math.isfinite(surplus):
        raise CompilationError(
            f"coupling phase delta12 t / 2 overflows (delta12 {device.delta12:.3g}, "
            f"pulse duration {t:.3g})"
        )
    if qubit == 1 or a_spec == 0.0:
        owed["surplus_z1"] += surplus
    if qubit == 2 or a_spec == 0.0:
        owed["surplus_z2"] += surplus
    owed["pending_zz"] += surplus
    return CompiledGate((segment,), content)


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
    pure-z blocks still have positive duration; a t that overflows raises a
    CompilationError naming r and Delta_12.  Gated detunings solve the
    accrual equations in closed form, Delta_i = theta_hat_i / (2 t) -
    Delta_12 / 4, where theta_hat_i = wrap(-pending_zi - surplus_zi) is the
    physical angle owed, coupling surplus included.  In always-on mode the
    parking helpers replace them for each driven qubit: an exact drive-aware
    solve for qubit 2 (on the qubit-1-excited branch, matching its role as
    the rotated qubit in the CNOT sequence) and the bare accrual equation
    with flip caps and a separation constraint for qubit 1.
    """
    # An overflowed stream is never phase-neutral, so every such ledger gets here.
    for name in _STREAMS:
        if not math.isfinite(owed[name]):
            raise CompilationError(f"phase ledger overflows: {name} = {owed[name]}")
    # Content = the owed virtual z's; coupling surpluses are compensated
    # physically below but are not gate content.
    z1 = wrap_angle(-owed["pending_z1"])
    z2 = wrap_angle(-owed["pending_z2"])
    content = (GateSpec("rz", 1, z1), GateSpec("rz", 2, z2), GateSpec("zz", None, theta_zz))

    if theta_zz == 0.0 and _is_phase_neutral(owed):
        return CompiledGate((), content)
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
    if not math.isfinite(t):
        raise CompilationError(
            f"phase block duration 2 r / |delta12| overflows (zz remainder r {reduced:.3g}, "
            f"delta12 {d12:.3g})"
        )
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
        label=f"block({z1:.4g},{z2:.4g},{theta_zz:.4g})",
    )
    owed.update(dict.fromkeys(_STREAMS, 0.0))
    return CompiledGate((segment,), content)


# The CNOT (control qubit 1, target qubit 2) as the NMR sequence of bare x
# pulses on the target between z and zz evolutions: y(-90) . U . y(+90) . U'
# with the y rotations' virtual-z brackets folded into the z requests.  It
# composes to the ideal CNOT up to a global phase; acceptance checks that
# product, not this comment.
_CNOT_SEQUENCE = (
    GateSpec("rx", 2, -_HALF_PI),
    GateSpec("rz", 1, -_HALF_PI),
    GateSpec("rz", 2, _HALF_PI),
    GateSpec("zz", None, _HALF_PI),
    GateSpec("rx", 2, _HALF_PI),
    GateSpec("rz", 2, _HALF_PI),
    GateSpec("zz", None, _HALF_PI),
)


def compile_cnot(device: DeviceParams, mode):
    """Compile the full CNOT into an executable Schedule."""
    return compile_schedule((GateSpec("cnot"),), device, mode)[0]


def compile_schedule(gates, device: DeviceParams, mode):
    """Compile a list of GateSpec requests into one Schedule.

    Each request is checked once, when its GateSpec is built, and the mode
    once here; the private x-pulse and phase-block steps trust both.  The
    phase ledger is this loop's state, one dict of ``_STREAMS`` shared by
    every gate, and the steps update it in place.  Each ry(theta) is first
    expanded into rz(-pi/2), rx(theta), rz(+pi/2), brackets virtual, and
    each cnot into ``_CNOT_SEQUENCE``.  A drive segment mixes the rotation
    axes, so any pending z/zz phase must be physically settled before one
    starts: a discharge block is inserted ahead of every rx whose incoming
    ledger is not phase-neutral, which also delivers an ry's leading
    bracket.  After the last gate any residual pending phase is discharged
    into a closing block.  Returns (schedule, compiled_gates) including any
    inserted discharge blocks.  An rz emits nothing: it is a virtual request
    booked in the ledger, and its content is delivered by the next phase
    block; it still gets an empty CompiledGate, so compiled_gates keeps one
    entry per expanded request.
    """
    _require_mode(mode)
    expanded = []
    for spec in gates:
        if not isinstance(spec, GateSpec):
            raise ValueError(f"expected GateSpec, got {spec!r}")
        if spec.kind == "ry":
            expanded += [GateSpec("rz", spec.qubit, -_HALF_PI),
                         GateSpec("rx", spec.qubit, spec.angle),
                         GateSpec("rz", spec.qubit, _HALF_PI)]
        elif spec.kind == "cnot":
            expanded += _CNOT_SEQUENCE
        else:
            expanded.append(spec)
    owed = dict.fromkeys(_STREAMS, 0.0)
    compiled = []
    for spec in expanded:
        if spec.kind == "rx":
            if not _is_phase_neutral(owed):
                compiled.append(_compile_phase_block(0.0, device, mode, owed))
            compiled.append(_compile_x_rotation(spec.qubit, spec.angle, device, mode, owed))
        elif spec.kind == "rz":
            owed[f"pending_z{spec.qubit}"] -= spec.angle
            compiled.append(CompiledGate((), ()))
        else:  # zz
            compiled.append(_compile_phase_block(spec.angle, device, mode, owed))

    if not _is_phase_neutral(owed):
        compiled.append(_compile_phase_block(0.0, device, mode, owed))

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
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    return _verify_propagator(propagate(schedule, psi0).total_propagator, target, tol)


def _verify_propagator(u, target, tol):
    """``verify_schedule``'s report for a schedule's total propagator u."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (4, 4):
        raise ValueError(f"target must be 4x4, got shape {target.shape}")
    _require_unitary("target", target, 1e-10)
    _require_finite("tol", tol)
    distance = distance_up_to_global_phase(u, target)
    overlap = np.sum(target.conj() * u)
    phase_offset = float(np.angle(overlap)) if overlap != 0.0 else 0.0
    return {"distance": distance, "pass": distance <= tol,
            "phase_offset": phase_offset}
