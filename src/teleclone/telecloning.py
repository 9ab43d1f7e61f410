"""Telecloning circuit builders: entangled-resource prep, Bell measurement,
classical corrections, and optional tomography basis changes.

Qubit layout follows one hardware line ("caterpillar"): ancilla arm, port,
clone arm, with the message qubit hanging off the port. Logical indices walk
that line, so every two-qubit interaction is nearest-neighbour on it:

    message = 0,  ancillas = 1..M-1 (1 is the far end),  port = M,
    clones = M+1..2M (M+1 adjacent to the port)

The ancilla-free M=2 and M=3 circuits put the port at logical 1 and clones
after it. Classical bits: c0 = port, c1 = message, then one bit per clone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circuit import Circuit, Instruction, barrier, cond, cx, h, measure, ry, rz, x, z
from .dicke import cry_instructions, dsu_instructions, scs_instructions
from .exceptions import CircuitError


class TelecloningVariant(enum.Enum):
    WITH_ANCILLA_OPTIMIZED = "with-ancilla-optimized"
    WITH_ANCILLA_FULL = "with-ancilla-full"
    NO_ANCILLA = "no-ancilla"


@dataclass(frozen=True)
class MessageState:
    """Pure message qubit cos(psi/2)|0> + e^{i phi} sin(psi/2)|1>."""

    psi: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.psi) and math.isfinite(self.phi)):
            raise CircuitError("message angles must be finite")

    def amplitudes(self):
        return (math.cos(self.psi / 2),
                complex(math.cos(self.phi), math.sin(self.phi)) * math.sin(self.psi / 2))

    def bloch(self):
        a, b = self.amplitudes()
        return (2 * (a * b.conjugate()).real,
                2 * (a * b.conjugate()).imag * -1.0,
                abs(a) ** 2 - abs(b) ** 2)


def check_variant(m: int, variant: TelecloningVariant):
    """Raise :class:`CircuitError` unless a circuit for M clones of
    ``variant`` is known."""
    if m < 2:
        raise CircuitError(f"clone count must be >= 2, got {m}")
    if variant is TelecloningVariant.NO_ANCILLA and m not in (2, 3):
        raise CircuitError(
            f"no telecloning circuit without ancillas is known for M={m}")


def long_range_cx(path) -> list[Instruction]:
    """CX from path[0] to path[-1] using only adjacent CX along the path.

    Two parity sweeps restore every intermediate qubit regardless of its
    state; cost is 4(len-2) CX for len >= 3.
    """
    p = list(path)
    n = len(p) - 1
    if n < 1:
        raise CircuitError("long-range cx needs two endpoints")
    if n == 1:
        return [cx(p[0], p[1])]
    ops = [cx(p[j], p[j + 1]) for j in range(n)]
    ops += [cx(p[k - 1], p[k]) for k in range(n - 1, 0, -1)]
    ops += [cx(p[j], p[j + 1]) for j in range(1, n - 1)]
    ops += [cx(p[n - 1], p[n])]
    ops += [cx(p[k - 1], p[k]) for k in range(n - 1, 1, -1)]
    return ops


def _staircase_ladder(register) -> list[Instruction]:
    """Prepare sum_i |1^i 0^(M-i)> / sqrt(M+1) on the ordered register.

    Uncontrolled RY on the first qubit, then a controlled-RY chain along the
    register; each split leaves the staircase uniform.
    """
    reg = list(register)
    m = len(reg)
    ops = [ry(2 * math.acos(math.sqrt(1 / (m + 1))), reg[0])]
    for k in range(1, m):
        theta = 2 * math.acos(math.sqrt(1 / (m + 1 - k)))
        ops += cry_instructions(theta, reg[k - 1], reg[k])
    return ops


def _with_ancilla_prep(m: int, optimized: bool, ancillas, port, clones):
    """Resource-state prep on (ancillas..., port) x (clones...).

    Staircase on the port register, mirror copy onto the clone register via
    nearest-neighbour CX chains through the port, then the split/Dicke
    unitaries. The full variant symmetrizes the ancillas as well; the
    optimized one skips that (the ancillas are discarded, so only the block
    touching the port matters).
    """
    register = list(ancillas) + [port]          # staircase register, port last
    line = list(register) + list(clones)        # the physical hardware line
    ops = _staircase_ladder(register)
    for k in range(m):
        src = line.index(register[k])
        dst = line.index(clones[k])
        ops += long_range_cx(line[src:dst + 1])
    ops += scs_instructions(register)
    if not optimized and m >= 3:
        ops += dsu_instructions(list(ancillas))
    ops += dsu_instructions(list(clones))
    return ops


def _no_ancilla_prep(m: int, port, clones):
    """Ancilla-free resource prep for M=2,3: port RY, controlled prep of the
    clone register, then the Dicke unitary on the clones.

    The first clone copies the port, so subsequent port-controlled rotations
    can hang off the first clone and stay nearest-neighbour.
    """
    c = list(clones)
    if m == 2:
        ops = [ry(2 * math.acos(math.sqrt(1 / 2)), port), cx(port, c[0])]
        ops += cry_instructions(2 * math.acos(math.sqrt(1 / 3)), c[0], c[1])
        theta = 2 * math.acos(math.sqrt(2 / 3))
        ops += [x(port)] + cry_instructions(theta, port, c[0]) + [x(port)]
    else:
        ops = [ry(2 * math.acos(math.sqrt(2 / 3)), port), cx(port, c[0])]
        ops += cry_instructions(2 * math.acos(math.sqrt(1 / 2)), c[0], c[1])
        theta = 2 * math.acos(math.sqrt(3 / 4))
        ops += [x(port)] + cry_instructions(theta, port, c[0]) + [x(port)]
    ops += dsu_instructions(c)
    return ops


def _roles(m: int, variant: TelecloningVariant, with_message: bool):
    off = 1 if with_message else 0
    if variant is TelecloningVariant.NO_ANCILLA:
        roles = {"port": off, "ancillas": (),
                 "clones": tuple(range(off + 1, off + 1 + m))}
        n = off + 1 + m
    else:
        roles = {"port": off + m - 1,
                 "ancillas": tuple(range(off, off + m - 1)),
                 "clones": tuple(range(off + m, off + 2 * m))}
        n = off + 2 * m
    if with_message:
        roles["message"] = 0
    return roles, n


def build_telecloning_state(m: int, variant: TelecloningVariant) -> Circuit:
    """Circuit preparing the telecloning resource state (no message qubit).

    With ancillas the state is sum_i |D_i>|D_i>/sqrt(M+1) over the
    (ancillas, port) and clone registers. Without ancillas (M=2,3) the
    prepared pure state reproduces the same protocol output once the Bell
    branches are averaged.
    """
    check_variant(m, variant)
    roles, n = _roles(m, variant, with_message=False)
    if variant is TelecloningVariant.NO_ANCILLA:
        ops = _no_ancilla_prep(m, roles["port"], roles["clones"])
    else:
        ops = _with_ancilla_prep(
            m, variant is TelecloningVariant.WITH_ANCILLA_OPTIMIZED,
            roles["ancillas"], roles["port"], roles["clones"])
    return Circuit(n, 0, tuple(ops), roles=roles)


BASIS_CHOICES = ("x", "y", "z", "none")


def _basis_change(basis: str, qubit: int) -> list[Instruction]:
    if basis == "x":
        return [h(qubit)]
    if basis == "y":
        # RZ(-pi/2) then H == Sdg H, stays in the native set after transpile
        return [rz(-math.pi / 2, qubit), h(qubit)]
    return []


def build_protocol_circuit(m: int, variant: TelecloningVariant,
                           message: MessageState,
                           tomo_basis: str = "none") -> Circuit:
    """Full dynamic telecloning circuit in six barrier-separated segments:

    1. message prep (RY, RZ on qubit 0) and resource-state prep
    2. CX(message->port), H(message)
    3. measure port -> c0, measure message -> c1
    4. per clone: if c0==1 apply X, if c1==1 apply Z (2M feed-forward blocks)
    5. tomography basis change on every clone (skipped for "none")
    6. measure clones into c2.. (skipped for "none")
    """
    check_variant(m, variant)
    if tomo_basis not in BASIS_CHOICES:
        raise CircuitError(f"tomo basis must be one of {BASIS_CHOICES}")
    roles, n = _roles(m, variant, with_message=True)
    port, clones = roles["port"], roles["clones"]
    with_tomo = tomo_basis != "none"
    num_clbits = 2 + (m if with_tomo else 0)

    ops: list[Instruction] = [ry(message.psi, 0), rz(message.phi, 0)]
    shift = 1  # message qubit occupies index 0
    ops += [Instruction(i.gate, tuple(q + shift for q in i.qubits),
                        angle=i.angle, clbit=i.clbit)
            for i in build_telecloning_state(m, variant).instructions]
    ops.append(barrier())

    ops += [cx(0, port), h(0)]
    ops.append(barrier())
    ops += [measure(port, 0), measure(0, 1)]
    ops.append(barrier())
    for k, q in enumerate(clones):
        ops.append(cond(0, 1, [x(q)]))
        ops.append(cond(1, 1, [z(q)]))
    ops.append(barrier())
    if with_tomo:
        for q in clones:
            ops += _basis_change(tomo_basis, q)
        ops.append(barrier())
        for k, q in enumerate(clones):
            ops.append(measure(q, 2 + k))
    return Circuit(n, num_clbits, tuple(ops), roles=roles)
