"""Lightweight operation (gate) representation.

The compiler manipulates millions of operations for 1024-qubit circuits, so
``Op`` is a slotted value object rather than a rich class hierarchy.  Kinds
are plain strings; the canonical set is listed in :data:`OP_KINDS`.

Two-qubit *problem* gates are always ``CPHASE`` — in QAOA-MaxCut each
problem-graph edge compiles to one CPHASE (a CZ up to the rotation angle),
and in 2-local Hamiltonian simulation each interaction term plays the same
role.  The paper (Section 2.1) relies only on the facts that all problem
gates commute and are symmetric in their qubits, which CPHASE satisfies.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

#: Problem two-qubit gate (symmetric, diagonal, all instances commute).
CPHASE = "cphase"
#: Routing gate.
SWAP = "swap"
#: Native entangling gate used for decomposed gate counts.
CX = "cx"
#: Single-qubit gates (used by the end-to-end QAOA circuit builder).
H = "h"
RX = "rx"
RZ = "rz"
#: Single-qubit phase gate diag(1, e^{i*param}).
PHASE = "p"

OP_KINDS = frozenset({CPHASE, SWAP, CX, H, RX, RZ, PHASE})

#: Kinds that act on exactly two qubits.
TWO_QUBIT_KINDS = frozenset({CPHASE, SWAP, CX})
#: Two-qubit kinds that are symmetric under qubit exchange.
SYMMETRIC_KINDS = frozenset({CPHASE, SWAP})


class Op:
    """One scheduled operation on *physical* qubits.

    Parameters
    ----------
    kind:
        One of :data:`OP_KINDS`.
    qubits:
        Physical qubit indices.  Length 1 or 2 depending on the kind.
    param:
        Rotation angle for parameterised gates (``cphase``/``rx``/``rz``/``p``).
    tag:
        For ``cphase`` ops emitted by a compiler: the *logical* problem-graph
        edge ``(u, v)`` this gate implements.  Used by the validator to check
        that every problem edge is executed exactly once.
    """

    __slots__ = ("kind", "qubits", "param", "tag")

    def __init__(
        self,
        kind: str,
        qubits: Tuple[int, ...],
        param: Optional[float] = None,
        tag: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.kind = kind
        self.qubits = qubits
        self.param = param
        self.tag = tag

    # -- convenience constructors -------------------------------------------------

    @staticmethod
    def cphase(u: int, v: int, gamma: float = 0.0,
               tag: Optional[Tuple[int, int]] = None) -> "Op":
        """A problem gate between physical qubits ``u`` and ``v``."""
        return Op(CPHASE, (u, v), gamma, tag)

    @staticmethod
    def swap(u: int, v: int) -> "Op":
        """A routing SWAP between physical qubits."""
        return Op(SWAP, (u, v))

    @staticmethod
    def cx(control: int, target: int) -> "Op":
        """A CNOT with explicit control/target direction."""
        return Op(CX, (control, target))

    @staticmethod
    def h(q: int) -> "Op":
        """A Hadamard."""
        return Op(H, (q,))

    @staticmethod
    def rx(q: int, theta: float) -> "Op":
        """An X rotation by ``theta``."""
        return Op(RX, (q,), theta)

    @staticmethod
    def rz(q: int, theta: float) -> "Op":
        """A Z rotation by ``theta``."""
        return Op(RZ, (q,), theta)

    @staticmethod
    def phase(q: int, theta: float) -> "Op":
        """A phase gate diag(1, e^{i theta})."""
        return Op(PHASE, (q,), theta)

    # -- protocol -----------------------------------------------------------------

    @property
    def is_two_qubit(self) -> bool:
        """Whether the op acts on two qubits."""
        return self.kind in TWO_QUBIT_KINDS

    def sorted_qubits(self) -> Tuple[int, ...]:
        """Qubits in ascending order (canonical form for symmetric gates)."""
        return tuple(sorted(self.qubits))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Op):
            return NotImplemented
        if self.kind != other.kind or self.param != other.param:
            return False
        if self.kind in SYMMETRIC_KINDS:
            return self.sorted_qubits() == other.sorted_qubits()
        return self.qubits == other.qubits

    def __hash__(self) -> int:
        qubits = self.sorted_qubits() if self.kind in SYMMETRIC_KINDS else self.qubits
        return hash((self.kind, qubits, self.param))

    def __repr__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.param is not None:
            args += f", param={self.param:.4g}"
        if self.tag is not None:
            args += f", tag={self.tag}"
        return f"Op({self.kind}, {args})"


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """The canonical (sorted) form of an undirected qubit pair."""
    return (u, v) if u <= v else (v, u)


def canonical_edges(edges: Iterable[Tuple[int, int]]) -> frozenset:
    """Canonicalise an iterable of undirected edges into a frozenset."""
    return frozenset([(u, v) if u <= v else (v, u) for u, v in edges])
