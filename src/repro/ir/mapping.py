"""Bidirectional logical<->physical qubit mapping.

A mapping is a bijection between logical qubits (problem-graph vertices) and
physical qubits (architecture nodes).  Architectures may have more physical
qubits than the problem has logical qubits; unused physical qubits map to
``None`` on the logical side but still participate in SWAPs (moving an idle
qubit is allowed and common in the structured patterns).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class Mapping:
    """Mutable logical-to-physical qubit assignment.

    ``log_to_phys[l]`` is the physical home of logical qubit ``l``;
    ``phys_to_log[p]`` is the logical occupant of physical qubit ``p`` (or
    ``None`` for a spare qubit).
    """

    __slots__ = ("log_to_phys", "phys_to_log")

    def __init__(self, log_to_phys: Sequence[int], n_physical: int) -> None:
        if len(set(log_to_phys)) != len(log_to_phys):
            raise ValueError("initial mapping is not injective")
        self.log_to_phys: List[int] = list(log_to_phys)
        self.phys_to_log: List[Optional[int]] = [None] * n_physical
        for logical, physical in enumerate(log_to_phys):
            if not 0 <= physical < n_physical:
                raise ValueError(
                    f"physical qubit {physical} out of range 0..{n_physical - 1}")
            self.phys_to_log[physical] = logical

    @classmethod
    def trivial(cls, n_logical: int, n_physical: Optional[int] = None) -> "Mapping":
        """Identity placement: logical ``i`` on physical ``i``."""
        if n_physical is None:
            n_physical = n_logical
        if n_physical < n_logical:
            raise ValueError("not enough physical qubits")
        return cls(list(range(n_logical)), n_physical)

    @property
    def n_logical(self) -> int:
        return len(self.log_to_phys)

    @property
    def n_physical(self) -> int:
        return len(self.phys_to_log)

    def copy(self) -> "Mapping":
        clone = Mapping.__new__(Mapping)
        clone.log_to_phys = list(self.log_to_phys)
        clone.phys_to_log = list(self.phys_to_log)
        return clone

    def physical(self, logical: int) -> int:
        return self.log_to_phys[logical]

    def logical(self, physical: int) -> Optional[int]:
        return self.phys_to_log[physical]

    def swap_physical(self, u: int, v: int) -> None:
        """Apply a SWAP gate on physical qubits ``u`` and ``v``."""
        lu, lv = self.phys_to_log[u], self.phys_to_log[v]
        self.phys_to_log[u], self.phys_to_log[v] = lv, lu
        if lu is not None:
            self.log_to_phys[lu] = v
        if lv is not None:
            self.log_to_phys[lv] = u

    def as_tuple(self) -> tuple:
        """Hashable snapshot of the physical occupancy (for solver states)."""
        return tuple(self.phys_to_log)

    def to_dict(self) -> Dict[int, int]:
        return dict(enumerate(self.log_to_phys))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (self.log_to_phys == other.log_to_phys
                and self.phys_to_log == other.phys_to_log)

    def __repr__(self) -> str:
        return f"Mapping(log_to_phys={self.log_to_phys})"
