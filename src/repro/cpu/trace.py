"""Instruction-trace representation and streaming cursor.

A :class:`Trace` stores a fixed-length µop sequence in parallel NumPy arrays
(struct-of-arrays, for compact storage and fast generation).  The simulator
consumes traces through a :class:`TraceCursor`, which replays the sequence
cyclically — matching the paper's sampling methodology, where each simulation
sample observes a short region of a much longer execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cpu.isa import OpClass

__all__ = ["Trace", "TraceCursor"]

_COLUMNS = ("op", "dep1", "dep2", "pc", "addr", "taken", "target", "sid")


@dataclass(frozen=True)
class Trace:
    """A µop stream in struct-of-arrays form.

    Attributes
    ----------
    name:
        Workload name (for reporting).
    op:
        ``uint8`` array of :class:`OpClass` values.
    dep1, dep2:
        Register-dependency distances: µop ``i`` reads the results of µops
        ``i - dep1[i]`` and ``i - dep2[i]``; ``0`` means no dependency.
    pc:
        Instruction program counter (byte address).
    addr:
        Effective byte address for loads/stores, ``0`` otherwise.
    taken:
        Branch outcome (``True`` = taken); meaningful only for branches.
    target:
        Branch target PC; meaningful only for branches.
    sid:
        Stream id for strided memory accesses (``0`` = not part of a stream).
        Stands in for the static instruction identity a PC-indexed stride
        prefetcher would key on (the synthetic trace assigns op classes
        dynamically, so PCs alone cannot carry that correlation).
    """

    name: str
    op: np.ndarray
    dep1: np.ndarray
    dep2: np.ndarray
    pc: np.ndarray
    addr: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    sid: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.op)
        for field_name in ("dep1", "dep2", "pc", "addr", "taken", "target", "sid"):
            arr = getattr(self, field_name)
            if len(arr) != n:
                raise ValueError(
                    f"trace column {field_name!r} has length {len(arr)}, expected {n}"
                )
        if n == 0:
            raise ValueError("trace must contain at least one µop")

    def __len__(self) -> int:
        return len(self.op)

    @property
    def mix(self) -> dict[OpClass, float]:
        """Fraction of µops in each operation class."""
        counts = np.bincount(self.op, minlength=len(OpClass))
        total = float(len(self.op))
        return {cls: counts[cls] / total for cls in OpClass}

    def validate(self) -> None:
        """Check structural invariants (dependencies in range, ops valid)."""
        n = len(self)
        idx = np.arange(n)
        if np.any(self.dep1 > idx) or np.any(self.dep2 > idx):
            raise ValueError("a dependency distance reaches before the trace start")
        if np.any(self.dep1 < 0) or np.any(self.dep2 < 0):
            raise ValueError("dependency distances must be non-negative")
        if np.any(self.op >= len(OpClass)):
            raise ValueError("invalid op class in trace")
        is_mem = (self.op == OpClass.LOAD) | (self.op == OpClass.STORE)
        if np.any(self.addr[~is_mem] != 0):
            raise ValueError("non-memory µops must carry addr == 0")
        if np.any(self.sid[~is_mem] != 0):
            raise ValueError("non-memory µops must carry sid == 0")
        if np.any(self.sid < 0):
            raise ValueError("stream ids must be non-negative")

    # ------------------------------------------------------------------
    # Serialization (compressed .npz)
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the trace as a compressed ``.npz`` archive."""
        columns = {name: getattr(self, name) for name in _COLUMNS}
        np.savez_compressed(Path(path), name=np.array(self.name), **columns)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a trace previously written by :meth:`save` (validated)."""
        with np.load(Path(path), allow_pickle=False) as data:
            trace = cls(
                name=str(data["name"]),
                **{column: data[column] for column in _COLUMNS},
            )
        trace.validate()
        return trace


#: µops a cursor decodes per refill (and past its start): the decoded lists
#: overshoot what the core reads by less than one chunk.
CHUNK = 4096


class TraceCursor:
    """Cyclic reader over a :class:`Trace`.

    Exposes the trace columns as plain Python lists (attribute access on
    NumPy scalars is an order of magnitude slower in the simulator's
    per-µop hot loop), plus ``fb``, each µop's fetch block ``pc >> 6``.

    The lists hold a decoded *prefix* of the trace, ``decoded`` µops long,
    and the invariant is that ``index`` is always decoded: :meth:`advance`
    refills when the index reaches the decoded end, and wraps to 0 at
    ``length`` once everything is decoded.  Refills extend the lists in
    place by :data:`CHUNK` µops, so references a hot loop holds stay
    valid; a sample typically reads a fifth of its trace and never decodes
    the rest.
    """

    def __init__(self, trace: Trace, start: int = 0):
        self.trace = trace
        self.length = len(trace)
        self.index = start % self.length
        self.consumed = 0
        self.op: list[int] = []
        self.dep1: list[int] = []
        self.dep2: list[int] = []
        self.pc: list[int] = []
        self.addr: list[int] = []
        self.taken: list[bool] = []
        self.target: list[int] = []
        self.sid: list[int] = []
        self.fb: list[int] = []
        self.decoded = 0
        self._decode(self.index + CHUNK)

    def _decode(self, end: int) -> None:
        start = self.decoded
        end = min(end, self.length)
        trace = self.trace
        for name in _COLUMNS:
            getattr(self, name).extend(getattr(trace, name)[start:end].tolist())
        self.fb.extend((trace.pc[start:end] >> 6).tolist())
        self.decoded = end

    def refill(self) -> int:
        """Decode the next chunk (up to ``length``); returns the new end."""
        self._decode(self.decoded + CHUNK)
        return self.decoded

    def peek(self) -> int:
        """Index of the next µop to be consumed."""
        return self.index

    def advance(self) -> int:
        """Consume one µop, returning its index within the trace."""
        i = self.index
        nxt = i + 1
        if nxt == self.decoded:
            if nxt == self.length:
                nxt = 0
            else:
                self.refill()
        self.index = nxt
        self.consumed += 1
        return i
