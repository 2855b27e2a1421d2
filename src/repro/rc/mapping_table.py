"""The register mapping table (paper section 2.1).

Each of the ``m`` addressable register indices has a *read map* and a
*write map* entry naming the physical register to use when the index appears
as a source or destination operand.  The *home location* of index ``i`` is
physical register ``i`` (the core section is the first ``m`` physical
registers), so a table at home behaves exactly like the original
architecture — the basis of upward compatibility (section 4).

The same class is used by the simulator (as the hardware table) and by the
compiler's connect-insertion pass (as an emulation of the hardware table,
section 3), which guarantees the two never disagree about reset semantics.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.rc.models import DEFAULT_MODEL, RCModel, bind


class MappingTable:
    """An ``m``-entry register mapping table with read and write maps."""

    __slots__ = ("entries", "num_physical", "model", "read_map", "write_map",
                 "_on_write", "_on_read")

    def __init__(self, entries: int, num_physical: int,
                 model: RCModel = DEFAULT_MODEL) -> None:
        if num_physical < entries:
            raise SimulationError(
                f"physical file ({num_physical}) smaller than map ({entries})"
            )
        self.entries = entries
        self.num_physical = num_physical
        self.model = model
        self.read_map = list(range(entries))
        self.write_map = list(range(entries))
        # The model's moves over these two lists (always updated in place).
        self._on_write = bind(model.on_write, self.read_map, self.write_map)
        self._on_read = bind(model.on_read, self.read_map, self.write_map)

    # -- lookups -------------------------------------------------------------

    def read_target(self, index: int) -> int:
        """Physical register accessed when *index* is a source operand."""
        return self.read_map[index]

    def write_target(self, index: int) -> int:
        """Physical register accessed when *index* is a destination operand."""
        return self.write_map[index]

    def at_home(self, index: int) -> bool:
        return self.read_map[index] == index and self.write_map[index] == index

    # -- explicit connect instructions (section 2.2) --------------------------

    def _check(self, index: int, phys: int) -> None:
        if not 0 <= index < self.entries:
            raise SimulationError(f"connect index {index} out of range")
        if not 0 <= phys < self.num_physical:
            raise SimulationError(f"connect physical register {phys} out of range")

    def connect_use(self, index: int, phys: int) -> None:
        """Redirect subsequent reads of *index* to physical register *phys*."""
        self._check(index, phys)
        self.read_map[index] = phys

    def connect_def(self, index: int, phys: int) -> None:
        """Redirect subsequent writes of *index* to physical register *phys*."""
        self._check(index, phys)
        self.write_map[index] = phys

    def apply(self, which: str, index: int, phys: int) -> None:
        """Apply one decoded connect update ('read' or 'write')."""
        if which == "read":
            self.connect_use(index, phys)
        else:
            self.connect_def(index, phys)

    # -- automatic connection (section 2.3) ------------------------------------

    def after_write(self, index: int) -> None:
        """Apply the model's automatic reset after a write through *index*."""
        for dst, src in self._on_write:
            dst[index] = index if src is None else src[index]

    def after_read(self, index: int) -> None:
        """Apply the model's automatic reset after a read through *index*."""
        for dst, src in self._on_read:
            dst[index] = index if src is None else src[index]

    # -- whole-table operations ------------------------------------------------

    def reset_home(self) -> None:
        """Reset every entry to its home location.

        Performed at power-up and by ``jsr``/``rts`` (section 4.1) to
        guarantee upward compatibility across subroutine boundaries.
        """
        self.read_map[:] = range(self.entries)
        self.write_map[:] = range(self.entries)

    def snapshot(self) -> tuple[list[int], list[int]]:
        """Capture the connection information for a context switch."""
        return list(self.read_map), list(self.write_map)

    def restore(self, snapshot: tuple[list[int], list[int]]) -> None:
        read_map, write_map = snapshot
        if len(read_map) != self.entries or len(write_map) != self.entries:
            raise SimulationError("snapshot size does not match table")
        self.read_map[:] = read_map
        self.write_map[:] = write_map

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        diffs = [
            f"{i}:(r{self.read_map[i]},w{self.write_map[i]})"
            for i in range(self.entries)
            if not self.at_home(i)
        ]
        inner = " ".join(diffs) if diffs else "home"
        return f"<MappingTable {self.entries}/{self.num_physical} {inner}>"
