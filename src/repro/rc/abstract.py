"""Abstract-interpretation domain for the register mapping table.

Mirrors :class:`~repro.rc.mapping_table.MappingTable` over sets: each map
entry abstracts to a *set* of ``(phys, site)`` pairs — every physical
register the entry may name on some path, tagged with the instruction index
of the connect that established it (``None`` for the home location and for
automatic model resets).  The transfer functions (``after_write``,
``after_read``) apply the model's moves (:mod:`repro.rc.models`) to the
abstract entries, and ``join`` is set union over paths.

The site tags exist so the static checker can tell which connect
instructions are ever *used* by a resolved access (dead-connect detection,
rule RC003) without a separate reaching-definitions pass.
"""

from __future__ import annotations

from repro.rc.models import RCModel, bind

#: One abstract map entry: every (phys, connect-site) the entry may hold.
Entry = frozenset[tuple[int, int | None]]


def home(index: int) -> Entry:
    return frozenset({(index, None)})


class AbstractMap:
    """Abstract read/write maps for one register class.

    Entries are stored sparsely: an index absent from the dict is at its
    home location on every path.
    """

    __slots__ = ("entries", "model", "read", "write", "_on_write", "_on_read")

    def __init__(self, entries: int, model: RCModel,
                 read: dict[int, Entry] | None = None,
                 write: dict[int, Entry] | None = None) -> None:
        self.entries = entries
        self.model = model
        self.read: dict[int, Entry] = read if read is not None else {}
        self.write: dict[int, Entry] = write if write is not None else {}
        self._on_write = bind(model.on_write, self.read, self.write)
        self._on_read = bind(model.on_read, self.read, self.write)

    # -- lookups -------------------------------------------------------------

    def read_entry(self, index: int) -> Entry:
        return self.read.get(index, home(index))

    def write_entry(self, index: int) -> Entry:
        return self.write.get(index, home(index))

    def _set(self, which: dict[int, Entry], index: int, value: Entry) -> None:
        if value == home(index):
            which.pop(index, None)
        else:
            which[index] = value

    # -- connect instructions ------------------------------------------------

    def connect(self, which: str, index: int, phys: int,
                site: int | None) -> None:
        """Apply one decoded connect update ('read' or 'write')."""
        target = self.read if which == "read" else self.write
        self._set(target, index, frozenset({(phys, site)}))

    # -- automatic resets (paper section 2.3) --------------------------------

    def _move(self, moves, index: int) -> None:
        for dst, src in moves:
            if src is None:
                dst.pop(index, None)
            else:
                self._set(dst, index, src.get(index, home(index)))

    def after_write(self, index: int) -> None:
        self._move(self._on_write, index)

    def after_read(self, index: int) -> None:
        self._move(self._on_read, index)

    def reset_home(self) -> None:
        """CALL/RET semantics (section 4.1): every entry back to home."""
        self.read.clear()
        self.write.clear()

    # -- lattice operations --------------------------------------------------

    def copy(self) -> "AbstractMap":
        return AbstractMap(self.entries, self.model,
                           read=dict(self.read), write=dict(self.write))

    def join(self, other: "AbstractMap") -> "AbstractMap":
        """Union each entry's possibilities (may-analysis path merge)."""
        for which, theirs in ((self.read, other.read),
                              (self.write, other.write)):
            for index in set(which) | set(theirs):
                a = which.get(index, home(index))
                b = theirs.get(index, home(index))
                self._set(which, index, a | b)
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractMap):
            return NotImplemented
        return (self.entries == other.entries and self.model is other.model
                and self.read == other.read and self.write == other.write)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        def show(which: dict[int, Entry]) -> str:
            parts = []
            for i in sorted(which):
                alts = "|".join(f"p{p}" for p, _ in sorted(
                    which[i], key=lambda e: e[0]))
                parts.append(f"{i}->{alts}")
            return " ".join(parts) or "home"

        return f"<AbstractMap r[{show(self.read)}] w[{show(self.write)}]>"
