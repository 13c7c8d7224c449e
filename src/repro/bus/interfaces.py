"""Bus interfaces, mirroring the paper's SystemC listings.

The paper's slave interface (Section 5.2)::

    class bus_slv_if : public virtual sc_interface {
    public:
        virtual sc_uint<ADDW> get_low_add()=0;
        virtual sc_uint<ADDW> get_high_add()=0;
        virtual bool read(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
        virtual bool write(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
    };

Our :class:`BusSlaveIf` is the direct analogue.  ``read``/``write`` are
*generator methods* (invoked with ``yield from``) because a slave may
consume simulated time before completing — this is exactly the hook the
DRCF uses to suspend a call while a context switch is in progress
(Section 5.3, step 4).  Burst variants carry ``count`` words per call.

The address-range methods ``get_low_add``/``get_high_add`` are required on
every slave; the paper makes the same requirement (Section 5.4,
limitation 2) because the DRCF transformation uses them to build its
internal routing multiplexer.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Union

from ..kernel import Interface


class BusSlaveIf(Interface):
    """Interface implemented by every bus slave (and by the DRCF)."""

    @abc.abstractmethod
    def get_low_add(self) -> int:
        """Lowest address (inclusive) decoded by this slave."""

    @abc.abstractmethod
    def get_high_add(self) -> int:
        """Highest address (inclusive) decoded by this slave."""

    @abc.abstractmethod
    def read(self, addr: int, count: int = 1):
        """Blocking burst read (generator). Returns a list of ``count`` words."""

    @abc.abstractmethod
    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Blocking burst write (generator). Returns True on success."""

    def read_timing(self, addr: int, count: int = 1):
        """Burst read that pays :meth:`read`'s cost but returns no words (generator).

        Callers that need only the timing and side effects of a read (a
        configuration fetch nobody checks) use this.  The default performs
        :meth:`read` and drops the words; slaves that can skip building
        them (:class:`~repro.bus.memory.Memory`) override it.
        """
        yield from self.read(addr, count)


class BusMasterIf(Interface):
    """Interface a bus presents to its masters.

    Masters call through their ``mst_port``::

        data = yield from self.mst_port.read(addr, count, master=self.full_name)
    """

    @abc.abstractmethod
    def read(
        self, addr: int, count: int = 1, master: str = "?", tags: Sequence[str] = ()
    ):
        """Arbitrate, decode and perform a burst read (generator)."""

    @abc.abstractmethod
    def write(
        self,
        addr: int,
        data: Union[int, Sequence[int]],
        master: str = "?",
        tags: Sequence[str] = (),
    ):
        """Arbitrate, decode and perform a burst write (generator)."""

    @abc.abstractmethod
    def read_train(
        self,
        addr: int,
        n_words: int,
        burst_words: int,
        master: str = "?",
        tags: Sequence[str] = (),
        *,
        word_bytes: int = 4,
        content: bool = True,
    ):
        """Read ``n_words`` from ``addr`` as back-to-back bursts (generator).

        Bursts carry at most ``burst_words`` words each and advance the
        address by ``word_bytes`` per word.  Returns the words in order, or
        None when ``content`` is false: the caller then wants only the
        train's timing and traffic.
        """


class InterruptIf(Interface):
    """Interface for a one-line interrupt sink (used by accelerators)."""

    @abc.abstractmethod
    def raise_irq(self, source: str) -> None:
        """Signal completion to the sink."""


def normalize_write_data(data: Union[int, Sequence[int]]) -> List[int]:
    """Coerce scalar-or-sequence write payloads into a word list."""
    if isinstance(data, int):
        return [data]
    return list(data)


def check_range(name: str, low: int, high: int) -> None:
    """Validate a slave's advertised address range."""
    if low < 0 or high < low:
        raise ValueError(f"slave {name}: invalid address range [{low:#x}, {high:#x}]")
