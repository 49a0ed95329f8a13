"""Database: a named collection of tables over one shared device.

Owning the device and buffer pool here guarantees that every access method
— baseline scans, index probes, cube block reads — meters I/O against the
same counters, which is what makes cross-method comparisons in the
benchmarks meaningful.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..storage.buffer import BufferPool
from ..storage.device import DEFAULT_PAGE_SIZE, BlockDevice, IOStats
from ..storage.faults import RetryPolicy
from .schema import Schema
from .table import Table, TableError


class Database:
    """A minimal catalog plus shared storage.

    Parameters
    ----------
    page_size:
        Page size of the underlying device (ignored when ``device`` is
        supplied).
    buffer_capacity:
        Frames in the shared buffer pool.  Benchmarks clear the pool between
        queries (cold cache) so capacity mostly bounds build-time memory.
    device:
        Bring-your-own device — e.g. a
        :class:`~repro.storage.faults.FaultyBlockDevice` for failure
        testing.  Anything with the :class:`BlockDevice` interface works.
    retry_policy:
        Retry contract handed to the buffer pool (``None`` = pool default).
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_capacity: int = 4096,
        device: BlockDevice | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.device = device if device is not None else BlockDevice(page_size=page_size)
        self.pool = BufferPool(
            self.device, capacity=buffer_capacity, retry_policy=retry_policy
        )
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: Schema) -> Table:
        if name in self._tables:
            raise TableError(f"table {name!r} already exists")
        table = Table(name, schema, self.pool)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"no table named {name!r}") from None

    def load_table(self, name: str, schema: Schema, rows: Iterable[Sequence]) -> Table:
        """Create a table and bulk load rows in one call."""
        table = self.create_table(name, schema)
        table.insert_rows(rows)
        return table

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    def io_snapshot(self) -> IOStats:
        return self.device.stats.snapshot()

    def io_since(self, snapshot: IOStats) -> IOStats:
        return self.device.stats.delta(snapshot)

    def cold_cache(self) -> None:
        """Flush and drop every buffered page (per-query cold start)."""
        self.pool.flush()
        self.pool.clear()
