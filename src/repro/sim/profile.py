"""Epoch access profiles: what a workload did during one scan interval.

The epoch engine trades per-access fidelity for scale: instead of replaying
billions of references, a workload reports *how many accesses each page
received* during the interval.  That is exactly the information Thermostat's
monitoring can (partially) observe — Accessed bits are ``counts > 0``,
poison-fault counts are the counts themselves (capped by TLB residency for
hot pages) — so the policy code runs unmodified logic against these arrays.

Thermostat needs 4KB detail only for the few huge pages it splits each
interval, so a profile is held per 2MB page: one exact total per huge page,
plus exact subpage rows for the pages resolved so far and resolvers that
draw the rows of the rest on demand.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.units import SUBPAGES_PER_HUGE_PAGE

#: ``(first, end, rng, weights)``: draws the subpage rows of huge pages
#: ``[first, end)`` from ``rng``, splitting each page's total across its
#: row of ``weights`` (``(end - first, 512)`` subpage rate weights).
Resolver = tuple[int, int, np.random.Generator, np.ndarray]


class EpochProfile:
    """Access counts for one epoch.

    ``huge_counts()[i]`` is the number of memory accesses (LLC-miss-grade,
    i.e. the accesses that would reach DRAM/slow memory) to huge page
    ``i`` during the epoch.  ``subpage_rows(ids)`` splits those totals
    across the pages' 512 4KB subpages.

    ``EpochProfile(start_time, duration, counts)`` builds the dense case
    from per-4KB ``counts`` (a whole number of huge pages — workloads pad
    their footprint up to a 2MB boundary): every page is resolved.
    :meth:`from_totals` builds the drawn case, where a page's row is a
    multinomial split of its total across its subpage rate weights — by
    Poisson thinning distributionally identical to independent
    per-subpage draws — drawn only when something reads it.  Resolution
    draws from the resolvers' own streams, never from the stream that drew
    the totals, so which pages a policy splits cannot shift any later
    epoch's totals.
    """

    def __init__(
        self,
        start_time: float,
        duration: float,
        counts: np.ndarray,
        write_fraction: float = 0.1,
    ) -> None:
        counts = np.asarray(counts)
        if counts.ndim != 1:
            raise WorkloadError(f"counts must be 1-D, got shape {counts.shape}")
        if counts.size % SUBPAGES_PER_HUGE_PAGE:
            raise WorkloadError(
                f"counts length {counts.size} is not a whole number of "
                f"huge pages ({SUBPAGES_PER_HUGE_PAGE} subpages each)"
            )
        rows = counts.reshape(-1, SUBPAGES_PER_HUGE_PAGE)
        self._set(
            start_time,
            duration,
            write_fraction,
            totals=rows.sum(axis=1),
            pos=np.arange(rows.shape[0]),
            rows=rows,
            resolvers=[],
        )

    @classmethod
    def from_totals(
        cls,
        start_time: float,
        duration: float,
        huge_totals: np.ndarray,
        resolvers: list[Resolver],
        resolved_ids: np.ndarray | None = None,
        resolved_rows: np.ndarray | None = None,
        write_fraction: float = 0.1,
    ) -> EpochProfile:
        """A drawn profile: exact per-2MB totals, rows resolved on demand.

        Every page without a row in ``resolved_rows`` must be covered by
        one of the ``resolvers``.
        """
        totals = np.asarray(huge_totals, dtype=np.int64)
        if resolved_ids is None:
            resolved_ids = np.empty(0, dtype=np.int64)
        if resolved_rows is None:
            resolved_rows = np.empty((0, SUBPAGES_PER_HUGE_PAGE), dtype=np.int64)
        ids = np.asarray(resolved_ids, dtype=np.int64)
        rows = np.asarray(resolved_rows, dtype=np.int64)
        if rows.shape != (ids.size, SUBPAGES_PER_HUGE_PAGE):
            raise WorkloadError(
                f"resolved rows shape {rows.shape} does not match "
                f"{ids.size} resolved ids x {SUBPAGES_PER_HUGE_PAGE}"
            )
        if ids.size and not np.array_equal(rows.sum(axis=1), totals[ids]):
            raise WorkloadError(
                "resolved subpage rows must sum to their huge-page totals"
            )
        pos = np.full(totals.size, -1, dtype=np.int64)
        pos[ids] = np.arange(ids.size)
        covered = pos >= 0
        for first, end, _, weights in resolvers:
            if weights.shape != (end - first, SUBPAGES_PER_HUGE_PAGE):
                raise WorkloadError(
                    f"resolver weights shape {weights.shape} does not match "
                    f"pages [{first}, {end})"
                )
            covered[first:end] = True
        if not covered.all():
            raise WorkloadError(
                f"{int((~covered).sum())} unresolved huge pages have no resolver"
            )
        profile = cls.__new__(cls)
        profile._set(
            start_time, duration, write_fraction, totals, pos, rows, list(resolvers)
        )
        return profile

    @classmethod
    def concatenate(
        cls, parts: list[EpochProfile], write_fraction: float
    ) -> EpochProfile:
        """Stitch member profiles into one address space, in order.

        Each part keeps its own resolvers (shifted to its page range), so
        a member's subpage rows are drawn exactly as the member alone
        would draw them.
        """
        totals, pos, rows, resolvers = [], [], [], []
        pages = stored = 0
        for part in parts:
            totals.append(part._totals)
            pos.append(np.where(part._pos >= 0, part._pos + stored, -1))
            rows.append(part._rows)
            resolvers += [
                (first + pages, end + pages, rng, weights)
                for first, end, rng, weights in part._resolvers
            ]
            pages += part.num_huge_pages
            stored += part._rows.shape[0]
        profile = cls.__new__(cls)
        profile._set(
            parts[0].start_time,
            parts[0].duration,
            write_fraction,
            np.concatenate(totals),
            np.concatenate(pos),
            np.concatenate(rows),
            resolvers,
        )
        return profile

    def _set(
        self,
        start_time: float,
        duration: float,
        write_fraction: float,
        totals: np.ndarray,
        pos: np.ndarray,
        rows: np.ndarray,
        resolvers: list[Resolver],
    ) -> None:
        if duration <= 0:
            raise WorkloadError(f"epoch duration must be positive: {duration}")
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError(
                f"write_fraction must be in [0, 1]: {write_fraction}"
            )
        self.start_time = start_time
        self.duration = duration
        #: Fraction of the accesses that are writes (used by wear accounting).
        self.write_fraction = write_fraction
        self._totals = totals
        #: Row of each huge page in ``_rows``; -1 = not resolved yet.
        self._pos = pos
        self._rows = rows
        self._resolvers = resolvers

    def _derive(
        self, totals: np.ndarray, pos: np.ndarray, rows: np.ndarray
    ) -> EpochProfile:
        """A profile of the same epoch and resolvers over new totals/rows."""
        profile = type(self).__new__(type(self))
        profile._set(
            self.start_time,
            self.duration,
            self.write_fraction,
            totals,
            pos,
            rows,
            self._resolvers,
        )
        return profile

    # -- per-2MB views ---------------------------------------------------

    def zeroed(self, huge_page_ids: np.ndarray) -> EpochProfile:
        """A copy with every access to the given huge pages removed.

        Their totals and subpage rows are zero; the rest of the profile,
        resolvers included, is shared.
        """
        ids = np.unique(np.asarray(huge_page_ids, dtype=np.int64))
        totals = self._totals.copy()
        totals[ids] = 0
        pos = self._pos.copy()
        fresh = ids[pos[ids] < 0]
        pos[fresh] = self._rows.shape[0] + np.arange(fresh.size)
        rows = np.concatenate(
            [self._rows, np.empty((fresh.size, SUBPAGES_PER_HUGE_PAGE), np.int64)]
        )
        rows[pos[ids]] = 0
        return self._derive(totals, pos, rows)

    def scaled(self, factor: float) -> EpochProfile:
        """A copy with every count multiplied by ``factor`` and rounded.

        Resolved rows are scaled per subpage and their totals re-summed;
        unresolved pages scale their 2MB total, and later resolve it from
        the shared resolvers.
        """
        rows = np.rint(self._rows * factor).astype(np.int64)
        totals = np.rint(self._totals * factor).astype(np.int64)
        resolved = self.resolved_ids
        totals[resolved] = rows.sum(axis=1)[self._pos[resolved]]
        return self._derive(totals, self._pos.copy(), rows)

    # -- read API --------------------------------------------------------

    @property
    def num_huge_pages(self) -> int:
        return int(self._totals.size)

    @property
    def num_base_pages(self) -> int:
        return self.num_huge_pages * SUBPAGES_PER_HUGE_PAGE

    @property
    def resolved_ids(self) -> np.ndarray:
        """Huge pages whose subpage rows are held (ascending)."""
        return np.flatnonzero(self._pos >= 0)

    def huge_counts(self) -> np.ndarray:
        """Per-huge-page access totals."""
        return self._totals

    def huge_accessed_mask(self) -> np.ndarray:
        """Per-huge-page Accessed-bit equivalent (any subpage touched)."""
        return self._totals > 0

    def resolve(self, huge_page_ids: np.ndarray) -> None:
        """Draw exact subpage rows for the pages not resolved yet.

        Pages are resolved in ascending id order, each from the resolver
        covering it.
        """
        ids = np.unique(np.asarray(huge_page_ids, dtype=np.int64))
        missing = ids[self._pos[ids] < 0]
        if not missing.size:
            return
        for first, end, rng, weights in self._resolvers:
            sel = missing[(missing >= first) & (missing < end)]
            if not sel.size:
                continue
            w = weights[sel - first]
            mass = w.sum(axis=1, keepdims=True)
            pvals = np.where(
                mass > 0,
                w / np.where(mass > 0, mass, 1.0),
                1.0 / SUBPAGES_PER_HUGE_PAGE,
            )
            drawn = rng.multinomial(self._totals[sel], pvals)
            self._pos[sel] = self._rows.shape[0] + np.arange(sel.size)
            self._rows = np.concatenate([self._rows, drawn])

    def subpage_rows(self, huge_page_ids: np.ndarray) -> np.ndarray:
        """Subpage counts of the requested huge pages, ``(len(ids), 512)``.

        The narrow accessor the policy hot path uses: only the requested
        pages are resolved, never the whole footprint.
        """
        huge_page_ids = np.asarray(huge_page_ids, dtype=np.int64)
        self.resolve(huge_page_ids)
        return self._rows[self._pos[huge_page_ids]]

    @property
    def counts(self) -> np.ndarray:
        """Per-4KB counts of the whole footprint (resolves every page)."""
        return self.subpage_rows(np.arange(self.num_huge_pages)).reshape(-1)
