"""Epoch access profiles: what a workload did during one scan interval.

The epoch engine trades per-access fidelity for scale: instead of replaying
billions of references, a workload reports *how many accesses each 4KB page
received* during the interval.  That is exactly the information Thermostat's
monitoring can (partially) observe — Accessed bits are ``counts > 0``,
poison-fault counts are the counts themselves (capped by TLB residency for
hot pages) — so the policy code runs unmodified logic against these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.units import SUBPAGES_PER_HUGE_PAGE


@dataclass(frozen=True)
class EpochProfile:
    """Access counts for one epoch.

    ``counts[i]`` is the number of memory accesses (LLC-miss-grade, i.e.
    the accesses that would reach DRAM/slow memory) to 4KB page ``i``
    during the epoch.  The array length must be a whole number of huge
    pages — workloads pad their footprint up to a 2MB boundary.
    """

    start_time: float
    duration: float
    counts: np.ndarray
    #: Fraction of the accesses that are writes (used by wear accounting).
    write_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError(f"epoch duration must be positive: {self.duration}")
        if self.counts.ndim != 1:
            raise WorkloadError(f"counts must be 1-D, got shape {self.counts.shape}")
        if len(self.counts) % SUBPAGES_PER_HUGE_PAGE:
            raise WorkloadError(
                f"counts length {len(self.counts)} is not a whole number of "
                f"huge pages ({SUBPAGES_PER_HUGE_PAGE} subpages each)"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(
                f"write_fraction must be in [0, 1]: {self.write_fraction}"
            )

    @property
    def num_base_pages(self) -> int:
        return len(self.counts)

    @property
    def num_huge_pages(self) -> int:
        return len(self.counts) // SUBPAGES_PER_HUGE_PAGE

    def subpage_counts(self) -> np.ndarray:
        """Counts reshaped to (num_huge_pages, 512)."""
        return self.counts.reshape(self.num_huge_pages, SUBPAGES_PER_HUGE_PAGE)

    def subpage_rows(self, huge_page_ids: np.ndarray) -> np.ndarray:
        """Subpage counts of the requested huge pages, ``(len(ids), 512)``.

        The narrow accessor the policy hot path uses: a hierarchical
        profile resolves exactly these rows instead of materializing the
        whole footprint.
        """
        return self.subpage_counts()[huge_page_ids]

    def resolve(self, huge_page_ids: np.ndarray) -> None:
        """No-op: a dense profile already holds every subpage count."""

    def huge_counts(self) -> np.ndarray:
        """Per-huge-page aggregate access counts (cached after first call).

        The engine's stall charge, the correction mechanism, and the wear
        tracker all consume this reduction every epoch; computing it once
        per profile removes three full passes over the footprint.
        """
        cached = self.__dict__.get("_huge_counts")
        if cached is None:
            cached = self.subpage_counts().sum(axis=1)
            # Frozen dataclass: cache via __dict__ to skip __setattr__.
            self.__dict__["_huge_counts"] = cached
        return cached

    def total_accesses(self) -> int:
        """All accesses in the epoch."""
        return int(self.counts.sum())

    def accessed_mask(self) -> np.ndarray:
        """Per-4KB-page hardware-Accessed-bit equivalent (counts > 0)."""
        return self.counts > 0

    def huge_accessed_mask(self) -> np.ndarray:
        """Per-huge-page Accessed-bit equivalent (any subpage touched)."""
        return self.huge_counts() > 0


class HierarchicalEpochProfile:
    """An epoch profile generated top-down instead of bottom-up.

    The workload draws one Poisson total per *huge* page; exact subpage
    detail (a multinomial split of a page's total across its subpage
    rate weights, which by Poisson thinning is distributionally identical
    to independent per-subpage draws) is drawn only for the pages
    something actually reads — the ~5% split for monitoring this
    interval, resolved by :meth:`resolve` or on demand by
    :meth:`subpage_rows`.  Everything the engine and policy consume per
    epoch (per-huge-page totals, the monitored pages' subpage counts) is
    exact; only a consumer that demands the *dense* 4KB array sees an
    approximation for never-resolved pages (the page total spread
    deterministically across its subpages by rate weight).

    Resolution draws from dedicated ``resolvers`` — ``(first, end, rng)``
    page ranges, one per rendering workload — never from the stream that
    drew the totals, so which pages a policy splits cannot shift any later
    epoch's totals.

    Duck-types the :class:`EpochProfile` read API (``counts`` included,
    via lazy materialization) so every consumer keeps working.
    """

    def __init__(
        self,
        start_time: float,
        duration: float,
        huge_totals: np.ndarray,
        resolved_ids: np.ndarray | None = None,
        resolved_rows: np.ndarray | None = None,
        spread_weights: np.ndarray | None = None,
        write_fraction: float = 0.1,
        resolvers: list[tuple[int, int, np.random.Generator]] | None = None,
    ) -> None:
        if duration <= 0:
            raise WorkloadError(f"epoch duration must be positive: {duration}")
        if not 0.0 <= write_fraction <= 1.0:
            raise WorkloadError(
                f"write_fraction must be in [0, 1]: {write_fraction}"
            )
        huge_totals = np.asarray(huge_totals, dtype=np.int64)
        if resolved_ids is None:
            resolved_ids = np.empty(0, dtype=np.int64)
        if resolved_rows is None:
            resolved_rows = np.empty((0, SUBPAGES_PER_HUGE_PAGE), dtype=np.int64)
        resolved_ids = np.asarray(resolved_ids, dtype=np.int64)
        resolved_rows = np.asarray(resolved_rows, dtype=np.int64)
        if resolved_rows.shape != (resolved_ids.size, SUBPAGES_PER_HUGE_PAGE):
            raise WorkloadError(
                f"resolved rows shape {resolved_rows.shape} does not match "
                f"{resolved_ids.size} resolved ids x {SUBPAGES_PER_HUGE_PAGE}"
            )
        if resolved_ids.size and not np.array_equal(
            resolved_rows.sum(axis=1), huge_totals[resolved_ids]
        ):
            raise WorkloadError(
                "resolved subpage rows must sum to their huge-page totals"
            )
        self.start_time = start_time
        self.duration = duration
        self.write_fraction = write_fraction
        self._huge_totals = huge_totals
        self._spread_weights = spread_weights
        self._resolvers = list(resolvers or ())
        #: Row of each huge page in ``_rows``; -1 = not resolved yet.
        self._pos = np.full(huge_totals.size, -1, dtype=np.int64)
        self._pos[resolved_ids] = np.arange(resolved_ids.size)
        self._rows = resolved_rows
        self._dense: np.ndarray | None = None

    @classmethod
    def concatenate(
        cls, parts: list, write_fraction: float
    ) -> HierarchicalEpochProfile:
        """Stitch member profiles into one address space, in order.

        Each part keeps its own resolvers (shifted to its page range), so
        a member's subpage rows are drawn exactly as the member alone
        would draw them.  Dense parts enter fully resolved.
        """
        totals, weights, ids, rows, resolvers = [], [], [], [], []
        offset = 0
        for part in parts:
            if isinstance(part, cls):
                part_ids = part.resolved_ids
                part_rows = part._rows[part._pos[part_ids]]
                part_weights = part._weights()
                resolvers += [
                    (lo + offset, hi + offset, rng)
                    for lo, hi, rng in part._resolvers
                ]
            else:
                part_rows = part.subpage_counts()
                part_ids = np.arange(part.num_huge_pages)
                part_weights = part_rows
            totals.append(part.huge_counts())
            weights.append(part_weights)
            ids.append(part_ids + offset)
            rows.append(part_rows)
            offset += part.num_huge_pages
        return cls(
            start_time=parts[0].start_time,
            duration=parts[0].duration,
            huge_totals=np.concatenate(totals),
            resolved_ids=np.concatenate(ids),
            resolved_rows=np.concatenate(rows),
            spread_weights=np.concatenate(weights),
            write_fraction=write_fraction,
            resolvers=resolvers,
        )

    # -- EpochProfile read API -----------------------------------------

    @property
    def num_huge_pages(self) -> int:
        return int(self._huge_totals.size)

    @property
    def num_base_pages(self) -> int:
        return self.num_huge_pages * SUBPAGES_PER_HUGE_PAGE

    @property
    def resolved_ids(self) -> np.ndarray:
        """Huge pages whose subpage rows carry exact draws (ascending)."""
        return np.flatnonzero(self._pos >= 0)

    def huge_counts(self) -> np.ndarray:
        """Per-huge-page totals — exact by construction."""
        return self._huge_totals

    def huge_accessed_mask(self) -> np.ndarray:
        return self._huge_totals > 0

    def total_accesses(self) -> int:
        return int(self._huge_totals.sum())

    def resolve(self, huge_page_ids: np.ndarray) -> None:
        """Draw exact subpage rows for the pages not resolved yet.

        Pages are resolved in ascending id order, each from the resolver
        covering it; pages no resolver covers stay on the spread.
        """
        ids = np.unique(np.asarray(huge_page_ids, dtype=np.int64))
        missing = ids[self._pos[ids] < 0]
        if not missing.size:
            return
        weights = self._weights()
        for lo, hi, rng in self._resolvers:
            sel = missing[(missing >= lo) & (missing < hi)]
            if not sel.size:
                continue
            w = weights[sel]
            mass = w.sum(axis=1, keepdims=True)
            pvals = np.where(
                mass > 0,
                w / np.where(mass > 0, mass, 1.0),
                1.0 / SUBPAGES_PER_HUGE_PAGE,
            )
            drawn = rng.multinomial(self._huge_totals[sel], pvals)
            self._pos[sel] = self._rows.shape[0] + np.arange(sel.size)
            self._rows = np.concatenate([self._rows, drawn])
            self._dense = None

    def subpage_rows(self, huge_page_ids: np.ndarray) -> np.ndarray:
        """Subpage counts for the requested pages.

        Resolves any page not resolved yet, so every page a resolver
        covers returns an exact row; hand-built profiles without a
        resolver fall back to the deterministic spread.
        """
        huge_page_ids = np.asarray(huge_page_ids, dtype=np.int64)
        self.resolve(huge_page_ids)
        positions = self._pos[huge_page_ids]
        if np.all(positions >= 0):
            return self._rows[positions]
        return self.subpage_counts()[huge_page_ids]

    def subpage_counts(self) -> np.ndarray:
        return self._materialize().reshape(-1, SUBPAGES_PER_HUGE_PAGE)

    @property
    def counts(self) -> np.ndarray:
        """Dense 4KB-grain counts (lazy; unresolved pages approximate)."""
        return self._materialize()

    def accessed_mask(self) -> np.ndarray:
        return self._materialize() > 0

    def _weights(self) -> np.ndarray:
        """Per-subpage spread weights, ``(num_huge_pages, 512)``."""
        if self._spread_weights is None:
            return np.ones((self.num_huge_pages, SUBPAGES_PER_HUGE_PAGE))
        return np.asarray(self._spread_weights, dtype=float).reshape(
            self.num_huge_pages, SUBPAGES_PER_HUGE_PAGE
        )

    def _materialize(self) -> np.ndarray:
        """Build the dense array once: exact rows + weighted spread."""
        if self._dense is not None:
            return self._dense
        num_huge = self.num_huge_pages
        sub = SUBPAGES_PER_HUGE_PAGE
        weights = self._weights()
        row_mass = weights.sum(axis=1, keepdims=True)
        safe = np.where(row_mass > 0, row_mass, 1.0)
        # Rows with zero weight spread uniformly.
        fractions = np.where(row_mass > 0, weights / safe, 1.0 / sub)
        scaled = fractions * self._huge_totals.astype(float)[:, None]
        dense = np.floor(scaled).astype(np.int64)
        remainder = self._huge_totals - dense.sum(axis=1)
        # Park the rounding remainder on each row's heaviest subpage —
        # deterministic and total-preserving.
        top = np.argmax(fractions, axis=1)
        dense[np.arange(num_huge), top] += remainder
        resolved = self.resolved_ids
        dense[resolved] = self._rows[self._pos[resolved]]
        flat = dense.reshape(num_huge * sub)
        self._dense = flat
        return flat
