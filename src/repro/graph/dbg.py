"""The De Bruijn graph store: canonical vertices with weighted adjacency.

Definition 3 of the paper: the construction outputs, for every distinct
vertex, an adjacency list in which each adjacent vertex carries a weight
equal to the number of occurrences of the pair.  A vertex is a
*canonical* kmer (the lexicographic minimum of a kmer and its reverse
complement), so the graph is bi-directed.

Because two adjacent vertices overlap in K-1 bases, an edge is fully
identified by a single base — "the rightmost or leftmost character on
the destination vertex ... is used as the array index" (§III-C2).  Each
vertex therefore stores exactly **eight edge-multiplicity counters**
plus its own occurrence count:

====== =========================================================
slot   meaning (relative to the canonical-forward orientation)
====== =========================================================
0..3   ``out[b]`` — successor reached by appending base ``b``
4..7   ``in[b]``  — predecessor formed by prepending base ``b``
8      multiplicity of the vertex itself (kmer occurrence count)
====== =========================================================

The store is a ``(W, n)`` uint64 key-plane array (one plane for
``k`` in 1..31, two for 33..63; see :func:`repro.dna.kmer.key_width`)
and a parallel ``uint32`` counter matrix, sorted by vertex, which makes
graphs directly comparable, mergeable and binary-searchable at every k.
The counters have one dtype from Step 2's rows to the graph file, the
same as the hash table's: a count that does not fit raises
:class:`OverflowError` instead of wrapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dna.kmer import (
    as_planes,
    canonical_int,
    join_planes,
    key_width,
    kmer_mask,
    kmer_to_str,
    less_planes,
    planes_to_ints,
    split_int,
    take_planes,
)

#: Number of counters per vertex: 4 out-edges, 4 in-edges, multiplicity.
N_SLOTS = 9
OUT_BASE = 0
IN_BASE = 4
MULT_SLOT = 8
#: The one counter dtype of tables, subgraphs, graphs and graph files.
COUNT_DTYPE = np.dtype(np.uint32)
COUNT_MAX = int(np.iinfo(COUNT_DTYPE).max)


def as_counts(values: np.ndarray) -> np.ndarray:
    """``values`` as :data:`COUNT_DTYPE` counters, checked before the cast.

    Returns a counter array as it is; any other integer array is
    converted once.  Raises :class:`OverflowError` when a value lies
    outside ``[0, COUNT_MAX]``, so a count never wraps.
    """
    values = np.asarray(values)
    if values.dtype == COUNT_DTYPE or not values.size:
        return values.astype(COUNT_DTYPE, copy=False)
    if values.dtype.kind == "i":
        # A negative value reads as a huge unsigned one: one pass
        # checks both ends of the range.
        bad = values.view(f"u{values.itemsize}").max() > COUNT_MAX
    else:
        bad = values.max() > COUNT_MAX or (values.dtype.kind != "u"
                                           and values.min() < 0)
    if bad:
        raise OverflowError(
            f"a counter does not fit the {COUNT_DTYPE} range [0, {COUNT_MAX}]"
        )
    return values.astype(COUNT_DTYPE)


def slot_for_successor(flipped: np.ndarray, next_base: np.ndarray) -> np.ndarray:
    """Counter slot for an observed successor edge.

    ``flipped`` marks kmer instances whose canonical form is the reverse
    complement of the read orientation; for those, a right extension in
    the read is a left extension of the canonical form with the
    complemented base.
    """
    next_base = np.asarray(next_base)
    flipped = np.asarray(flipped)
    return np.where(flipped, IN_BASE + (3 - next_base), OUT_BASE + next_base)


def slot_for_predecessor(flipped: np.ndarray, prev_base: np.ndarray) -> np.ndarray:
    """Counter slot for an observed predecessor edge (mirror of successor)."""
    prev_base = np.asarray(prev_base)
    flipped = np.asarray(flipped)
    return np.where(flipped, OUT_BASE + (3 - prev_base), IN_BASE + prev_base)


@dataclass(init=False, repr=False, eq=False)
class DeBruijnGraph:
    """A constructed De Bruijn (sub)graph, for any k.

    Attributes
    ----------
    k:
        Kmer length of the vertices.
    planes:
        ``(W, n_vertices)`` uint64 key planes of the distinct canonical
        kmers (:func:`repro.dna.kmer.key_width`), strictly ascending.
        ``vertices`` is its one plane at W = 1 and ``vertices_hi`` /
        ``vertices_lo`` its two at W = 2; each is absent at the other
        width.
    counts:
        ``(n_vertices, 9)`` uint32 counter matrix (see module docstring).
        Counts given in another integer dtype are converted once; one
        past the uint32 maximum raises :class:`OverflowError`.

    The keys are passed as ``vertices`` (a 1-D array of one-word keys
    or the ``(W, n)`` plane array) or, as ``dataclasses.replace`` does,
    as ``planes``.
    """

    k: int
    planes: np.ndarray
    counts: np.ndarray

    def __init__(self, k: int, vertices: np.ndarray | None = None,
                 counts: np.ndarray | None = None, *,
                 planes: np.ndarray | None = None) -> None:
        if (vertices is None) == (planes is None) or counts is None:
            raise TypeError("DeBruijnGraph needs k, counts and one of "
                            "vertices or planes")
        self.k = k
        self.planes = as_planes(planes if vertices is None else vertices, k)
        self.counts = as_counts(counts)
        n = self.planes.shape[1]
        if self.counts.shape != (n, N_SLOTS):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match ({n}, {N_SLOTS})"
            )
        if n > 1 and not less_planes(self.planes[:, :-1], self.planes[:, 1:]).all():
            raise ValueError("vertices must be strictly sorted")

    def __repr__(self) -> str:
        return f"DeBruijnGraph(k={self.k}, n_vertices={self.n_vertices})"

    # -- plane views ----------------------------------------------------------

    def _plane(self, width: int, j: int, name: str) -> np.ndarray:
        if self.planes.shape[0] != width:
            raise AttributeError(
                f"{name} exists for {width}-word keys; k={self.k} has "
                f"{self.planes.shape[0]}"
            )
        return self.planes[j]

    @property
    def vertices(self) -> np.ndarray:
        """Sorted uint64 vertices (one-word keys only)."""
        return self._plane(1, 0, "vertices")

    @property
    def vertices_hi(self) -> np.ndarray:
        """Leading plane of two-word keys."""
        return self._plane(2, 0, "vertices_hi")

    @property
    def vertices_lo(self) -> np.ndarray:
        """Trailing 32-base plane of two-word keys."""
        return self._plane(2, 1, "vertices_lo")

    def vertex_int(self, i: int) -> int:
        """Vertex row ``i`` as a Python-int kmer."""
        return join_planes(*self.planes[:, i].tolist())

    def vertex_ints(self) -> list[int]:
        """Every vertex as a Python-int kmer, in row order."""
        return planes_to_ints(self.planes)

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of distinct vertices (the paper's graph-size metric)."""
        return int(self.planes.shape[1])

    def total_kmer_instances(self) -> int:
        """Total kmer occurrences absorbed (distinct + duplicates)."""
        return int(self.counts[:, MULT_SLOT].sum())

    def n_duplicate_vertices(self) -> int:
        """Occurrences beyond the first per vertex (Table I's duplicates)."""
        return self.total_kmer_instances() - self.n_vertices

    def total_edge_weight(self) -> int:
        """Sum of all edge multiplicities over all adjacency lists.

        Every observed adjacent pair contributes one unit at *each*
        endpoint, so this equals twice the number of observed pairs.
        """
        return int(self.counts[:, OUT_BASE:MULT_SLOT].sum())

    def __len__(self) -> int:
        return self.n_vertices

    def __contains__(self, kmer: int) -> bool:
        return self.index_of(int(kmer)) >= 0

    def index_of(self, kmer: int) -> int:
        """Row index of a canonical kmer, or -1 when absent.

        Narrows the row range one plane at a time.
        """
        lo, hi = 0, self.n_vertices
        for plane, value in zip(self.planes, split_int(kmer, self.k)):
            sub = plane[lo:hi]
            value = np.uint64(value)
            lo, hi = (lo + int(np.searchsorted(sub, value, side="left")),
                      lo + int(np.searchsorted(sub, value, side="right")))
            if lo == hi:
                return -1
        return lo

    def multiplicity(self, kmer: int) -> int:
        """Occurrence count of a canonical kmer (0 when absent)."""
        i = self.index_of(kmer)
        return int(self.counts[i, MULT_SLOT]) if i >= 0 else 0

    def edge_counts(self, kmer: int) -> np.ndarray:
        """The 8 edge counters of a vertex (zeros when absent)."""
        i = self.index_of(kmer)
        if i < 0:
            return np.zeros(8, dtype=self.counts.dtype)
        return self.counts[i, OUT_BASE:MULT_SLOT].copy()

    def successors(self, kmer: int) -> list[tuple[int, int]]:
        """``(canonical_neighbor, weight)`` for each non-zero out slot."""
        return self._neighbors(kmer, out_side=True)

    def predecessors(self, kmer: int) -> list[tuple[int, int]]:
        """``(canonical_neighbor, weight)`` for each non-zero in slot."""
        return self._neighbors(kmer, out_side=False)

    def _neighbors(self, kmer: int, out_side: bool) -> list[tuple[int, int]]:
        i = self.index_of(kmer)
        if i < 0:
            return []
        mask = kmer_mask(self.k)
        result = []
        base_slot = OUT_BASE if out_side else IN_BASE
        for b in range(4):
            weight = int(self.counts[i, base_slot + b])
            if weight == 0:
                continue
            if out_side:
                neighbor = ((int(kmer) << 2) | b) & mask
            else:
                neighbor = (b << (2 * (self.k - 1))) | (int(kmer) >> 2)
            result.append((canonical_int(neighbor, self.k), weight))
        return result

    def degree(self, kmer: int) -> int:
        """Number of distinct adjacent vertices recorded for a vertex."""
        counts = self.edge_counts(kmer)
        return int((counts > 0).sum())

    # -- transformations ----------------------------------------------------

    def filter_min_multiplicity(self, min_multiplicity: int) -> "DeBruijnGraph":
        """Drop vertices seen fewer than ``min_multiplicity`` times.

        Erroneous kmers "can only be filtered by the number of their
        occurrences after the graph is constructed" (§III-C1); this is
        that filter.  Edges pointing at dropped vertices are retained on
        the surviving endpoint (they identify the dropped neighbor).
        """
        keep = self.counts[:, MULT_SLOT] >= np.uint64(min_multiplicity)
        return DeBruijnGraph(k=self.k, vertices=take_planes(self.planes, keep),
                             counts=self.counts[keep])

    def filter_min_edge_weight(self, min_weight: int) -> "DeBruijnGraph":
        """Zero out edges observed fewer than ``min_weight`` times.

        Edge weights exist precisely to guide traversal ("Edge weights
        are used in determining the traversal paths for assembly",
        §II-B): low-weight edges are sequencing-error artifacts.  The
        vertex set and multiplicities are unchanged.
        """
        counts = self.counts.copy()
        edges = counts[:, OUT_BASE:MULT_SLOT]
        edges[edges < np.uint64(min_weight)] = 0
        return DeBruijnGraph(k=self.k, vertices=self.planes.copy(), counts=counts)

    def memory_bytes(self) -> int:
        """Bytes held by the vertex and counter arrays."""
        return int(self.planes.nbytes + self.counts.nbytes)

    # -- comparison ---------------------------------------------------------

    def equals(self, other: "DeBruijnGraph") -> bool:
        """Exact equality of vertex sets and all counters."""
        return (
            self.k == other.k
            and bool(np.array_equal(self.planes, other.planes))
            and bool(np.array_equal(self.counts, other.counts))
        )

    def describe(self) -> dict:
        """Summary statistics used by the benchmark tables."""
        return {
            "k": self.k,
            "n_vertices": self.n_vertices,
            "n_duplicates": self.n_duplicate_vertices(),
            "total_kmer_instances": self.total_kmer_instances(),
            "total_edge_weight": self.total_edge_weight(),
            "memory_bytes": self.memory_bytes(),
        }

    def vertex_str(self, i: int) -> str:
        """DNA string of vertex row ``i`` (debugging aid)."""
        return kmer_to_str(self.vertex_int(i), self.k)


def empty_graph(k: int) -> DeBruijnGraph:
    """A graph with no vertices."""
    return DeBruijnGraph(
        k=k,
        vertices=np.zeros((key_width(k), 0), dtype=np.uint64),
        counts=np.zeros((0, N_SLOTS), dtype=COUNT_DTYPE),
    )


def vertex_rows(inverse: np.ndarray, n_vertices: int, slots: np.ndarray,
                copies: np.ndarray | None = None) -> np.ndarray:
    """``(n_vertices, 9)`` counter rows of grouped observations.

    Entry ``i`` belongs to vertex ``inverse[i]`` and adds ``copies[i]``
    (one by default) to each of its non-negative ``slots[..., i]`` (one
    slot per entry, or a ``(3, n)`` block of them).  One unbuffered
    ``np.add.at`` per slot row over ``vertex * 9 + slot`` builds every
    row, in exact int64 arithmetic; the rows are then checked and cast
    to uint32 once (:func:`as_counts`), so a counter past the uint32
    maximum raises :class:`OverflowError`.
    """
    spill = n_vertices * N_SLOTS  # bin for the -1 slots, dropped below
    bins = np.where(slots < 0, spill, inverse * N_SLOTS + slots)
    counts = np.zeros(spill + 1, dtype=np.int64)
    # One row at a time: numpy 2.4's add.at mis-adds values broadcast
    # against a 2-D index.
    for row in np.atleast_2d(bins):
        np.add.at(counts, row, 1 if copies is None else copies)
    return as_counts(counts[:-1].reshape(n_vertices, N_SLOTS))


def graph_from_pairs(k: int, vertex_ids: np.ndarray, slots: np.ndarray) -> DeBruijnGraph:
    """Aggregate ``(vertex, slot)`` observation pairs into a graph.

    ``vertex_ids`` are the observations' keys (a 1-D array at W = 1, or
    ``(W, n)`` planes).  Every pair increments one counter.  This is the
    shared aggregation kernel of the reference builder and of the
    sort-merge baselines: it sorts the keys, merges duplicates -- the
    "sort-merge" strategy of §II-B -- and bins the slots per vertex.
    The grouping is plain ``np.unique``/``np.lexsort`` and the binning
    its own ``bincount``, not Step 2's
    :func:`repro.dna.kmer.group_planes` and :func:`vertex_rows`, so the
    reference graph shares no grouping or binning code with the build
    it checks.
    """
    planes = as_planes(vertex_ids, k)
    slots = np.asarray(slots).ravel().astype(np.int64)
    if slots.shape != (planes.shape[1],):
        raise ValueError("vertex_ids and slots must have equal length")
    if slots.size and (int(slots.min()) < 0 or int(slots.max()) >= N_SLOTS):
        raise ValueError("slot values must be in [0, 9)")
    if planes.shape[0] == 1:
        keys, inverse = np.unique(planes[0], return_inverse=True)
        keys = keys[None]
    else:
        order = np.lexsort(planes[::-1])
        ordered = planes[:, order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        inverse = np.empty(order.size, dtype=np.int64)
        inverse[order] = np.cumsum(new) - 1
        keys = ordered[:, new]
    n = keys.shape[1]
    counts = np.bincount(inverse * N_SLOTS + slots, minlength=n * N_SLOTS)
    return DeBruijnGraph(k=k, vertices=keys, counts=counts.reshape(n, N_SLOTS))
