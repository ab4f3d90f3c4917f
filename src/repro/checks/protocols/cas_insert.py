"""Abstract model of the §III-C3 state-transfer insert protocol.

``n_writers`` threads insert the *same* key into a one-slot abstract
table — the maximally contended configuration, and the smallest one
that exercises every arm of the protocol: exactly one thread wins the
EMPTY→LOCKED claim, writes the key, publishes OCCUPIED; the rest
either spin on LOCKED (modeled as a disabled guard — progress comes
from the winner) or take the update path once OCCUPIED is visible.
After its insert/update each thread bumps the shared occupancy/stats
counters under their locks and finally performs a lookup of the key it
just committed.

The global state is the tuple::

    (flag, mirror, key_writes, count, n_occupied, stats, missed, threads)

``flag`` is the authoritative (atomic) occupancy flag, ``mirror`` the
numpy shadow the ``numpy_publish`` variant publishes through, and each
thread is a ``(pc, reg)`` pair.  Invariants: at most one thread inside
the exclusive LOCKED window, the key is written exactly once, and no
thread's own committed update is invisible to its later lookup.  The
terminal check requires every counter to equal what ``n_writers``
sequential operations would produce.

Variants (each maps to a seeded bug in the real code):

* ``tas_claim`` — the claim is a load-then-store test-and-set instead
  of a CAS (hashtable seeded bug ``tas_claim``): two loads can both see
  EMPTY before either store, putting two writers in the window.
* ``shared_stats`` — the stats merge is a split read/write on the
  shared object (hashtable seeded bug ``shared_stats``): an update is
  lost when the RMWs interleave.
* ``numpy_publish`` — publication is doubled through a non-atomic
  mirror that lookups trust (hashtable seeded bug ``numpy_publish``):
  a committed update is invisible while the mirror write is pending.

Multi-word keys need no separate model: the table writes all ``W``
key planes (``keys[:, pos]``) inside the LOCKED window, and
``key_writes`` abstracts every word written there, however many there
are.  The occupancy argument — only the CAS winner is between LOCKED
and OCCUPIED, and readers never touch the key words before OCCUPIED is
published — is insensitive to the number of writes in that window, so
the verified invariants (single writer in the window, key written
exactly once, committed updates visible) hold at every key width.
"""

from __future__ import annotations

from ..model import Action, ProtocolModel

EMPTY, LOCKED, OCCUPIED = 0, 1, 2

# Per-thread program counters.
TRY, TAS, WRITE, PUB, MIRROR, COUNT, OCC, STATS, STATSW, LOOKUP, DONE = \
    range(11)

INSERT_VARIANTS = ("tas_claim", "shared_stats", "numpy_publish")

#: pcs inside the exclusive LOCKED window (claimed, not yet published).
_WINDOW = (WRITE, PUB)


def _upd(state, i, pc, reg=None, flag=None, mirror=None, writes=None,
         count=None, occ=None, stats=None, missed=None):
    """Successor state with thread ``i`` at ``pc`` and the given globals."""
    f, m, w, c, o, st, mi, threads = state
    t = list(threads)
    t[i] = (pc, t[i][1] if reg is None else reg)
    return (
        f if flag is None else flag,
        m if mirror is None else mirror,
        w if writes is None else writes,
        c if count is None else count,
        o if occ is None else occ,
        st if stats is None else stats,
        mi if missed is None else missed,
        tuple(t),
    )


class InsertProtocol(ProtocolModel):
    """The CAS insert state machine for ``n_writers`` same-key threads."""

    def __init__(self, n_writers: int = 3, variant: str | None = None) -> None:
        if n_writers < 1:
            raise ValueError("n_writers must be >= 1")
        if variant is not None and variant not in INSERT_VARIANTS:
            raise ValueError(f"unknown insert variant {variant!r}")
        self.n = n_writers
        self.variant = variant
        self.name = f"insert[{variant or 'fixed'}] x{n_writers}w"

    def initial(self) -> tuple:
        return (EMPTY, EMPTY, 0, 0, 0, 0, 0,
                tuple((TRY, 0) for _ in range(self.n)))

    def enabled(self, state: tuple) -> list[Action]:
        flag, mirror, writes, count, occ, stats, missed, threads = state
        v = self.variant
        out: list[Action] = []
        for i, (pc, reg) in enumerate(threads):
            p = f"w{i}"
            if pc == TRY:
                if flag == EMPTY:
                    if v == "tas_claim":
                        # The bug: the EMPTY test and the LOCKED store
                        # are two separate steps, not one CAS.
                        out.append(Action(p, "tas_load",
                                          lambda s, i=i: _upd(s, i, TAS)))
                    else:
                        out.append(Action(p, "cas_win",
                                          lambda s, i=i: _upd(
                                              s, i, WRITE, flag=LOCKED)))
                elif flag == OCCUPIED:
                    # Update path: key matches (same key), atomic add.
                    out.append(Action(p, "read_key_update",
                                      lambda s, i=i: _upd(
                                          s, i, STATS, count=s[3] + 1)))
                # flag == LOCKED: spinning — blocked on the guard; the
                # winner's publish is what makes progress.
            elif pc == TAS:
                out.append(Action(p, "tas_store",
                                  lambda s, i=i: _upd(
                                      s, i, WRITE, flag=LOCKED)))
            elif pc == WRITE:
                out.append(Action(p, "write_key",
                                  lambda s, i=i: _upd(
                                      s, i, PUB, writes=s[2] + 1)))
            elif pc == PUB:
                if v == "numpy_publish":
                    out.append(Action(p, "publish_atomic",
                                      lambda s, i=i: _upd(
                                          s, i, MIRROR, flag=OCCUPIED)))
                else:
                    out.append(Action(p, "publish",
                                      lambda s, i=i: _upd(
                                          s, i, COUNT, flag=OCCUPIED,
                                          mirror=OCCUPIED)))
            elif pc == MIRROR:
                out.append(Action(p, "publish_mirror",
                                  lambda s, i=i: _upd(
                                      s, i, COUNT, mirror=OCCUPIED)))
            elif pc == COUNT:
                out.append(Action(p, "add_count",
                                  lambda s, i=i: _upd(
                                      s, i, OCC, count=s[3] + 1)))
            elif pc == OCC:
                out.append(Action(p, "incr_occupied",
                                  lambda s, i=i: _upd(
                                      s, i, STATS, occ=s[4] + 1)))
            elif pc == STATS:
                if v == "shared_stats":
                    # The bug: read the shared counter into a register,
                    # write it back +1 as a separate step.
                    out.append(Action(p, "stats_read",
                                      lambda s, i=i: _upd(
                                          s, i, STATSW, reg=s[5])))
                else:
                    out.append(Action(p, "merge_stats",
                                      lambda s, i=i: _upd(
                                          s, i, LOOKUP, stats=s[5] + 1)))
            elif pc == STATSW:
                out.append(Action(p, "stats_write",
                                  lambda s, i=i, reg=reg: _upd(
                                      s, i, LOOKUP, stats=reg + 1)))
            elif pc == LOOKUP:
                # The thread re-reads the key it just committed; the
                # numpy_publish variant trusts the mirror instead of the
                # atomic flag.
                src = 1 if v == "numpy_publish" else 0
                out.append(Action(p, "lookup",
                                  lambda s, i=i, src=src: _upd(
                                      s, i, DONE,
                                      missed=s[6] or int(
                                          s[src] != OCCUPIED))))
        return out

    def invariant(self, state: tuple) -> str | None:
        flag, mirror, writes, count, occ, stats, missed, threads = state
        in_window = sum(1 for pc, _ in threads if pc in _WINDOW)
        if in_window > 1:
            return ("two writers inside the EMPTY→LOCKED exclusive window "
                    "(the claim is not an atomic CAS)")
        if writes > 1:
            return f"key written {writes} times (write-once publication broken)"
        if missed:
            return ("committed update invisible to a later lookup "
                    "(publication ordering: the read path trusts a mirror "
                    "written after the atomic store)")
        return None

    def is_terminal(self, state: tuple) -> bool:
        return all(pc == DONE for pc, _ in state[7])

    def terminal_check(self, state: tuple) -> str | None:
        flag, mirror, writes, count, occ, stats, missed, threads = state
        if count != self.n:
            return (f"lost counter update: {count} recorded for "
                    f"{self.n} observations")
        if stats != self.n:
            return (f"lost stats update: ops {stats} != {self.n} threads "
                    f"(non-atomic read-modify-write on the shared object)")
        if occ != 1:
            return f"n_occupied is {occ} but exactly 1 slot is occupied"
        if flag != OCCUPIED:
            return "run completed without publishing OCCUPIED"
        return None
