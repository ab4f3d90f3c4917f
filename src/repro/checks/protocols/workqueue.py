"""Abstract model of the §III-E srv/cns publish/claim protocol.

One producer (the parent merger) publishes ``n_items`` addressable
partitions; ``n_consumers`` claimers fetch-increment ``cns`` to reserve
and consume them — the discipline of
:class:`repro.concurrentsub.workqueue.ProcessWorkQueue`, the one queue
every parallel build claims from: the processes backend's Step-1
chunks and Step-2 ready queue.  The paper's output side
(``prd``/``wrt``) is not modelled here: :mod:`repro.hetsim.pipeline`
models it, and the processes backend streams results through its
worker event channel.  With ``crash=True`` the model also includes the failure transitions the
crash-containment design must survive: a claimer dying *mid-claim*
(reservation taken, item never fetched) and the merger failing before
it closes the queue, plus the parent's ``abort`` reaction that
run_workers' teardown performs.

The global state is the tuple::

    (srv, cns, written, taken, qstate, budget, dup, missing,
     prod_pc, consumers)

``written``/``taken`` are bitmasks over item ids, ``budget`` bounds the
total crashes explored (1), and each consumer is a ``(pc, ticket)``
pair.  Invariants: no double-consume, no consume of an unpublished
slot, ``cns`` never overtakes ``srv``.  Termination: a clean run
consumes every item; a crashed run must end aborted (the parent
surfaces the death) — and no claimer may ever be stranded waiting on a
queue nobody will fill (that is the deadlock check).

Variants (the seeded-bug corpus):

* ``split_claim`` — the claim is a read-then-increment instead of one
  fetch-increment (workqueue seeded bug ``split_claim``): two claimers
  read the same ``cns`` and consume the same partition; on the real
  queue the second is stranded on a reservation the transport never
  fills.
* ``early_srv`` — the producer advances ``srv`` before storing the slot
  (workqueue seeded bug ``early_srv``): a claim reserves an item that
  is not there yet, and on the real queue waits for a put that has
  not happened.
* ``no_close`` — the producer exits without ``close()``: drained
  claimers spin forever (deadlock).
* ``no_abort`` — crashes happen but the parent never ``abort()``\\ s:
  either surviving claimers deadlock on a dead merger, or a dead
  claimer's reservation is silently stranded.
"""

from __future__ import annotations

from ..model import Action, ProtocolModel

OPEN, CLOSED, ABORTED = 0, 1, 2

# Consumer program counters.
C_CLAIM, C_ADV, C_FETCH, C_REC, C_DONE, C_CRASH = range(6)
# Producer program counters.
P_LOOP, P_MID, P_DONE, P_FAILED = range(4)

QUEUE_VARIANTS = ("split_claim", "early_srv", "no_close", "no_abort")


def _upd(state, srv=None, cns=None, written=None, taken=None, qstate=None,
         budget=None, dup=None, missing=None, prod_pc=None, consumer=None):
    """Successor state; ``consumer`` is ``(index, pc, ticket-or-None)``."""
    sv, cn, wr, tk, qs, bu, du, mi, pp, cons = state
    if consumer is not None:
        i, pc, ticket = consumer
        cons = list(cons)
        cons[i] = (pc, cons[i][1] if ticket is None else ticket)
        cons = tuple(cons)
    return (
        sv if srv is None else srv,
        cn if cns is None else cns,
        wr if written is None else written,
        tk if taken is None else taken,
        qs if qstate is None else qstate,
        bu if budget is None else budget,
        du if dup is None else dup,
        mi if missing is None else missing,
        pp if prod_pc is None else prod_pc,
        cons,
    )


def _fetch(state, i, ticket):
    """Consumer ``i`` picks up its reserved item ``ticket``."""
    bit = 1 << ticket
    if not state[2] & bit:  # not written: srv lied
        return _upd(state, missing=1, consumer=(i, C_REC, None))
    if state[3] & bit:  # already consumed by someone else
        return _upd(state, dup=1, consumer=(i, C_REC, None))
    return _upd(state, taken=state[3] | bit, consumer=(i, C_REC, None))


class WorkQueueProtocol(ProtocolModel):
    """The srv/cns protocol with a live producer and crash transitions."""

    def __init__(self, n_consumers: int = 2, n_items: int = 4,
                 crash: bool = True, variant: str | None = None) -> None:
        if n_consumers < 1 or n_items < 1:
            raise ValueError("need n_consumers >= 1 and n_items >= 1")
        if variant is not None and variant not in QUEUE_VARIANTS:
            raise ValueError(f"unknown workqueue variant {variant!r}")
        self.n = n_consumers
        self.m = n_items
        self.variant = variant
        # Crash transitions only matter where containment is modeled:
        # the fixed protocol (to verify it) and no_abort (to refute it).
        self.crash = crash and variant in (None, "no_abort")
        self.name = (f"workqueue[{variant or 'fixed'}] x{n_consumers}c/"
                     f"{n_items}i{'+crash' if self.crash else ''}")

    def initial(self) -> tuple:
        return (0, 0, 0, 0, OPEN, 1 if self.crash else 0, 0, 0, P_LOOP,
                tuple((C_CLAIM, 0) for _ in range(self.n)))

    def enabled(self, state: tuple) -> list[Action]:
        srv, cns, written, taken, qstate, budget, dup, missing, prod_pc, \
            consumers = state
        v = self.variant
        out: list[Action] = []

        # -- producer (the parent merger) --------------------------------
        if prod_pc == P_LOOP and qstate == OPEN:
            if srv < self.m:
                if v == "early_srv":
                    # The bug: srv advances before the slot is stored.
                    out.append(Action("prod", "publish_srv",
                                      lambda s: _upd(s, srv=s[0] + 1,
                                                     prod_pc=P_MID)))
                else:
                    out.append(Action("prod", "publish",
                                      lambda s: _upd(
                                          s, written=s[2] | (1 << s[0]),
                                          srv=s[0] + 1)))
            else:
                if v == "no_close":
                    out.append(Action("prod", "finish_without_close",
                                      lambda s: _upd(s, prod_pc=P_DONE)))
                else:
                    out.append(Action("prod", "close",
                                      lambda s: _upd(s, qstate=CLOSED,
                                                     prod_pc=P_DONE)))
            if budget > 0:
                out.append(Action("prod", "merger_fail",
                                  lambda s: _upd(s, prod_pc=P_FAILED,
                                                 budget=s[5] - 1)))
        elif prod_pc == P_MID:
            out.append(Action("prod", "publish_write",
                              lambda s: _upd(s,
                                             written=s[2] | (1 << (s[0] - 1)),
                                             prod_pc=P_LOOP)))

        # -- the parent's crash containment ------------------------------
        crashed_any = any(pc == C_CRASH for pc, _ in consumers)
        if (v != "no_abort" and qstate != ABORTED
                and (prod_pc == P_FAILED or crashed_any)):
            out.append(Action("parent", "abort",
                              lambda s: _upd(s, qstate=ABORTED,
                                             prod_pc=P_DONE)))

        # -- consumers ----------------------------------------------------
        for i, (pc, ticket) in enumerate(consumers):
            p = f"c{i}"
            if pc == C_CLAIM:
                if qstate == ABORTED:
                    out.append(Action(p, "exit_aborted",
                                      lambda s, i=i: _upd(
                                          s, consumer=(i, C_DONE, None))))
                elif cns < srv:
                    if v == "split_claim":
                        # The bug: the cns read and its increment are
                        # two separate steps, not one fetch-increment.
                        out.append(Action(p, "claim_read",
                                          lambda s, i=i: _upd(
                                              s, consumer=(i, C_ADV, s[1]))))
                    else:
                        out.append(Action(p, "claim",
                                          lambda s, i=i: _upd(
                                              s, cns=s[1] + 1,
                                              consumer=(i, C_FETCH, s[1]))))
                elif qstate == CLOSED:
                    out.append(Action(p, "exit_closed",
                                      lambda s, i=i: _upd(
                                          s, consumer=(i, C_DONE, None))))
                # OPEN and drained: blocked, polling for a publish.
            elif pc == C_ADV:
                out.append(Action(p, "claim_adv",
                                  lambda s, i=i: _upd(
                                      s, cns=s[1] + 1,
                                      consumer=(i, C_FETCH, None))))
            elif pc == C_FETCH:
                out.append(Action(p, "fetch",
                                  lambda s, i=i, t=ticket: _fetch(s, i, t)))
                if budget > 0:
                    # Dies mid-claim: reservation taken, item never
                    # fetched — the stranding the parent must contain.
                    out.append(Action(p, "crash_mid_claim",
                                      lambda s, i=i: _upd(
                                          s, budget=s[5] - 1,
                                          consumer=(i, C_CRASH, None))))
            elif pc == C_REC:
                # Pure pc advance (processing the item locally): guard
                # and effect are both process-local, so the partial-
                # order reduction may expand it alone.
                out.append(Action(p, "record",
                                  lambda s, i=i: _upd(
                                      s, consumer=(i, C_CLAIM, None)),
                                  local=True))
        return out

    def invariant(self, state: tuple) -> str | None:
        srv, cns, written, taken, qstate, budget, dup, missing, prod_pc, \
            consumers = state
        if dup:
            return ("partition id consumed twice (the cns claim is not an "
                    "atomic fetch-increment)")
        if missing:
            return ("claimed partition was never published (srv advanced "
                    "before the slot store: publication ordering broken)")
        if cns > srv:
            return (f"cns ({cns}) overtook srv ({srv}): a claim reserved an "
                    f"unpublished slot")
        return None

    def is_terminal(self, state: tuple) -> bool:
        prod_pc, consumers = state[8], state[9]
        return (prod_pc == P_DONE
                and all(pc in (C_DONE, C_CRASH) for pc, _ in consumers))

    def terminal_check(self, state: tuple) -> str | None:
        srv, cns, written, taken, qstate, budget, dup, missing, prod_pc, \
            consumers = state
        crashed = [i for i, (pc, _) in enumerate(consumers) if pc == C_CRASH]
        if crashed and qstate != ABORTED:
            return (f"claimer c{crashed[0]} died holding a reservation and "
                    f"the queue was never aborted: its partition is "
                    f"silently stranded")
        if not crashed and qstate == CLOSED:
            want = (1 << self.m) - 1
            if srv != self.m:
                return (f"queue closed after publishing {srv}/{self.m} "
                        f"partitions")
            if taken != want:
                lost = [b for b in range(self.m) if not taken & (1 << b)]
                return (f"partitions {lost} were published but never "
                        f"consumed in a clean run")
        return None
