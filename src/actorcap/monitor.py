"""Dynamic capability monitoring.

Every actor reference carries a protocol tag.  What sends have left of it
lives in the configuration's tag table (`runtime.Config.tags`), keyed by
reference identity; a reference missing from the table still holds its
birth tag.  The monitor checks three disciplines on concrete executions,
mirroring what the checker guarantees statically:

* per-send permission: a send must be the derivative of the reference's
  remaining tag, which then shrinks accordingly in the table;
* per-turn conservation: the capabilities an actor holds toward a target,
  after a handler turn, shuffled with those it transferred inside outgoing
  messages, must stay within the derivative of what it held before the
  turn by the messages it sent there (plus, toward itself, the
  self-capabilities it created during the turn); capabilities are affine,
  so dropping part of one is allowed and conjuring one is not.  What a set
  of values holds is a plain dict (`summarize`): each target maps to the
  shuffle of the live tags toward it;
* global consistency between turns: for every actor, the shuffle of all
  live tags targeting it must stay within what its installed behaviour
  still promises after any delivery order of the in-flight messages that
  respects per-sender queue order.  With one sender in flight there is one
  order, and the residual after it is a left fold of derivatives: the
  actor's entry in `Config.residuals` keeps it, `global_invariant` extends
  it by one derivative per message enqueued since the last check, and
  `delivered` carries it past a delivered head.  With two or more senders
  the orders are the shuffle of the queues' words, so one inclusion
  decides them all: the orders followed by the live tags must lie within
  the annotation.  Only a failed check looks for its witness, the first
  failing order, one delivery at a time.  The live tags are those of the
  references the installed behaviours reach, which each value joins from
  its children when it is built (`Value.refs`), and of the references in
  flight, which the configuration counts (`Config.inflight`) as messages
  enter and leave the queues through `Config.append` and
  `Config.pop_head`, the only two places queues change.  So no check walks
  a queued payload.  After a quiet turn, one whose payload and the
  receiver's old and new behaviours reach no reference and that sends,
  spawns and creates none, no tag and no live reference has changed, and
  no queue but the receiver's inbound one: conservation has no target, so
  the turn builds no summary and skips it, and the global check takes the
  combined live tags from the last check (`Config.check_memo`, kept until
  the next delivery takes it out) instead of summarizing them again.
  After a clean check the next one visits only the actors the delivery
  touched: after a quiet turn the receiver alone, otherwise the receiver,
  the actors the turn sent to or spawned, and every actor whose combined
  live tags are no longer the node the last check summarized.  Every
  other actor kept its behaviour, queues and tags, so its verdict, clean,
  stands.  Every actor is visited in the first check, in the check after
  one that reported a violation, and in the check after an unmonitored or
  stuck delivery or of a configuration built by hand, which have no memo;
  so the violations are a full check's, in the same order and with the
  same text.

`runtime.deliver` checks the first two on every turn, and in a run the
third after every delivery too.  The third depends only on the
configuration a delivery leaves, so a search (`runtime.explore`) runs it
once per distinct configuration it keeps and once per delivery that ends
a schedule.  A delivery into a configuration already checked needs none:
the first schedule into it, earlier in depth-first order, ran it.

Violations never affect execution; they are reported as trace events.
Checked programs raise none of them, and programs run with checking
disabled typically trip one before (or instead of) getting stuck.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from . import lang as lng
from .lang import EPS, LangExpr, MsgType, lang_to_text
from .values import RefValue, iter_refs


SEND_NOT_PERMITTED = "SendNotPermitted"
GLOBAL_INVARIANT_BROKEN = "GlobalInvariantBroken"
EFFECT_EXCEEDED = "EffectExceeded"


@dataclass(slots=True, unsafe_hash=True)
class Violation:
    kind: str
    actor: int | None
    detail: str

    def __str__(self) -> str:
        where = f" actor={self.actor}" if self.actor is not None else ""
        return f"{self.kind}{where}: {self.detail}"


def summarize(roots, tags: dict[RefValue, LangExpr]) -> dict[int, LangExpr]:
    """The combined capability toward each target the values reach.

    Walks the values and shuffles the live tag of every reference into its
    target's entry, starting from `eps`, in walk order: capabilities held
    by different parties may be used in any interleaving.  A target no
    reference names is absent, which stands for `eps`.  `tags` holds what
    sends have left of each reference's tag; a reference it does not list
    holds its birth tag.
    """
    summary: dict[int, LangExpr] = {}
    for ref in iter_refs(roots):
        held = summary.get(ref.target, EPS)
        summary[ref.target] = lng.shuffle(held, tags.get(ref, ref.tag))
    return summary


def check_send_tag(tag: LangExpr, msg: MsgType) -> LangExpr | Violation:
    """Residual tag after sending `msg`, or a violation if not permitted."""
    residual = lng.derivative(msg, tag)
    if lng.is_empty(residual):
        return Violation(
            SEND_NOT_PERMITTED,
            None,
            f"tag {lang_to_text(tag)} does not permit sending <{msg}>",
        )
    return residual


def split_tag(
    tag: LangExpr, l1: LangExpr, l2: LangExpr
) -> tuple[LangExpr, LangExpr] | Violation:
    """Divide a tag in two; the halves may not jointly exceed the whole."""
    combined = lng.shuffle(l1, l2)
    if not lng.includes(combined, tag):
        return Violation(
            GLOBAL_INVARIANT_BROKEN,
            None,
            f"split {lang_to_text(l1)} / {lang_to_text(l2)} escapes tag "
            f"{lang_to_text(tag)}",
        )
    return l1, l2


def effect_conformance(
    handler_static_effect: LangExpr, observed: LangExpr
) -> Violation | None:
    """Observed self-capability creation must be covered by the static effect."""
    if lng.includes(observed, handler_static_effect):
        return None
    return Violation(
        EFFECT_EXCEEDED,
        None,
        f"observed effect {lang_to_text(observed)} exceeds static effect "
        f"{lang_to_text(handler_static_effect)}",
    )


def fifo_merges(seqs: list[tuple[MsgType, ...]]):
    """All interleavings of the per-sender sequences, preserving each order.

    The reference enumeration for the global check, kept for its tests;
    the monitor itself never lists the interleavings.
    """
    seqs = [s for s in seqs if s]
    out: list[tuple[MsgType, ...]] = []

    def go(prefix: list[MsgType], rest: list[tuple[MsgType, ...]]):
        if not any(rest):
            out.append(tuple(prefix))
            return
        for i, s in enumerate(rest):
            if s:
                prefix.append(s[0])
                go(prefix, rest[:i] + [s[1:]] + rest[i + 1 :])
                prefix.pop()

    go([], seqs)
    return out


def _holds(seqs, combined: LangExpr, annot: LangExpr) -> bool:
    """Whether every FIFO merge `w` of `seqs` leaves `∂_w annot` covering
    `combined`: one inclusion, since the merges are the shuffle of the
    sequences, each written as the `cat` chain of its message names."""
    merges = EPS
    for seq in seqs:
        word = EPS
        for m in reversed(seq):
            word = lng.cat(lng.sym(m), word)
        merges = lng.shuffle(merges, word)
    return lng.includes(lng.cat(merges, combined), annot)


def _first_failing_merge(
    seqs, combined: LangExpr, annot: LangExpr
) -> tuple[LangExpr, list[MsgType]]:
    """The first FIFO merge `w` of `seqs`, in `fifo_merges` order, whose
    residual `∂_w annot` does not cover `combined`, with that residual.

    Called only when `_holds` fails, it takes one delivery at a time: the
    first sender, in order, whose head leaves a remainder that fails too.
    `fifo_merges` lists the merges through an earlier sender's head first,
    so the one reached is the first that fails.
    """
    word: list[MsgType] = []
    while any(seqs):
        for i, seq in enumerate(seqs):
            if seq:
                rest = seqs[:i] + [seq[1:]] + seqs[i + 1 :]
                after = lng.derivative(seq[0], annot)
                if not _holds(rest, combined, after):
                    break
        word.append(seq[0])
        seqs, annot = rest, after
    return annot, word


class Residual(NamedTuple):
    """An actor's entry in `Config.residuals`: its residual after one queue.

    `residual` is `annot` after the first `folded` messages of the inbound
    queue `queue`, the last of them the queue item `last`.  It counts only
    while `annot` is the actor's annotation and `last` is still the queue's
    item at position `folded - 1`, so a queue changed where the monitor did
    not see it (an unmonitored delivery, an edit by hand) is folded again
    from its head.  Entries are derived state: folding the whole queue
    gives the same residual.
    """

    annot: LangExpr
    queue: tuple[int, int]
    folded: int
    last: tuple
    residual: LangExpr


def delivered(config, queue: tuple[int, int], msg: MsgType) -> None:
    """Carry the receiver's entry past the delivery of the head `msg` of
    `queue`, just popped.

    The folded messages behind the head take `derivative(msg, annot)` to
    the residual the entry holds, so the entry stands as it is for a
    behaviour with that annotation, which every `mk s` recursion installs.
    `global_invariant` discards it if the turn installs another one, or
    none, as a stuck delivery does.
    """
    entry = config.residuals.pop(queue[1], None)
    if entry is not None and entry.queue == queue and entry.folded > 1:
        config.residuals[queue[1]] = Residual(
            lng.derivative(msg, entry.annot), queue, entry.folded - 1,
            entry.last, entry.residual,
        )


def _queue_residual(config, actor: int, annot: LangExpr, queue, q) -> LangExpr:
    """The residual of `annot` after the whole queue `q`, kept under `actor`
    in `config.residuals` and extended from it."""
    entry = config.residuals.get(actor)
    if (
        entry is not None
        and entry.annot is annot
        and entry.queue == queue
        and entry.folded <= len(q)
        and q[entry.folded - 1] is entry.last
    ):
        residual, n = entry.residual, entry.folded
        if n == len(q):
            return residual
    else:
        residual, n = annot, 0
    for _, m in q[n:]:
        residual = lng.derivative(m, residual)
    config.residuals[actor] = Residual(annot, queue, len(q), q[-1], residual)
    return residual


def carried(memo: tuple, quiet: bool, touched: tuple[int, ...]) -> tuple:
    """The check memo `memo` carried past a turn that touched the actors
    `touched`: its summary stays current only if the turn was quiet, and
    a clean mark lists the actors touched since."""
    summary, current, seen = memo
    return summary, current and quiet, None if seen is None else seen + touched


def global_invariant(config, memo: tuple | None = None) -> list[Violation]:
    """Check global consistency at a quiescent point (between deliveries).

    For every actor, every FIFO-consistent interleaving of the messages in
    flight to it must leave a residual of its behaviour's protocol that
    covers the shuffle of all live tags targeting it.  Each actor takes one
    inclusion (`_holds`).  With one sender in flight there is one
    interleaving, and its residual is the actor's `Config.residuals`
    entry, extended by one derivative per message enqueued since the last
    check (a missing or discarded entry is rebuilt by folding the whole
    queue); the combined tags must lie within it.  With none or several,
    the actor's entry is dropped, and the interleavings followed by the
    combined tags, `cat(shuffle(q1, ..., qk), combined)`, must lie within
    the protocol.  An actor's inbound queues are found by bisecting the
    ready index (`Config.ready`).  A report names the first interleaving,
    in `fifo_merges` order, whose residual fails, found one delivery at a
    time only when the check fails (`_first_failing_merge`).

    `memo` is the `Config.check_memo` of the last check, carried past the
    deliveries since (`carried`): `(summary, current, touched)`.
    While `current`, every turn since was quiet, so no tag and no live
    reference changed, and `summary`, the combined tags that check
    summarized, is taken as it is.  `touched` is None unless that check
    was clean; then it lists the actors the turns since touched (each
    receiver, and after a turn that was not quiet its send targets and the
    actors it spawned), and only those are visited, with every actor whose
    combined tags are no longer the node `summary` held.  No other actor's
    behaviour, queues or combined tags changed, so its verdict, clean,
    stands, and the violations are the full check's in the same order.
    Without a memo, or after a check that reported a violation, every
    actor is visited.  A completed check leaves `(summary, True, ())` in
    `config.check_memo` if it was clean, and `(summary, True, None)` if
    not.
    """
    if memo is not None and memo[1]:
        summary = memo[0]
    else:
        # The behaviours' references come with them, and the payloads' are
        # counted as messages enter and leave the queues.
        live = iter_refs(config.store.values())
        live.update(dict.fromkeys(config.inflight))
        # Values are immutable, so a reference nothing reaches now stays
        # unreachable: what sends have left of its tag is dropped here.
        for ref in config.tags.keys() - live.keys():
            del config.tags[ref]
        summary = summarize(live, config.tags)
    store, ready = config.store, config.ready
    if memo is None or memo[2] is None:
        actors = sorted(store)
    else:
        touched = set(memo[2])
        if not memo[1]:
            old = memo[0]
            touched.update(old.keys() - summary.keys())
            for actor, combined in summary.items():
                if old.get(actor) is not combined:
                    touched.add(actor)
        actors = sorted(store.keys() & touched)

    violations: list[Violation] = []
    for actor in actors:
        behv = store[actor]
        s = lng.first_unhandled(behv.annot, {c.label for c in behv.cases})
        if s is not None:
            violations.append(
                Violation(
                    GLOBAL_INVARIANT_BROKEN,
                    actor,
                    f"installed behaviour promises "
                    f"{lang_to_text(behv.annot)} but has no case for "
                    f"<{s}>",
                )
            )
        combined = summary.get(actor, EPS)
        # The actor's inbound queues are ready[lo:hi], by sender.
        lo = bisect_left(ready, (actor,))
        hi = bisect_left(ready, (actor + 1,), lo)
        if hi - lo == 1:
            # One order, whose residual the actor's entry keeps: no merges
            # are left after it.
            key = (ready[lo][1], actor)
            q = config.queues[key]
            start = _queue_residual(config, actor, behv.annot, key, q)
            seqs = []
        else:
            config.residuals.pop(actor, None)
            q, start = (), behv.annot
            seqs = [[m for _, m in config.queues[(src, actor)]]
                    for _, src in ready[lo:hi]]
        if not _holds(seqs, combined, start):
            # The witness, with the single queue, is spelled out only here.
            residual, rest = _first_failing_merge(seqs, combined, start)
            word = "".join([m for _, m in q] + rest) or "eps"
            violations.append(
                Violation(
                    GLOBAL_INVARIANT_BROKEN,
                    actor,
                    f"live tags {lang_to_text(combined)} escape "
                    f"{lang_to_text(residual)} (behaviour "
                    f"{lang_to_text(behv.annot)} after in-flight "
                    f"{word!r})",
                )
            )
    config.check_memo = (summary, True, None if violations else ())
    return violations


def conservation(
    acting: int,
    pre: dict[int, LangExpr],
    sent: dict[int, list[MsgType]],
    observed: LangExpr,
    post: dict[int, LangExpr],
    transferred: dict[int, LangExpr],
    pre_existing: set[int],
) -> list[Violation]:
    """Per-turn capability conservation over `summarize` results.

    What the actor retains, shuffled with what it transferred, must be
    included in what the turn may leave; inclusion rather than equivalence,
    because a capability may be dropped (the checker is affine).  Only
    actors that existed before the turn participate: capabilities to a
    freshly spawned actor are created from nothing by the spawn itself.
    """
    targets = (
        pre.keys()
        | post.keys()
        | transferred.keys()
        | sent.keys()
        # its observed effect counts even with no tags anywhere, but an
        # `eps` effect toward an actor with none passes anyway
        | ({acting} if observed is not EPS else set())
    ) & pre_existing
    violations: list[Violation] = []
    for target in sorted(targets):
        retained = post.get(target, EPS)
        moved = transferred.get(target, EPS)
        right = lng.word_derivative(sent.get(target, ()), pre.get(target, EPS))
        if target == acting:
            right = lng.shuffle(right, observed)
        if not lng.includes(lng.shuffle(retained, moved), right):
            violations.append(
                Violation(
                    GLOBAL_INVARIANT_BROKEN,
                    target,
                    "capability conservation failed: retained "
                    f"{lang_to_text(retained)} with transferred "
                    f"{lang_to_text(moved)} differs "
                    f"from expected {lang_to_text(right)}",
                )
            )
    return violations
