"""Extended regular expressions over a finite alphabet of message types.

A message type is its declared name, a plain `str` (`MsgType` is that
alias), and a word is a tuple of names.  Languages over message types
describe which message sequences may be sent through an actor reference.
Everything else in the package reduces to the operations here:
nullability, derivatives (Antimirov's partial derivatives, whose canonical
union is `derivative`), the shuffle product (all interleavings of two
languages), intersection, emptiness and inclusion (one derivative-pair
search, `_pair_search`), and equivalence.  The search is depth-first and
derives a pair's successors only when it steps to them, one symbol at a
time, so a refutation derives the pairs on and beside its path and not
every successor of every pair it passes.  It discharges a pair, without
expanding it, when its right side is nullable and steps back to itself on
every symbol of the left term: such a right side holds every word over
those symbols, so an n-way shuffle against a star of its symbols holds at
its first pair instead of its 2**n-th.  It refutes a pair whose right side
is empty as soon as the left term is known to hold a word (the `_nonempty`
fact), and it visits left terms and symbols in their structural order, so
its verdicts, its cost and any budget refusal are the same in every
process.

Expressions are hash-consed (see `LangExpr`): every constructor, raw or
smart, returns the one interned node for its operands, so equality is
identity, and so is hashing.  A node that exists costs one dict lookup; a
new one computes its facts from its operands' by its class's rule, so it
costs only what is new about it.  No result depends on the order of a set
of nodes, which follows their addresses: every order comes from the
structural order key (`_order`) or from symbol names.  Expressions are
canonical by construction: they come from the smart constructors (`alt`,
`cat`, `shuffle`, `conj`, `star`) or from `parse_lang`, which builds
through them, and every operation here builds its results the same way.
In canonical form an `|`, `#` or `&` is one node over all of its operands,
sorted, and for `|` and `&` deduplicated; a `.` chain is right-nested, so
a derivative shares its tail; the unit and annihilator laws are applied.
Each of `alt`, `cat`, `shuffle` and `conj` takes two or more operands and
builds one node or chain over them, however they were grouped.
The node classes are for matching, printing, interning and pickling; a
tree built from them by hand is still decided correctly, just not
canonicalised.  Canonical form keeps the sets of derivatives small, so it
decides how fast inclusion runs, not whether it ends: partial derivatives
are finitely many even without these identities.

All operations are pure.  The node table and the two process-wide memo
tables (the `lru_cache`s of `derivative` and `partial_derivatives`) are
append-only and keyed by immutable values, so concurrent callers never
observe shared mutable state.  The word enumeration's memo and the
search's set of pairs live for one call only.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache
from itertools import islice, product
from operator import attrgetter

# Derivative pairs one inclusion check may visit; words one enumerated set holds.
STATE_BUDGET = 100_000


class StateBudgetExceeded(Exception):
    """A search outgrew its budget: the derivative-pair closure or an
    enumerated word set past `STATE_BUDGET` (or a word set past 20 times
    that many symbols), or explore past `runtime.STATE_CAP` expanded
    configurations."""


class LangParseError(ValueError):
    """A textual language expression failed to parse."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


# An alphabet symbol is the name of a declared message type; names compare,
# sort and hash as strings.
MsgType = str

# A word is a message sequence, one name per message.
Word = tuple[MsgType, ...]

UNIT_MSG = "Unit"


class LangExpr:
    """Base class for language expressions: interned, immutable nodes.

    Construction looks up (class, operands) in one module-level table, so
    structurally equal expressions are one object, and `==` and `hash` are
    those of `object`: identity.  Set order is then a matter of memory
    addresses, so nothing is read in it; where an order matters it comes
    from `_order`.  The operand of a `Sym` is a message name, that of an
    `|`, `#` or `&` node a tuple of nodes, and the other operands are nodes.

    A hit costs one tuple and one dict lookup.  A miss makes the node and
    stores its operands and four facts, which its class's `_facts` rule
    computes once from the operands' own facts: the structural order key
    (the class's rank, Empty 0, Eps 1, Sym 2, Star 3, Cat 4, Shuffle 5,
    And 6, Alt 7, then the operands' keys or the name of a `Sym`; a flat
    node's is that of the right-nested pairs it stands for), nullability,
    its symbols (a sorted tuple) and whether the language is known to hold
    a word.  That last is exact without `&`; an `&` node is known nonempty
    only when it is nullable, so False there means "unknown".  So a node
    costs what is new about it, and no rule recurses, whatever the depth.
    A flat node holds one tuple of its operands' symbols, or its widest
    operand's.  A `.` node's is the larger operand's when the other brings
    no new symbol, and a copy with the new ones inserted otherwise
    (`_union`), so a `.` chain of n distinct symbols holds n tuples of up
    to n names.
    """

    __slots__ = ("_order", "_nullable", "_symbols", "_nonempty")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *operands):
        key = (cls, *operands)
        node = _NODES.get(key)
        if node is not None:
            return node
        names = cls.__match_args__
        if len(operands) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} operands")
        order, null, syms, full = cls._facts(*operands)
        node = object.__new__(cls)
        store = object.__setattr__
        store(node, "_order", order)
        store(node, "_nullable", null)
        store(node, "_symbols", syms)
        store(node, "_nonempty", full)
        for name, x in zip(names, operands):
            store(node, name, x)
        # setdefault keeps one node per key even if two callers race here.
        return _NODES.setdefault(key, node)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        ops = self.__reduce__()[1]
        if not ops:
            return type(self).__name__
        shown = (x if isinstance(x, str) else repr(x) for x in ops)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __str__(self) -> str:
        return lang_to_text(self)


_NODES: dict[tuple, LangExpr] = {}


class Empty(LangExpr):
    __slots__ = ()

    @staticmethod
    def _facts():
        return (0,), False, (), False


class Eps(LangExpr):
    __slots__ = ()

    @staticmethod
    def _facts():
        return (1,), True, (), True


class Sym(LangExpr):
    __slots__ = __match_args__ = ("sym",)
    sym: MsgType

    @staticmethod
    def _facts(s):
        return (2, s), False, (s,), True


class Star(LangExpr):
    __slots__ = __match_args__ = ("inner",)
    inner: LangExpr

    @staticmethod
    def _facts(i):
        return (3, i._order), True, i._symbols, True


class Cat(LangExpr):
    __slots__ = __match_args__ = ("left", "right")
    left: LangExpr
    right: LangExpr

    @staticmethod
    def _facts(l, r):
        null, full = l._nullable and r._nullable, l._nonempty and r._nonempty
        return (4, l._order, r._order), null, _union(l._symbols, r._symbols), full


class _Nary(LangExpr):
    """An `|`, `#` or `&` node over all of its operands, `items`, however
    many; the raw constructor takes two or more: `Alt(a, b, *more)`."""

    __slots__ = __match_args__ = ("items",)
    items: tuple[LangExpr, ...]

    def __new__(cls, a, b, *more):
        return LangExpr.__new__(cls, (a, b, *more))

    def __reduce__(self):
        return type(self), self.items

    @classmethod
    def _facts(cls, items):
        # The order key is that of the right-nested pairs the node stands
        # for, (rank, o1, (rank, o2, ... on)), so sorts are those of pairs.
        rank, join = cls._rule
        *init, order = [x._order for x in items]
        for o in reversed(init):
            order = (rank, o, order)
        null = join([x._nullable for x in items])
        full = null if cls is And else join([x._nonempty for x in items])
        wide = max((x._symbols for x in items), key=len)
        syms = {s for x in items for s in x._symbols}
        syms = wide if len(syms) == len(wide) else tuple(sorted(syms))
        return order, null, syms, full


class Shuffle(_Nary):
    __slots__ = ()
    _rule = (5, all)


class And(_Nary):
    __slots__ = ()
    _rule = (6, all)


class Alt(_Nary):
    __slots__ = ()
    _rule = (7, any)


def _union(a: tuple, b: tuple) -> tuple:
    """The sorted symbols of both sorted tuples.

    The longer tuple is returned itself when it holds the shorter's
    symbols, and a few new symbols are inserted into it by binary search,
    so a `.` node whose head adds one symbol to a long chain copies the
    chain's tuple once instead of sorting it.  Two tuples of similar
    length are merged by one sort.
    """
    if len(a) > len(b):
        a, b = b, a
    n = len(b)
    if len(a) * n.bit_length() > n:
        both = tuple(sorted({*a, *b}))
        return b if len(both) == n else both
    for s in a:
        lo = bisect_left(b, s)
        if lo == len(b) or b[lo] != s:
            b = b[:lo] + (s,) + b[lo:]
    return b


EMPTY = Empty()
EPS = Eps()


def sym(name: MsgType) -> Sym:
    return Sym(name)


# Total structural order used to sort operands of commutative nodes.
_key = attrgetter("_order")


def _chain(cls, e: LangExpr) -> list[LangExpr]:
    """The operands of a `.` chain (`cls` is `Cat`), along its right spine."""
    items: list[LangExpr] = []
    while isinstance(e, cls):
        items.append(e.left)
        e = e.right
    items.append(e)
    return items


def _operands(cls, parts) -> list[LangExpr]:
    """`parts`, each `cls` node among them replaced by its operands."""
    return [x for p in parts for x in (p.items if type(p) is cls else (p,))]


def _build(cls, items, unit: LangExpr) -> LangExpr:
    """One `cls` node over the sorted `items`, the one item, or `unit`."""
    if len(items) > 1:
        return LangExpr.__new__(cls, tuple(sorted(items, key=_key)))
    return next(iter(items), unit)


# One smart constructor per operator, for two or more operands: flatten the
# class's nodes among them, apply the unit and annihilator laws, and build
# one node (a right-nested chain for `.`), however the operands were grouped.


def alt(a: LangExpr, b: LangExpr, *more: LangExpr) -> LangExpr:
    kept = set(_operands(Alt, (a, b, *more)))
    kept.discard(EMPTY)
    return _build(Alt, kept, EMPTY)


def cat(a: LangExpr, b: LangExpr, *more: LangExpr) -> LangExpr:
    if not more:
        if a is EPS:
            return b
        if b is EPS:
            return a
        if type(a) is not Cat:
            # Chains nest to the right, so a canonical chain `b` stays whole.
            return EMPTY if a is EMPTY or b is EMPTY else Cat(a, b)
    items = [x for p in (a, b, *more) for x in _chain(Cat, p) if x is not EPS]
    if EMPTY in items:
        return EMPTY
    if not items:
        return EPS
    acc = items.pop()
    for x in reversed(items):
        acc = Cat(x, acc)
    return acc


def shuffle(a: LangExpr, b: LangExpr, *more: LangExpr) -> LangExpr:
    if not more:
        if a is EPS:  # the unit: most effects and queues are eps
            return b
        if b is EPS:
            return a
    # No deduplication: L # L is genuinely larger than L.
    items = [x for x in _operands(Shuffle, (a, b, *more)) if x is not EPS]
    return EMPTY if EMPTY in items else _build(Shuffle, items, EPS)


def conj(a: LangExpr, b: LangExpr, *more: LangExpr) -> LangExpr:
    kept = set(_operands(And, (a, b, *more)))
    if EMPTY in kept:
        return EMPTY
    if EPS in kept:
        return EPS if all(nullable(x) for x in kept) else EMPTY
    return _build(And, kept, EMPTY)


def star(a: LangExpr) -> LangExpr:
    if a == EMPTY or a == EPS:
        return EPS
    if isinstance(a, Star):
        return a
    return Star(a)


def nullable(l: LangExpr) -> bool:
    """True iff the empty word belongs to the language."""
    return l._nullable


def symbols(l: LangExpr) -> frozenset[MsgType]:
    return frozenset(l._symbols)


@lru_cache(maxsize=None)
def derivative(s: MsgType, l: LangExpr) -> LangExpr:
    """The language of completions: words w with s.w in the language.

    The canonical union of the partial derivatives.
    """
    terms = partial_derivatives(s, l)
    if len(terms) > 1:
        return alt(*terms)
    return terms[0] if terms else EMPTY


def first_unhandled(l: LangExpr, handled) -> MsgType | None:
    """The first symbol, in order, that `l` admits first and `handled` lacks.

    A behaviour must have a case for every message its protocol may deliver
    first, otherwise a permitted send could arrive unhandled.
    """
    for s in l._symbols:
        if s not in handled and not is_empty(derivative(s, l)):
            return s
    return None


def word_derivative(w, l: LangExpr) -> LangExpr:
    """Left fold of `derivative`, so (ww')-derivatives chain as expected."""
    for s in w:
        l = derivative(s, l)
    return l


def member(w, l: LangExpr) -> bool:
    return nullable(word_derivative(w, l))


class _Memo(dict):
    """The word sets of one enumeration, by subterm, and the number of
    symbols in the words of every set the enumeration has built."""

    symbols = 0


class _Words(set):
    """A word set of the enumeration, refused past STATE_BUDGET words.  Its
    new words count against one budget of 20 times that many symbols,
    shared by every set of the enumeration (`memo.symbols`): a word may be
    as long as the length bound, so word counts alone do not bound memory,
    and the memo keeps each set until the enumeration ends."""

    def __init__(self, memo: _Memo):
        self.memo = memo

    def add(self, w: Word) -> None:
        n = len(self)
        set.add(self, w)
        if len(self) > n:
            self.memo.symbols += len(w)
            if len(self) > STATE_BUDGET:
                raise StateBudgetExceeded(f"{STATE_BUDGET} words")
            if self.memo.symbols > 20 * STATE_BUDGET:
                raise StateBudgetExceeded(f"{20 * STATE_BUDGET} symbols")


def _words_upto(e: LangExpr, k: int, memo: _Memo) -> frozenset[Word]:
    # Bottom-up denotational evaluation of the length-bounded word set.
    # Deliberately free of derivatives and nullability: this is the
    # independent oracle the derivative engine is tested against.  Each
    # set is a `_Words`, bounded as it grows, so a refusal comes once one set
    # passes its word budget or all the sets built so far pass the symbol
    # budget, before the set is complete.  `memo` holds the sets of the
    # subterms met so far, for one enumeration and one k.
    out = memo.get(e)
    if out is not None:
        return out
    match e:
        case Empty():
            out = frozenset()
        case Eps():
            out = frozenset({()})
        case Sym(s):
            out = frozenset({(s,)}) if k >= 1 else frozenset()
        case Alt(items):
            out = _Words(memo)
            for x in items:
                for w in _words_upto(x, k, memo):
                    out.add(w)
        case And(items):
            out = frozenset.intersection(*[_words_upto(x, k, memo) for x in items])
        case Cat(a, b):
            right: dict[int, list[Word]] = {}  # b's words by their length
            for v in _words_upto(b, k, memo):
                right.setdefault(len(v), []).append(v)
            out = _Words(memo)
            for u in _words_upto(a, k, memo):
                for j, vs in right.items():
                    if len(u) + j <= k:
                        for v in vs:
                            out.add(u + v)
        case Star(a):
            pieces = [w for w in _words_upto(a, k, memo) if w]
            out = _Words(memo)
            out.add(())
            frontier = [()]
            while frontier:
                fresh = []
                for v in frontier:
                    for u in pieces:
                        if len(u) + len(v) <= k:
                            w = v + u
                            if w not in out:
                                out.add(w)
                                fresh.append(w)
                frontier = fresh
        case Shuffle(items):
            # Folded from the right, as the sets of a right-nested chain.
            out = _words_upto(items[-1], k, memo)
            for x in reversed(items[:-1]):
                out = _shuffle_upto(_words_upto(x, k, memo), out, k, memo)
        case _:
            raise TypeError(f"not a language expression: {e!r}")
    memo[e] = out = frozenset(out)
    return out


def _prefix_tree(words) -> tuple[list[dict[MsgType, int]], list[int]]:
    """The prefix tree of a nonempty set of words, as two lists over its
    nodes.  Node 0 is the empty prefix, and `children[n]` maps a symbol to
    the node one symbol longer.  `short[n]` is the length still needed
    from node n to the end of a word: 0 where a word ends."""
    children: list[dict[MsgType, int]] = [{}]
    ends = set()
    for w in words:
        n = 0
        for s in w:
            nxt = children[n].get(s)
            if nxt is None:
                nxt = children[n][s] = len(children)
                children.append({})
            n = nxt
        ends.add(n)
    # Every node is numbered after its parent, so one backward pass works.
    short = [0] * len(children)
    for n in range(len(children) - 1, -1, -1):
        if n not in ends:
            short[n] = 1 + min(short[c] for c in children[n].values())
    return children, short


def _shuffle_upto(left, right, k: int, memo: _Memo) -> frozenset[Word]:
    """Each interleaving of a word of `left` with a word of `right`, up to
    length k, built once.

    The prefixes of those interleavings are walked on an explicit stack.
    A prefix carries the pairs of nodes, one in each side's prefix tree,
    that it interleaves; its extensions are grouped by their next symbol,
    so each word is reached along one path only.  A pair whose shortest
    completion would pass length k is dropped, so every prefix walked
    begins a word that is kept.
    """
    if not left or not right:
        return frozenset()
    lkids, lshort = _prefix_tree(left)
    rkids, rshort = _prefix_tree(right)
    out = _Words(memo)
    stack = [((), {(0, 0)})]
    while stack:
        w, pairs = stack.pop()
        room = k - len(w) - 1  # what a pair one symbol longer may still need
        nexts: dict[MsgType, set[tuple[int, int]]] = {}
        for i, j in pairs:
            li, rj = lshort[i], rshort[j]
            if li == rj == 0:
                out.add(w)
            for s, i2 in lkids[i].items():
                if lshort[i2] + rj <= room:
                    nexts.setdefault(s, set()).add((i2, j))
            for s, j2 in rkids[j].items():
                if li + rshort[j2] <= room:
                    nexts.setdefault(s, set()).add((i, j2))
        stack += [(w + (s,), p) for s, p in nexts.items()]
    return frozenset(out)


def enumerate_words(l: LangExpr, max_len: int) -> set[Word]:
    """All words of the language up to `max_len`.

    Computed by a denotational evaluator over length-bounded word sets,
    independently of the derivative engine, so the result can serve as an
    oracle for `member`, `includes` and `equiv`.  Raises StateBudgetExceeded
    when a word set it builds would hold more than `STATE_BUDGET` words, or
    when the word sets it builds, those of subterms included, would hold
    more than 20 times that many symbols in all.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    try:
        return set(_words_upto(l, max_len, _Memo()))
    except StateBudgetExceeded as e:
        raise StateBudgetExceeded(
            f"enumeration exceeded {e} up to length {max_len}"
        ) from None


@lru_cache(maxsize=None)
def partial_derivatives(s: MsgType, e: LangExpr) -> tuple[LangExpr, ...]:
    """Partial derivatives: the terms whose union is `derivative(s, e)`,
    without `EMPTY`, sorted once by `_order` so every user walks them as is.

    Keeping the union as a set of alternation-free-at-the-top terms keeps
    state spaces small where full derivatives would aggregate exponentially
    many distinct unions.
    """
    match e:
        case Empty() | Eps():
            return ()
        case Sym(t):
            return (EPS,) if t == s else ()
        case Alt(items):
            out = set().union(*[partial_derivatives(s, x) for x in items])
        case Cat():
            # Walk the nullable heads in a loop; each term shares its tail.
            out, tail = set(), e
            while type(tail) is Cat:
                a, tail = tail.left, tail.right
                out.update(cat(da, tail) for da in partial_derivatives(s, a))
                if not a._nullable:
                    break
            else:
                out.update(partial_derivatives(s, tail))
        case Star(a):
            out = {cat(da, e) for da in partial_derivatives(s, a)}
        case Shuffle(items):
            # A step of the shuffle is a step of one operand.
            out = {
                shuffle(*items[:i], dx, *items[i + 1 :])
                for i, x in enumerate(items)
                for dx in partial_derivatives(s, x)
            }
        case And(items):
            steps = product(*[partial_derivatives(s, x) for x in items])
            out = {conj(*ds) for ds in steps}
        case _:
            raise TypeError(f"not a language expression: {e!r}")
    out.discard(EMPTY)
    return tuple(sorted(out, key=_key))


def _terms(e: LangExpr) -> frozenset[LangExpr]:
    return frozenset(_operands(Alt, (e,))) - {EMPTY}


def is_empty(l: LangExpr) -> bool:
    """True iff the language denotes no words.

    The pair search against no right terms, without a state budget: a
    term known to hold a word (`_nonempty`) refutes at once, so a union of
    terms without `&` is decided at its first pair.  Below an `&`, that
    fact knows only nullable terms, and the search looks for a nullable
    term in the partial-derivative closure.  A language known to hold a
    word is answered by that fact, as the search would at its first pair.
    """
    if l._nonempty:
        return False
    return _pair_search(_terms(l), frozenset())


def includes(sub: LangExpr, sup: LangExpr) -> bool:
    """Decide language inclusion by derivative-pair coinduction.

    Raises StateBudgetExceeded when the pair closure (`_pair_search`)
    outgrows `STATE_BUDGET` pairs.  Two cases are answered without it, as
    it would answer them at its first pairs: a language includes itself
    (every left term occurs on the right), and `eps` is included exactly
    where the right side is nullable.
    """
    if sub is sup:
        return True
    if sub is EPS:
        return nullable(sup)
    return _pair_search(_terms(sub), _terms(sup), STATE_BUDGET)


def _pair_search(
    lefts, right0: frozenset[LangExpr], cap: int | None = None
) -> bool:
    """True iff every word of the `lefts` terms is a word of `right0`'s.

    States pair one partial-derivative term of the left language with the
    set of terms the right language has reached; a pair is a counterexample
    witness when the left term is nullable and no right term is, or when
    the right set is empty and the left term is known to hold a word
    (`_nonempty`: some word of it is then in no right term).  Pairs whose
    left term literally occurs on the right hold reflexively.  The
    memoized hypothesis set is per call, so concurrent callers share
    nothing.  Raises StateBudgetExceeded past `cap` pairs, if one is given.

    The walk is depth-first over a stack of successor iterators, one per
    pair on the path from a first pair to the current one (`_successors`),
    and its order is fixed by the expressions: left terms, symbols and
    each set of partial derivatives are visited in ascending structural
    order (`_order`, symbol names); only the left terms are sorted here.
    Verdicts, pair counts and budget refusals are then the same in every
    process, whatever the hash seed or the nodes' addresses.  A pair's
    successors are derived when the walk steps to them, so a refutation
    derives only the pairs on and beside its path.
    """
    seen: set[tuple[LangExpr, frozenset[LangExpr]]] = set()
    walk = [iter([(t, right0) for t in sorted(lefts, key=_key)])]
    while walk:
        for t, rights in walk[-1]:
            if t in rights or (t, rights) in seen:
                continue
            accepts = any(r._nullable for r in rights)
            if t._nullable and not accepts or t._nonempty and not rights:
                return False
            seen.add((t, rights))
            if cap is not None and len(seen) > cap:
                raise StateBudgetExceeded(
                    f"inclusion check exceeded {cap} derivative pairs"
                )
            walk.append(_successors(t, rights, accepts))
            break
        else:
            walk.pop()
    return True


def _successors(t: LangExpr, rights: frozenset[LangExpr], accepts: bool):
    """The pairs one symbol after (t, rights), in the walk's order.

    There are none to walk when `accepts` (some right term is nullable) and
    the right successor set is `rights` itself for every symbol of t.  By induction
    on length, `rights` then holds every word over `symbols(t)`: the empty
    word because it is nullable, and s.w because its s-derivative is
    `rights` again.  Every word of t is spelled in `symbols(t)`, so the
    pair holds without being expanded.  The rule stops at the first symbol
    whose set differs; the sets it computed are kept for the expansion,
    which computes the rest, and the left term's partial derivatives, one
    symbol at a time.  An empty right side is never nullable, so
    `is_empty` never uses the rule.
    """
    known = {}
    if accepts:
        for s in t._symbols:
            known[s] = step = _step(s, rights)
            if step != rights:
                break
        else:
            return  # `rights` holds every word over symbols(t)
    for s in t._symbols:
        terms = partial_derivatives(s, t)
        if terms:
            step = known[s] if s in known else _step(s, rights)
            for t2 in terms:
                yield t2, step


def _step(s: MsgType, rights: frozenset[LangExpr]) -> frozenset[LangExpr]:
    """The terms the right side reaches from `rights` by `s`."""
    return frozenset().union(*[partial_derivatives(s, r) for r in rights])


def equiv(l1: LangExpr, l2: LangExpr) -> bool:
    return includes(l1, l2) and includes(l2, l1)


# ---------------------------------------------------------------------------
# Textual syntax: 0, eps, <Name>, ".", "|", "#", "&", postfix "*", parens.
# Precedence: * > . > # > & > |.  The binary levels, one table for the
# printer and the parser; postfix "*" binds at level 5.

_LEVEL = {Alt: (1, "|"), And: (2, "&"), Shuffle: (3, "#"), Cat: (4, ".")}


def lang_to_text(e: LangExpr) -> str:
    return _print(e, 0)


def _print(e: LangExpr, ctx: int) -> str:
    match e:
        case Empty():
            return "0"
        case Eps():
            return "eps"
        case Sym(s):
            return f"<{s}>"
        case Star(i):
            return _print(i, 5) + "*"
        case Cat():  # a chain prints flat, its right spine walked in a loop
            *lefts, last = _chain(Cat, e)
        case _Nary(items):
            *lefts, last = items
        case _:
            raise TypeError(f"not a language expression: {e!r}")
    lvl, op = _LEVEL[type(e)]
    body = op.join([*(_print(x, lvl + 1) for x in lefts), _print(last, lvl)])
    return f"({body})" if ctx > lvl else body


# One match per token, its text the one group: blanks are a prefix of the
# match. A symbol is `<` and the name after it, which may be empty; the `>`
# that closes it is a token of its own, so blanks may come before it. Every
# other character is a token of its own (an operator, a parenthesis, `0`, or
# one no rule admits), and the empty match at the end of the text ends it.
_LANG_TOKEN = re.compile(r"\s*(<\w*|eps(?!\w)|.|\Z)", re.DOTALL)

_OP_BUILD = {"|": alt, "&": conj, "#": shuffle, ".": cat}
_OP_LEVEL = {op: lvl for lvl, op in _LEVEL.values()}


class _LangParser:
    """Precedence climbing over the tokens of one text: `toks[i]` is the
    token's text (`<` and the name for a symbol, empty at the end).  An
    error finds its token's offset by scanning the text again."""

    def __init__(self, text: str, alphabet):
        self.text = text
        self.toks = _LANG_TOKEN.findall(text)
        if len(self.toks) > 1 and not self.toks[-2]:
            # After a tail of blanks, the end matches once more.
            self.toks.pop()
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str, i: int, shift: int = 0) -> LangParseError:
        """`message` at the offset of token `i` plus `shift`."""
        m = next(islice(_LANG_TOKEN.finditer(self.text), i, None))
        return LangParseError(message, m.start(1) + shift)

    def expect(self, kind: str):
        if self.toks[self.pos] != kind:
            raise self.error(f"expected {kind!r}", self.pos)
        self.pos += 1

    def binary(self, min_lvl: int = 1) -> LangExpr:
        """The operators of `_LEVEL` at `min_lvl` or tighter: the operands
        of one operator, each parsed a level tighter, are collected and the
        chain is built by one call of its smart constructor."""
        e = self.post()
        while _OP_LEVEL.get(op := self.toks[self.pos], 0) >= min_lvl:
            parts = [e]
            while self.toks[self.pos] == op:
                self.pos += 1
                parts.append(self.binary(_OP_LEVEL[op] + 1))
            e = _OP_BUILD[op](*parts)
        return e

    def post(self) -> LangExpr:
        e = self.atom()
        while self.toks[self.pos] == "*":
            self.pos += 1
            e = star(e)
        return e

    def atom(self) -> LangExpr:
        i = self.pos
        tok = self.toks[i]
        if tok[:1] == "<":
            name = tok[1:]
            if not name:
                raise self.error("expected a symbol name", i, 1)
            self.pos = i + 1
            self.expect(">")
            if self.alphabet is not None and name not in self.alphabet:
                raise self.error(f"undeclared symbol <{name}>", i, 1)
            return Sym(name)
        if tok == "(":
            self.pos = i + 1
            e = self.binary()
            self.expect(")")
            return e
        if tok == "0":
            self.pos = i + 1
            return EMPTY
        if tok == "eps":
            self.pos = i + 1
            return EPS
        raise self.error("expected a language atom", i)


def parse_lang(text: str, alphabet=None) -> LangExpr:
    """Parse the textual language syntax.

    When `alphabet` is given, symbols outside it are rejected.
    """
    p = _LangParser(text, alphabet)
    e = p.binary()
    if p.toks[p.pos]:
        raise p.error("trailing input", p.pos)
    return e
