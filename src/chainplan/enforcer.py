"""Schema-constrained decoding over plan texts.

Compiles a tool registry into a deterministic character-level acceptor of
exactly the schema-valid plan texts (canonical whitespace-free form, tool and
argument names restricted to the registry). The automaton backs
next-character queries, vocabulary masks for token-level decoders, and a
greedy projection repair that maps arbitrary candidate text onto the accepted
language, the mechanism used to "enforce" outputs of models whose token
distributions are inaccessible.

States are immutable tuples; transitions are pure functions of
(state, character), so one automaton may serve many concurrent sessions.
Both automata, for sub-tasks and for plans, run one transition over an
array of records, built from four pieces that each carry their continuation:

- literal ``("lit", text, i, then)`` matches ``text[i]`` and, at the end of
  ``text``, continues in ``then``;
- field ``("field", spec, then, vstate)`` runs the value machine of ``spec``
  and, once the value is done, continues in the literal ``then``;
- name ``("name", prefix)`` spells one of the automaton's sorted names and,
  after its closing quote, continues in ``_after_name(name)``;
- array ``("open"|"sep", item, close)``, after ``[`` or after an item: an
  item opens with the literal ``item`` (``None``: no further item), and
  ``]`` continues in ``close``.

The sub-task automaton is these pieces alone. The plan automaton adds
``("aname", tool, used, prefix)``, which spells an argument of ``tool`` not
yet ``used``. One number machine serves integers, unsigned ids and floats,
one fixed-words machine ``true``/``false`` and ``null``; an object member's
value is a union of string, float, boolean and null. The next-character set
of a state is derived from the transition over printable ASCII. That set is
exact because tool and argument names are identifiers (``[A-Za-z0-9_]+``),
which a ``Registry`` guarantees when it is built and the sub-task automaton
checks at compile time, and every other accepted character is printable
ASCII.
Each automaton memoizes those sets on a state's shape, which allows the same
characters: a literal state without its ``then``, an open string with room
for one more character as its count-free shape (defined below), any other
state as itself. The memo is bounded and cleared when full. Sessions share
it safely: the sets are immutable, and a lost entry only costs a rescan.

Vocabulary masks are exact: a token is allowed if and only if feeding it
character by character would succeed. A vocabulary belongs to the model: it
is indexed once (``vocabulary_index``) into a ``TokenIndex`` (sorted distinct
tokens, one shared-prefix byte per token, the token range of each first
character and a dict of every token mapped to False, about 0.5 MB for 8k
tokens) that every automaton and session shares. A session maps its
candidates through a verdict table in C; tokens outside the index are fed one
by one from the session's state. A structural state's table is a copy of that
dict with the accepted tokens set to True, from one pass over the implicit
trie that visits only the first characters the state allows, memoizes
transitions for the pass and jumps by bisection past every token under a
rejected prefix. String states far from the cap reuse their verdicts: when an
open string's count ``n`` and the longest indexed token's length ``reach``
satisfy ``n + reach <= MAX_STRING_CHARS``, every indexed token is accepted
from the state exactly when it is accepted from its count-free shape (the
same state with ``n`` set to 0). A token without ``"`` cannot leave the
string, so its verdict is the string machine's alone, kept once per index for
each innermost string shape; only the tokens with a ``"`` are walked per
(automaton, count-free shape).

Accepted value shapes per argument are deliberately relaxed around
references: both a bare ``"$$PREV[i]"`` and a singleton ``["$$PREV[i]"]``
are accepted at decode time for any argument; the type graph owns the
wrapping decision afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial

from .registry import IDENTIFIER_PATTERN, Registry, ValueType

# Bounds keep the state space finite and guarantee repair termination.
MAX_STRING_CHARS = 512
MAX_NUMBER_DIGITS = 12
MAX_OBJECT_KEY_CHARS = 64

_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))
_STRING_BODY = frozenset(_PRINTABLE) - {'"', "\\"}
_ESCAPES = frozenset('"\\/bfnrt')
_HEX = frozenset("0123456789abcdefABCDEF")
_DIGITS = frozenset("0123456789")
_DIGITS_NONZERO = frozenset("123456789")

_PREV_LIT = '"$$PREV['


class SchemaCompileError(ValueError):
    """The registry cannot be compiled into an automaton."""


class DecodeRejection(ValueError):
    """A character was fed that the automaton cannot accept."""

    def __init__(self, position: int, char: str, allowed: frozenset[str]):
        preview = "".join(sorted(allowed))[:40]
        super().__init__(f"rejected character {char!r} at position {position}; allowed: {preview!r}")
        self.position = position
        self.char = char
        self.allowed = allowed


# ---------------------------------------------------------------------------
# Value sub-machines. A value spec is a nested tuple; value states are nested
# tuples tagged by machine. ``None`` from _v_step means reject.
# ---------------------------------------------------------------------------

_NUMBER_KINDS = frozenset(("integer", "uint", "float"))
_WORDS = {"boolean": ("true", "false"), "null": ("null",)}

# An object member's value: the four branches start with distinct characters.
_MEMBER_SPEC = ("union", (("string",), ("float",), ("boolean",), ("null",)))


def _value_spec(vt: ValueType) -> tuple:
    if vt.kind == "primitive":
        return (vt.primitive,)
    if vt.kind == "object":
        return ("object",)
    return ("list", _element_spec(vt.element))


def _element_spec(vt: ValueType) -> tuple:
    inner = _value_spec(vt)
    if inner == ("string",):
        return inner  # strings already cover the reference pattern
    return ("union", (inner, ("prev",)))


def argument_value_spec(vt: ValueType) -> tuple:
    """Declared type, plus bare and singleton-array reference forms."""
    inner = _value_spec(vt)
    if inner[0] == "list":
        return ("union", (inner, ("prev",)))
    if inner == ("string",):
        return ("union", (inner, ("wrap",)))
    return ("union", (inner, ("prev",), ("wrap",)))


_V_INIT = {
    "union": ("u0",), "string": ("s0",), "integer": ("n0",), "uint": ("n0",), "float": ("n0",),
    "boolean": ("word", ""), "null": ("word", ""), "object": ("o0",), "list": ("l0",),
    "prev": ("p", 0), "wrap": ("w0",),
}
_V_DONE = {"string": ("sdone",), "prev": ("pdone",), "wrap": ("wdone",), "object": ("odone",), "list": ("ldone",)}


def _v_init(spec: tuple) -> tuple:
    return _V_INIT[spec[0]]


def _v_step(spec: tuple, state: tuple, ch: str):  # noqa: C901 - one dispatcher
    kind = spec[0]

    if kind == "union":
        if state == ("u0",):
            for bi, branch in enumerate(spec[1]):
                nxt = _v_step(branch, _v_init(branch), ch)
                if nxt is not None:
                    return ("u", bi, nxt)
            return None
        _, bi, sub = state
        nxt = _v_step(spec[1][bi], sub, ch)
        return None if nxt is None else ("u", bi, nxt)

    if kind == "string":
        tag = state[0]
        if tag == "s0":
            return ("s", 0) if ch == '"' else None
        if tag == "s":
            n = state[1]
            if ch == '"':
                return ("sdone",)
            if n < MAX_STRING_CHARS:
                if ch == "\\":
                    return ("se", n)
                if ch in _STRING_BODY:
                    return ("s", n + 1)
            return None
        if tag == "se":
            n = state[1]
            if ch == "u":
                return ("su", n, 0)
            if ch in _ESCAPES:
                return ("s", n + 1)
            return None
        if tag == "su":
            n, k = state[1], state[2]
            if ch in _HEX:
                return ("s", n + 1) if k == 3 else ("su", n, k + 1)
            return None
        return None  # sdone

    if kind in _NUMBER_KINDS:
        # -?(0|[1-9][0-9]*)(\.[0-9]+)?: no sign for uint, a fraction only
        # for float, at most MAX_NUMBER_DIGITS digits in each digit run.
        tag = state[0]
        if tag == "n0" and ch == "-" and kind != "uint":
            return ("nneg",)
        if tag in ("n0", "nneg"):
            if ch == "0":
                return ("nz",)
            return ("ni", 1) if ch in _DIGITS_NONZERO else None
        if ch == "." and kind == "float" and tag in ("nz", "ni"):
            return ("ndot",)
        if tag == "ndot":
            return ("nf", 1) if ch in _DIGITS else None
        if tag in ("ni", "nf") and ch in _DIGITS and state[1] < MAX_NUMBER_DIGITS:
            return (tag, state[1] + 1)
        return None

    if kind in _WORDS:
        text = state[1] + ch
        return ("word", text) if any(word.startswith(text) for word in _WORDS[kind]) else None

    if kind == "prev":
        tag = state[0]
        if tag == "p":
            i = state[1]
            if ch == _PREV_LIT[i]:
                return ("pd", 0) if i == len(_PREV_LIT) - 1 else ("p", i + 1)
            return None
        if tag == "pd":
            n = state[1]
            if ch in _DIGITS and n < MAX_NUMBER_DIGITS:
                return ("pd", n + 1)
            if ch == "]" and n >= 1:
                return ("pq",)
            return None
        if tag == "pq":
            return ("pdone",) if ch == '"' else None
        return None  # pdone

    if kind == "wrap":
        tag = state[0]
        if tag == "w0":
            return ("wp", ("p", 0)) if ch == "[" else None
        if tag == "wp":
            sub = state[1]
            nxt = _v_step(("prev",), sub, ch)
            if nxt is not None:
                return ("wp", nxt)
            if _v_done(("prev",), sub) and ch == "]":
                return ("wdone",)
            return None
        return None  # wdone

    if kind == "object":
        tag = state[0]
        if tag == "o0":
            return ("of",) if ch == "{" else None
        if tag == "of":
            if ch == "}":
                return ("odone",)
            if ch == '"':
                return ("ok", 0)
            return None
        if tag == "ok":
            n = state[1]
            if ch == '"':
                return ("oc",)
            if ch in _STRING_BODY and n < MAX_OBJECT_KEY_CHARS:
                return ("ok", n + 1)
            return None
        if tag == "oc":
            return ("om", _v_init(_MEMBER_SPEC)) if ch == ":" else None
        if tag == "om":
            sub = state[1]
            nxt = _v_step(_MEMBER_SPEC, sub, ch)
            if nxt is not None:
                return ("om", nxt)
            if _v_done(_MEMBER_SPEC, sub):
                if ch == ",":
                    return ("onk",)
                if ch == "}":
                    return ("odone",)
            return None
        if tag == "onk":
            return ("ok", 0) if ch == '"' else None
        return None  # odone

    if kind == "list":
        espec = spec[1]
        tag = state[0]
        if tag == "l0":
            return ("lf",) if ch == "[" else None
        if tag == "lf":
            if ch == "]":
                return ("ldone",)
            nxt = _v_step(espec, _v_init(espec), ch)
            return None if nxt is None else ("le", nxt)
        if tag == "le":
            sub = state[1]
            nxt = _v_step(espec, sub, ch)
            if nxt is not None:
                return ("le", nxt)
            if _v_done(espec, sub):
                if ch == ",":
                    return ("ln",)
                if ch == "]":
                    return ("ldone",)
            return None
        if tag == "ln":
            nxt = _v_step(espec, _v_init(espec), ch)
            return None if nxt is None else ("le", nxt)
        return None  # ldone

    raise ValueError(f"unknown value spec {spec!r}")


def _v_done(spec: tuple, state: tuple) -> bool:
    kind = spec[0]
    if kind == "union":
        return state != ("u0",) and _v_done(spec[1][state[1]], state[2])
    if kind in _NUMBER_KINDS:
        return state[0] in ("nz", "ni", "nf")
    if kind in _WORDS:
        return state[1] in _WORDS[kind]
    return state == _V_DONE[kind]


# ---------------------------------------------------------------------------
# Automata: one scaffold of four pieces (see the module docstring). A field's
# ``vstate`` sits last, where ``_count_free_shape`` looks for an open string.
# Subclasses supply names, a top-level item, ``_after_name`` and, for states
# of their own, ``_own_step``.
# ---------------------------------------------------------------------------

_ACCEPT = ("accept",)


def _lit_step(state: tuple, ch: str):
    _, text, i, then = state
    if ch != text[i]:
        return None
    i += 1
    return then if i == len(text) else ("lit", text, i, then)


def _field(spec: tuple, then: tuple) -> tuple:
    return ("field", spec, then, _v_init(spec))


def _extends(names: tuple[str, ...], prefix: str) -> bool:
    """Whether some name of the sorted tuple ``names`` starts with ``prefix``."""
    i = bisect_left(names, prefix)
    return i < len(names) and names[i].startswith(prefix)


# Next-character sets an automaton keeps before it clears them all.
_ALLOWED_CACHE_SIZE = 4096


class _Automaton:
    def __init__(self, names: tuple[str, ...], item: tuple):
        self._names = names
        self._name_set = frozenset(names)
        self.initial_state = ("lit", "[", 0, ("open", item, _ACCEPT))
        self._item_close = ("lit", "}", 0, ("sep", item, _ACCEPT))
        self._allowed: dict[tuple, frozenset[str]] = {}

    def accepting(self, state: tuple) -> bool:
        return state == _ACCEPT

    def transition(self, state: tuple, ch: str):
        tag = state[0]
        if tag == "lit":
            return _lit_step(state, ch)
        if tag == "field":
            _, spec, then, vstate = state
            nxt = _v_step(spec, vstate, ch)
            if nxt is not None:
                return ("field", spec, then, nxt)
            return _lit_step(then, ch) if _v_done(spec, vstate) else None
        if tag == "name":
            prefix = state[1]
            if ch == '"' and prefix in self._name_set:
                return self._after_name(prefix)
            cand = prefix + ch
            return ("name", cand) if _extends(self._names, cand) else None
        if tag == "open" or tag == "sep":
            _, item, close = state
            if ch == "]":
                return close
            if item is None:
                return None
            if tag == "open":
                return _lit_step(item, ch)
            return item if ch == "," else None
        return None if tag == "accept" else self._own_step(state, ch)

    def allowed(self, state: tuple) -> frozenset[str]:
        """The printable ASCII characters ``transition`` accepts from ``state``.

        Memoized per automaton on the state's shape, which allows the same
        characters: a literal state drops ``then``, since ``_lit_step``
        accepts ``text[i]`` alone whatever follows; a string state with room
        for one more character takes its count-free shape; any other state is
        its own shape. At ``_ALLOWED_CACHE_SIZE`` shapes the memo is cleared.
        Sessions may share it: the sets are immutable, and a lost entry only
        costs a rescan.
        """
        if state[0] == "lit":
            key = state[:3]
        else:
            key = _count_free_shape(state, 1) or state
        found = self._allowed.get(key)
        if found is None:
            transition = self.transition
            found = frozenset(ch for ch in _PRINTABLE if transition(state, ch) is not None)
            if len(self._allowed) >= _ALLOWED_CACHE_SIZE:
                self._allowed.clear()
            self._allowed[key] = found
        return found


class PlanAutomaton(_Automaton):
    """Deterministic character acceptor for schema-valid plan texts:
    ``[{"tool_name":name,"arguments":[{"argument_name":arg,"argument_value":value}]}]``.
    An argument list offers no further item once every argument is used."""

    def __init__(self, registry: Registry):
        if not registry.tools:
            raise SchemaCompileError("cannot compile a schema for an empty registry")
        super().__init__(tuple(sorted(registry.tools)), ("lit", '{"tool_name":"', 0, ("name", "")))
        self._args = {name: spec.argument_names for name, spec in registry.tools.items()}
        self._arg_specs = {
            (name, arg.name): argument_value_spec(arg.value_type)
            for name, spec in registry.tools.items()
            for arg in spec.arguments
        }

    def _after_name(self, tool: str) -> tuple:
        return ("lit", ',"arguments":[', 0, ("open", self._arg_item(tool, frozenset()), self._item_close))

    def _arg_item(self, tool: str, used: frozenset):
        if len(used) == len(self._args[tool]):
            return None
        return ("lit", '{"argument_name":"', 0, ("aname", tool, used, ""))

    def _own_step(self, state: tuple, ch: str):
        """``("aname", tool, used, prefix)``: an argument of ``tool`` not in ``used``."""
        _, tool, used, prefix = state
        unused = [a for a in self._args[tool] if a not in used]
        if ch == '"' and prefix in unused:
            then = ("lit", "}", 0, ("sep", self._arg_item(tool, used | {prefix}), self._item_close))
            return ("lit", ',"argument_value":', 0, _field(self._arg_specs[(tool, prefix)], then))
        cand = prefix + ch
        if any(a.startswith(cand) for a in unused):
            return ("aname", tool, used, cand)
        return None


def compile_schema(registry: Registry) -> PlanAutomaton:
    return PlanAutomaton(registry)


class SubTaskAutomaton(_Automaton):
    """Acceptor for decomposition output with tool names pinned to an enum:
    ``[{"id":uint,"thought":string,"tool_name":name}]``."""

    def __init__(self, tool_names):
        names = tuple(sorted(tool_names))
        if not names:
            raise SchemaCompileError("sub-task schema needs at least one tool name")
        for name in names:
            if not IDENTIFIER_PATTERN.fullmatch(name):
                raise SchemaCompileError(f"tool name {name!r} is not an identifier")
        tool = ("lit", ',"tool_name":"', 0, ("name", ""))
        thought = ("lit", ',"thought":', 0, _field(("string",), tool))
        super().__init__(names, ("lit", '{"id":', 0, _field(("uint",), thought)))

    def _after_name(self, name: str) -> tuple:
        return self._item_close


def compile_subtask_schema(tool_names) -> SubTaskAutomaton:
    return SubTaskAutomaton(tool_names)


# ---------------------------------------------------------------------------
# Decode sessions and greedy projection repair
# ---------------------------------------------------------------------------

# Shared-prefix lengths are stored one byte each. A longer shared prefix is
# recorded as the cap and its rest walked again: slower, never wrong.
_SHARED_CAP = 255
_UNSEEN = object()
_LAST_CHAR = chr(0x10FFFF)  # the one character without a successor
_STRING_TAGS = frozenset(("s", "se", "su"))


def _count_free_shape(state: tuple, room: int):
    """``state`` with the count of its open string set to 0, or None unless
    ``state`` is inside a string whose count leaves at least ``room``
    characters below ``MAX_STRING_CHARS``.

    An open string state, ``("s", n)``, ``("se", n)`` or ``("su", n, k)``,
    sits at the last position of every state that contains it.
    """
    last = state[-1]
    if isinstance(last, tuple):
        inner = _count_free_shape(last, room)
        return None if inner is None else state[:-1] + (inner,)
    if state[0] in _STRING_TAGS and state[1] + room <= MAX_STRING_CHARS:
        return (state[0], 0) + state[2:]
    return None


def _innermost(state: tuple) -> tuple:
    """The innermost machine state of ``state``, which sits last in it."""
    while isinstance(state[-1], tuple):
        state = state[-1]
    return state


class _Trie:
    """Tokens as an implicit trie: the distinct tokens in sorted order, each
    with the length of the prefix it shares with the token before it, and the
    range of tokens under each first character.

    ``rejected`` maps every token, in sorted order, to False; a walk sets the
    accepted tokens of a copy to True.
    """

    __slots__ = ("tokens", "shared", "rejected", "_spans")

    def __init__(self, vocabulary):
        self.tokens = sorted(set(vocabulary))
        self.shared = bytearray(len(self.tokens))
        previous = ""
        for i, token in enumerate(self.tokens):
            limit = min(len(previous), len(token), _SHARED_CAP)
            k = 0
            while k < limit and previous[k] == token[k]:
                k += 1
            self.shared[i] = k
            previous = token
        self.rejected = dict.fromkeys(self.tokens, False)
        firsts = sorted({token[0] for token in self.tokens if token})
        starts = [bisect_left(self.tokens, first) for first in firsts] + [len(self.tokens)]
        self._spans = {first: (starts[j], starts[j + 1]) for j, first in enumerate(firsts)}

    def _walk(self, transition, state: tuple, firsts, table: dict) -> None:
        """Set ``table[token]`` to True for every token that ``transition``
        consumes whole from ``state``, given ``firsts``, a superset of the
        first characters it accepts there; the empty token is accepted.

        Only the ranges of tokens under ``firsts`` are visited. In a range, a
        token starts from the states of the prefix it shares with the
        previous one. When a prefix ``p`` is rejected, the walk jumps by
        bisection to the first token that does not start with ``p``: the
        first one not below ``p`` with its last character incremented. A
        ``p`` ending in U+10FFFF has no such successor; the tokens after it
        are stepped over one by one. Transitions are memoized per (state,
        character) for the walk, so equal states reached by different
        prefixes are stepped once.
        """
        tokens = self.tokens
        shared = self.shared
        if tokens and not tokens[0]:
            table[""] = True
        # A node maps each character seen from its state to the next node,
        # or to None when the character is rejected; the key None holds the
        # node's own state.
        root = {None: state}
        nodes = {state: root}
        path = [root]  # path[k]: node after the first k characters of the last token walked
        for first in firsts:
            span = self._spans.get(first)
            if span is None:
                continue
            i, end = span
            while i < end:
                token = tokens[i]
                depth = shared[i]  # 0 at the start of a range
                del path[depth + 1:]
                here = path[depth]
                for ch in token[depth:]:
                    node = here.get(ch, _UNSEEN)
                    if node is _UNSEEN:
                        nxt = transition(here[None], ch)
                        node = here[ch] = None if nxt is None else nodes.setdefault(nxt, {None: nxt})
                    if node is None:
                        break
                    path.append(node)
                    here = node
                else:
                    table[token] = True
                    i += 1
                    continue
                # token[:cut] is rejected, and so is every token that starts with it
                cut = len(path)
                i += 1
                last = token[cut - 1]
                if last == _LAST_CHAR:
                    while i < end and shared[i] >= cut:
                        i += 1
                else:
                    i = bisect_left(tokens, token[:cut - 1] + chr(ord(last) + 1), i, end)


# Verdict tables of quoted tokens an index keeps, per (automaton, string
# shape), before it clears them all. Automata are compiled per plan and each
# key keeps its automaton alive, about 40 KB with its memo after a plan, so
# the bound is small; a plan decodes a few string shapes, and a table cleared
# too early costs one walk of the few quoted tokens.
_QUOTED_CACHE_SIZE = 32
_STRING_SPEC = ("string",)


class TokenIndex(_Trie):
    """A model's vocabulary as an implicit trie, built once per vocabulary
    (``vocabulary_index``) and shared by every automaton and session that
    masks it: about 0.5 MB for 8k tokens, and at most six string-body tables
    of the ``rejected`` size (see ``verdicts``). Kept tables are never
    changed, so sessions in different threads may share an index.
    """

    __slots__ = ("reach", "quoted", "_bodies", "_quoted_tables")

    def __init__(self, vocabulary):
        super().__init__(vocabulary)
        self.reach = max(map(len, self.tokens), default=0)
        self.quoted = _Trie(token for token in self.tokens if '"' in token)
        self._bodies: dict[tuple, dict[str, bool]] = {}
        self._quoted_tables: dict[tuple, dict[str, bool]] = {}

    def verdicts(self, automaton, state: tuple, peek) -> dict[str, bool]:
        """A fresh table: each indexed token mapped to whether ``automaton``
        consumes all of it from ``state``, any other token to ``peek(token)``.

        A state outside a string, or one with fewer than ``reach`` characters
        of room, is walked over the first characters ``automaton`` allows
        there: that set is exact, since every accepted character is
        printable ASCII. A string state with room takes the kept tables of
        its count-free shape:

        - the body table of its innermost string state, ``("s", 0)``,
          ``("se", 0)`` or ``("su", 0, k)``, walked once with the string
          machine alone;
        - laid over it, the verdicts of the tokens that contain ``"``
          (``quoted``), walked per (automaton, shape) and kept in a cache
          cleared when full.

        Both are exact. Every in-string character of an indexed token is
        checked at a count below the cap, and a closing quote leads to a
        count-free state, so a token is accepted from the state exactly
        when it is from the shape. A character the string machine rejects
        is rejected by every machine that encloses it, one it accepts is
        accepted, and only ``"`` leaves the string, so a token without
        ``"`` gets the body table's verdict from every automaton.
        """
        shape = _count_free_shape(state, self.reach)
        if shape is None:
            table = _Verdicts(self.rejected)
            self._walk(automaton.transition, state, automaton.allowed(state), table)
        else:
            table = _Verdicts(self._body(_innermost(shape)))
            table.update(self._quoted_verdicts(automaton, shape))
        table.peek = peek
        return table

    def _body(self, inner: tuple) -> dict[str, bool]:
        table = self._bodies.get(inner)
        if table is None:
            step = partial(_v_step, _STRING_SPEC)
            table = self.rejected.copy()
            self._walk(step, inner, [ch for ch in _PRINTABLE if step(inner, ch) is not None], table)
            self._bodies[inner] = table
        return table

    def _quoted_verdicts(self, automaton, shape: tuple) -> dict[str, bool]:
        key = (automaton, shape)
        table = self._quoted_tables.get(key)
        if table is None:
            table = self.quoted.rejected.copy()
            self.quoted._walk(automaton.transition, shape, automaton.allowed(shape), table)
            if len(self._quoted_tables) >= _QUOTED_CACHE_SIZE:
                self._quoted_tables.clear()
            self._quoted_tables[key] = table
        return table


# Vocabulary indexes kept at once: a process serves a few models at most.
_INDEXES_KEPT = 4


@lru_cache(maxsize=_INDEXES_KEPT)
def _index_of(vocabulary: tuple[str, ...]) -> TokenIndex:
    return TokenIndex(vocabulary)


def vocabulary_index(vocabulary) -> TokenIndex:
    """The index of ``vocabulary``, shared by every call with equal content
    (the same tokens in the same order); changed content builds a new one."""
    return _index_of(tuple(vocabulary))


class _Verdicts(dict):
    """A verdict table that answers a token outside the index with ``peek``:
    a session's, so from the session's current state."""

    __slots__ = ("peek",)

    def __missing__(self, token: str) -> bool:
        return self.peek(token)


class DecoderSession:
    """Single decode stream over a shared automaton, masking through
    ``index`` when it has one.

    The emitted buffer is always a prefix of some accepted string; ``advance``
    is atomic and leaves the session untouched on rejection.
    """

    def __init__(self, automaton, index: TokenIndex | None = None):
        self.automaton = automaton
        self.state = automaton.initial_state
        self.emitted = ""
        self.index = index

    @property
    def at_end(self) -> bool:
        return self.automaton.accepting(self.state)

    def advance(self, text: str) -> "DecoderSession":
        state = self.state
        for k, ch in enumerate(text):
            nxt = self.automaton.transition(state, ch)
            if nxt is None:
                raise DecodeRejection(len(self.emitted) + k, ch, self.automaton.allowed(state))
            state = nxt
        self.state = state
        self.emitted += text
        return self

    def peek(self, text: str) -> bool:
        """Whether the whole token could be consumed from the current state."""
        state = self.state
        for ch in text:
            state = self.automaton.transition(state, ch)
            if state is None:
                return False
        return True

    def mask_vocabulary(self, vocabulary: list[str]) -> list[bool]:
        """Speculative per-token mask, equal to ``[self.peek(t) for t in
        vocabulary]``; the session state is unchanged.

        With an index, the vocabulary is mapped in C through the index's
        verdict table for the current state (``TokenIndex.verdicts``), and
        tokens outside the index are peeked; without one, every token is.
        """
        if self.index is None:
            return list(map(self.peek, vocabulary))
        table = self.index.verdicts(self.automaton, self.state, self.peek)
        return list(map(table.__getitem__, vocabulary))

    def copy(self) -> "DecoderSession":
        dup = DecoderSession(self.automaton, self.index)
        dup.state = self.state
        dup.emitted = self.emitted
        return dup


@dataclass(frozen=True)
class Edit:
    kind: str  # "skip" | "insert" | "truncate"
    position: int  # index into the candidate text
    text: str


_REPAIR_LOOKAHEAD = 16
_INSERT_PRIORITY = ']}",:{['


def _priority_char(allowed: frozenset[str]) -> str:
    if '"' in allowed and _STRING_BODY <= allowed:
        # A string or object-key body: close it rather than pad it with
        # structural characters, which are legal content, up to the cap.
        return '"'
    for ch in _INSERT_PRIORITY:
        if ch in allowed:
            return ch
    digits = sorted(allowed & _DIGITS)
    if digits:
        return digits[0]
    return min(allowed)


def enforced_repair(automaton, candidate: str) -> tuple[str, list[Edit]]:
    """Greedy projection of arbitrary text onto the accepted language.

    Identity on accepted inputs. Otherwise, per automaton state: consume the
    current character when allowed; else emit the forced character when only
    one is allowed; else skip ahead to the nearest allowed character within a
    16-character window; else insert by fixed priority (the closing quote of
    a free string body, else structural closers first, then openers, then
    digits, then the smallest allowed character).
    Once the automaton accepts, any unconsumed suffix is dropped. Always
    terminates with accepted text; idempotent.
    """
    state = automaton.initial_state
    out: list[str] = []
    edits: list[Edit] = []
    i = 0
    n = len(candidate)
    while not automaton.accepting(state):
        if i < n:
            nxt = automaton.transition(state, candidate[i])
            if nxt is not None:
                state = nxt
                out.append(candidate[i])
                i += 1
                continue
        allowed = automaton.allowed(state)
        if len(allowed) == 1:
            pick = next(iter(allowed))
        else:
            window = candidate[i + 1 : i + 1 + _REPAIR_LOOKAHEAD]
            jump = next((j for j, c in enumerate(window) if c in allowed), None)
            if jump is not None:
                # the next pass consumes the allowed character skipped to
                edits.append(Edit("skip", i, candidate[i : i + 1 + jump]))
                i += 1 + jump
                continue
            pick = _priority_char(allowed)
        state = automaton.transition(state, pick)
        out.append(pick)
        edits.append(Edit("insert", i, pick))
    if i < n:
        edits.append(Edit("truncate", i, candidate[i:]))
    return "".join(out), edits
