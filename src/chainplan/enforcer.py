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
One transition runs both automata, for sub-tasks and for plans, over an
array of records built from pieces that carry their continuation, the state
the text goes on in once the piece is done:

- literal ``("lit", text, i, then)`` matches ``text[i]`` and, at the end of
  ``text``, continues in ``then``;
- name ``("name", key, prefix)`` spells one of the sorted names of
  ``key`` (``_names``) and, after its closing quote, continues in
  ``_after_name(key, name)``. ``key`` is None for tool names;
- records ``("open"|"sep", item, close)``, after ``[`` or after a record:
  a record opens with the literal ``item`` (``None``: no further record),
  and ``]`` continues in ``close``;
- sequence ``("lf"|"le", espec, close, then)``, after its opener or after an
  element: ``,``-separated values of ``espec``, then ``close`` and ``then``.
  An object is a list of members: ``("lf", ("member", value), "}", then)``
  with ``value`` its members' value spec;
- value ``_start(spec, then)``, the first state of a value of ``spec``. A
  string steps into ``then`` on its closing ``"``, an object or a list on
  its sequence's ``close``. ``true``, ``false``, ``null`` and the fixed
  text of a reference ``"$$PREV[i]"`` around its index are literals. A union
  ``("u0", branches, then)`` hands its first character to the first branch
  that takes it. Only a number ends without a closing character: a
  character it does not take is stepped from ``then``.

Both automata are these pieces alone: the plan automaton's argument names
are name pieces keyed by ``(tool, unused)``, the sorted arguments of
``tool`` the call has not written yet, read from the registry once when the
argument list opens; each goes on in ``,"argument_value":`` and its value,
and the next record's key drops the name written. One number
machine serves integers and the unsigned sub-task ids and reference indices,
which are canonical (no leading zero). A float is JSON's number as
``json.dumps`` writes it: an exponent ``[eE][+-]?[0-9]+`` follows only a
one-digit integer part and its fraction, so ``12e3`` is refused, and the
value stays finite. A negative exponent takes any digits, a positive one at
most 308; at 308 the mantissa's digits must stay below ``_FINITE``, the
digits of ``2**1024 - 2**970``, where a double rounds to infinity, which a
comparison position in the state checks digit by digit. Left open: a plain
float with 309 or more integer digits and a fraction may read as infinity,
which ``load_json`` refuses. A member ``"key":value`` has a string key and
any JSON value whose arrays and objects nest at most ``MAX_LIST_DEPTH``
levels below the member's object (``_json_spec``). No value is capped in
length: no state counts characters, except a float's comparison position
and positive exponent, which stop at 309 digits and at 308. A literal state's
next-character set is its one character, an open string's is a constant of
its tag, and a name state reads its set off the sorted names, one bisection
per distinct next character; every other state scans the transition over
printable ASCII. The sets are exact because every literal is printable
ASCII, tool and argument names are identifiers (``[A-Za-z0-9_]+``), which a
``Registry`` guarantees when it is built and the sub-task automaton checks
at compile time, and every other accepted character is printable ASCII.

Every walk of an automaton, in decoding (``DecoderSession``), masks
(``TokenIndex``) and projection (``enforced_repair``), steps through the one
transition graph it builds lazily: a node per state reached, a dict mapping
None to the state and each character stepped from it to the successor node,
or to None when the state rejects it. Only a character not yet stepped from
a node calls ``transition`` (``successor``). A state holds the tool, its
unused arguments and the position inside a value, never the calls made
before, so texts pass through the same states and step along kept edges. At
``_GRAPH_SIZE`` nodes the graph is cleared. A node also keeps, once asked
for, its next-character set (``allowed``) and its forced run (``forced``):
the text of the chain of states that each allow exactly one character,
stepped once with ``transition``, and the node after it. A literal's
characters take no node; any other state of a run gets one, which keeps its
set. Projection inserts such a run in one pass instead of one loop turn per
character. Walks in any thread share the graph safely: an edge, a set and a
run are pure functions of the state, and a string node's quoted-token table
(below) of the state and the index, so a node still held after a clear stays
correct and a lost node only costs a restep; a walk decides acceptance from
a node's state, never from the node.

Vocabulary masks are exact: a token is allowed if and only if feeding it
character by character would succeed. A vocabulary belongs to the model: it
is indexed once (``vocabulary_index``) into a ``TokenIndex`` (sorted distinct
tokens, one shared-prefix byte per token, the token range of each first
character and a dict of every token mapped to False, about 0.5 MB for 8k
tokens) that every automaton and session shares. A session maps all its
candidates at every step, in C, through one verdict table of its own, kept
from step to step and changed in place; tokens outside the index are fed one
by one from the node the table was last set for. A structural state sets its
accepted tokens to True, from one pass over the implicit trie from the
session's node that visits only the first characters the state allows,
steps through the graph and jumps by bisection past every token under a
rejected prefix, after resetting to False only the tokens the previous
structural state set; after a string state the table is first refilled from
that dict. String states reuse their verdicts: a token without ``"`` cannot
leave the string, so its verdict is the string's alone, kept once per index
for each string state without ``then``; only the tokens with a ``"`` are
walked per string state, and their table is kept on the state's node under
the index as key, cleared with the graph like its set and run. A string step
on the node of the session's previous step reuses the session's table as it
is; any other refills it from those two. The index's tables are only copied,
never changed, and a session's table is never shared; ``constrained_complete``
drops it when a decode ends.

Accepted value shapes per argument are deliberately relaxed around
references: both a bare ``"$$PREV[i]"`` and a singleton ``["$$PREV[i]"]``
are accepted at decode time for any argument; the type graph owns the
wrapping decision afterwards. What a literal of a type may be is these value
states alone: ``literal_fits`` walks them over a literal's canonical text,
and ``validate_plan`` reads its verdict.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from typing import NamedTuple

from .plan import CANONICAL_JSON
from .registry import IDENTIFIER_PATTERN, MAX_LIST_DEPTH, Registry, ValueType

_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))
_STRING_BODY = frozenset(_PRINTABLE) - {'"', "\\"}
_ESCAPES = frozenset('"\\/bfnrt')
_HEX = frozenset("0123456789abcdefABCDEF")
_DIGITS = frozenset("0123456789")
_DIGITS_NONZERO = frozenset("123456789")


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
# Value specs. A value spec is a nested tuple; ``_start(spec, then)`` is the
# first state of a value of ``spec`` that continues in ``then``.
# ---------------------------------------------------------------------------

_BOOLEAN = ("union", (("lit", "true"), ("lit", "false")))
_NULL = ("lit", "null")
_PREV = ("prev",)


def _json_spec(depth: int) -> tuple:
    """Any JSON value whose arrays and objects nest at most ``depth`` levels,
    an object member's value; the branches start with distinct characters."""
    branches = (("string",), ("float",), _BOOLEAN, _NULL)
    if depth:
        inner = _json_spec(depth - 1)
        branches += (("list", inner), ("object", inner))
    return ("union", branches)


# An object's spec holds its members' value spec.
_OBJECT = ("object", _json_spec(MAX_LIST_DEPTH))


def _value_spec(vt: ValueType) -> tuple:
    if vt.kind == "primitive":
        return _BOOLEAN if vt.primitive == "boolean" else (vt.primitive,)
    if vt.kind == "object":
        return _OBJECT
    return ("list", ("union", (_value_spec(vt.element), _PREV)))


def argument_value_spec(vt: ValueType) -> tuple:
    """Declared type, plus bare and singleton-array reference forms. A union
    hands a character to its first branch that takes it, so after a string
    the bare reference, and after a list the wrapped one, never takes one:
    the string or the list already spells it."""
    return ("union", (_value_spec(vt), _PREV, ("wrap",)))


def _start(spec: tuple, then: tuple) -> tuple:
    """The first state of a value of ``spec`` that continues in ``then``."""
    kind = spec[0]
    if kind == "union":
        return ("u0", spec[1], then)
    if kind == "lit":
        return ("lit", spec[1], 0, then)
    if kind == "string":
        return ("lit", '"', 0, ("s", then))
    if kind == "integer" or kind == "uint":
        return ("n0", kind, then)
    if kind == "float":
        return ("f0", then)
    if kind == "object":
        return ("lit", "{", 0, ("lf", ("member", spec[1]), "}", then))
    if kind == "list":
        return ("lit", "[", 0, ("lf", spec[1], "]", then))
    if kind == "prev":
        return ("lit", '"$$PREV[', 0, _start(("uint",), ("lit", ']"', 0, then)))
    if kind == "wrap":
        return ("lit", "[", 0, _start(_PREV, ("lit", "]", 0, then)))
    if kind == "member":
        return _start(("string",), ("lit", ":", 0, _start(spec[1], then)))
    raise ValueError(f"unknown value spec {spec!r}")


# The digits of 2**1024 - 2**970, halfway between the largest finite double
# and 2**1024, where a double rounds to infinity: m * 10**308 is finite
# exactly when the digits of the mantissa m stay below these. The last digit
# is not 0, so a mantissa that matches only a prefix of them is below.
_FINITE = str(2**1024 - 2**970)
_BELOW, _NOT_BELOW = -1, len(_FINITE)


def _compare(c: int, ch: str) -> int:
    """A mantissa's comparison with ``_FINITE`` after its next digit ``ch``,
    from ``c`` before it: ``_BELOW`` or ``_NOT_BELOW`` once a digit differed
    or every digit of ``_FINITE`` matched, else how many have matched."""
    if c == _BELOW or c == _NOT_BELOW:
        return c
    bound = _FINITE[c]
    return c + 1 if ch == bound else _BELOW if ch < bound else _NOT_BELOW


# ---------------------------------------------------------------------------
# Automata: one transition over the pieces of the module docstring.
# Subclasses supply the tool names, a top-level item and ``_after_name``.
# ---------------------------------------------------------------------------

_ACCEPT = ("accept",)


def _first_from(names: tuple[str, ...], prefix: str) -> str:
    """The first name of the sorted tuple ``names`` not below ``prefix``, or ""."""
    i = bisect_left(names, prefix)
    return names[i] if i < len(names) else ""


# Nodes of the transition graph every walk of an automaton steps through,
# kept before it clears them all: about 560 B each with state, edges and
# next-character set by tracemalloc over projected regains-1k answers, so
# about 2.3 MB at the bound. A string state's node may also hold one small
# table per index that masked it: the verdicts of the index's quoted tokens.
_GRAPH_SIZE = 4096
_UNSEEN = object()
# The keys of a node's forced run (``forced``) and next-character set
# (``allowed``); no character is either key.
_FORCED = object()
_ALLOWED = object()

# The next characters of an open string, whatever its ``then``: in the body,
# after a backslash, inside ``\u``.
_STRING_NEXT = {"s": frozenset(_PRINTABLE), "se": _ESCAPES | {"u"}, "su": _HEX}


class _Automaton:
    def __init__(self, tools: tuple[str, ...], item: tuple):
        self._tools = tools
        self.initial_state = ("lit", "[", 0, ("open", item, _ACCEPT))
        self._item_close = ("lit", "}", 0, ("sep", item, _ACCEPT))
        self._graph: dict[tuple, dict] = {}

    def accepting(self, state: tuple) -> bool:
        return state == _ACCEPT

    def _names(self, key) -> tuple[str, ...]:
        """The sorted names the name piece keyed by ``key`` spells: the tool
        names for None, else the names the key holds after its tool."""
        return self._tools if key is None else key[1]

    def transition(self, state: tuple, ch: str):  # noqa: C901 - one dispatcher
        """The state after ``ch``, or None if ``state`` does not take it."""
        tag = state[0]
        if tag == "lit":
            _, text, i, then = state
            if ch != text[i]:
                return None
            i += 1
            return then if i == len(text) else ("lit", text, i, then)

        # An open string: ("s", then), after a backslash ("se", then),
        # inside \u at hex digit k ("su", k, then).
        if tag == "s":
            if ch == '"':
                return state[1]
            if ch == "\\":
                return ("se", state[1])
            return state if ch in _STRING_BODY else None
        if tag == "se":
            if ch == "u":
                return ("su", 0, state[1])
            return ("s", state[1]) if ch in _ESCAPES else None
        if tag == "su":
            _, k, then = state
            if ch not in _HEX:
                return None
            return ("s", then) if k == 3 else ("su", k + 1, then)

        if tag == "name":
            _, key, prefix = state
            names = self._names(key)
            if ch == '"':
                return self._after_name(key, prefix) if _first_from(names, prefix) == prefix else None
            cand = prefix + ch
            return ("name", key, cand) if _first_from(names, cand).startswith(cand) else None
        if tag == "open" or tag == "sep":
            _, item, close = state
            if ch == "]":
                return close
            if item is None:
                return None
            if tag == "open":
                return self.transition(item, ch)
            return item if ch == "," else None

        if tag == "u0":
            _, branches, then = state
            for branch in branches:
                nxt = self.transition(_start(branch, then), ch)
                if nxt is not None:
                    return nxt
            return None

        # A number, (tag, kind, then): -?(0|[1-9][0-9]*)(\.[0-9]+)?, no sign
        # for uint, a fraction only for float, whose states below reach "ni"
        # and "ndot" alone. "nz", "ni" and "nf" may end.
        if tag == "n0" or tag == "nneg":
            _, kind, then = state
            if ch == "-" and tag == "n0" and kind != "uint":
                return ("nneg", kind, then)
            if ch == "0":
                return ("nz", kind, then)
            return ("ni", kind, then) if ch in _DIGITS_NONZERO else None
        if tag == "ndot":
            return ("nf",) + state[1:] if ch in _DIGITS else None
        if tag == "nz" or tag == "ni" or tag == "nf":
            if ch in _DIGITS and tag != "nz":
                return state
            if ch == "." and state[1] == "float" and tag != "nf":
                return ("ndot",) + state[1:]
            return self.transition(state[2], ch)

        # A sequence: after its opener ("lf", espec, close, then), after an
        # element ("le", espec, close, then).
        if tag == "lf" or tag == "le":
            if ch == state[2]:
                return state[3]
            if tag == "lf":
                return self.transition(_start(state[1], ("le",) + state[1:]), ch)
            return _start(state[1], state) if ch == "," else None

        # A float: the integer machine's plain form once a second integer
        # digit makes ("ni", "float", then), else -?[0-9](\.[0-9]+)? and an
        # optional [eE][+-]?[0-9]+. ("f0", then) at the start, ("f-", then)
        # after the sign; ("fm", c, then) after the integer digit, ("fd", c,
        # then) after its dot and ("ff", c, then) in the fraction, where c
        # compares the mantissa's digits with _FINITE (``_compare``); after
        # "e" ("fe", top, then), after "+" ("fp", top, then) and in a positive
        # exponent ("fx", e, top, then): the exponent e so far, at most top.
        # A negative exponent's digits run from ("ndot", "float", then).
        # "fm", "ff", "fx" may end.
        if tag == "f0" or tag == "f-":
            if ch == "-" and tag == "f0":
                return ("f-", state[1])
            return ("fm", _compare(0, ch), state[1]) if ch in _DIGITS else None
        if tag == "fm" or tag == "ff":
            _, c, then = state
            if ch in _DIGITS:
                if tag == "fm":  # a second integer digit, none after a 0
                    return ("ni", "float", then) if c != _BELOW else None
                after = _compare(c, ch)
                return state if after == c else ("ff", after, then)
            if ch == "." and tag == "fm":
                return ("fd", c, then)
            if ch == "e" or ch == "E":
                return ("fe", 307 if c == _NOT_BELOW else 308, then)
            return self.transition(then, ch)
        if tag == "fd":
            return ("ff", _compare(state[1], ch), state[2]) if ch in _DIGITS else None
        if tag == "fe" or tag == "fp" or tag == "fx":
            top, then = state[-2:]
            if ch in _DIGITS:
                e = (state[1] * 10 if tag == "fx" else 0) + int(ch)
                return ("fx", e, top, then) if e <= top else None
            if tag == "fx":
                return self.transition(then, ch)
            if tag == "fp":
                return None
            return ("fp", top, then) if ch == "+" else ("ndot", "float", then) if ch == "-" else None

        return None

    def allowed(self, state: tuple) -> frozenset[str]:
        """The printable ASCII characters ``transition`` accepts from ``state``:
        ``text[i]`` alone for a literal state, a constant per tag for an open
        string, read off the sorted names for a name state (``_name_next``),
        found by scanning the transition over printable ASCII for any other.

        Kept on the state's graph node under the key ``_ALLOWED`` and cleared
        with the graph. Sessions may share it: the set is a pure function of
        the state, so a node held across a clear stays correct, and a lost
        set only costs a rescan.
        """
        node = self.node(state)
        found = node.get(_ALLOWED)
        if found is None:
            tag = state[0]
            if tag == "lit":
                found = frozenset(state[1][state[2]])
            elif tag in _STRING_NEXT:
                found = _STRING_NEXT[tag]
            elif tag == "name":
                found = self._name_next(state[1], state[2])
            else:
                transition = self.transition
                found = frozenset(ch for ch in _PRINTABLE if transition(state, ch) is not None)
            node[_ALLOWED] = found
        return found

    def node(self, state: tuple) -> dict:
        """The transition graph's node of ``state``: a dict that maps the key
        None to ``state`` and each character stepped from it so far to the
        successor node, or to None when ``state`` rejects it (``successor``).
        At ``_GRAPH_SIZE`` nodes the graph is cleared first."""
        graph = self._graph
        if len(graph) >= _GRAPH_SIZE:
            graph.clear()
        return graph.setdefault(state, {None: state})

    def successor(self, node: dict, ch: str):
        """The node after ``ch`` from ``node``, or None if its state does not
        take ``ch``: stepped with ``transition`` and kept as the edge
        ``node[ch]``; a state that steps to itself is its own node. Callers
        read a kept edge off the node first, as ``walk`` does."""
        here = node[None]
        state = self.transition(here, ch)
        nxt = node[ch] = None if state is None else node if state is here else self.node(state)
        return nxt

    def walk(self, node: dict, text: str, i: int = 0) -> tuple[dict, int]:
        """The node after the longest prefix of ``text[i:]`` that ``node``
        takes, and the index where it ends; only a miss calls ``successor``."""
        n = len(text)
        while i < n:
            nxt = node.get(text[i], _UNSEEN)
            if nxt is _UNSEEN:
                nxt = self.successor(node, text[i])
            if nxt is None:
                break
            node = nxt
            i += 1
        return node, i

    def forced(self, node: dict) -> tuple[str, dict]:
        """The forced run from ``node``: the text of the characters that are
        each the one character ``allowed`` gives from the state they are
        stepped from, and the node after them. The run stops at the first
        state that allows no character or more than one; an accepting state
        allows none. A state that steps to itself ends the run after its
        character. A literal state forces the rest of its text at once.

        Stepped with ``transition`` the first time and kept on the node
        under the key ``_FORCED``. A literal's characters take no node; each
        other state of the run keeps its set on its own node (``allowed``),
        and the state after the run gets a node. The run is a pure function
        of the state, so it is cleared with the graph and stays correct
        across clears."""
        run = node.get(_FORCED)
        if run is None:
            chars = []
            state = here = node[None]
            while True:
                if state[0] == "lit":  # forces the rest of its text, then goes on in ``then``
                    chars.append(state[1][state[2]:])
                    state = state[3]
                    continue
                allowed = self.allowed(state)
                if len(allowed) != 1:
                    break
                (ch,) = allowed
                nxt = self.transition(state, ch)
                chars.append(ch)
                if nxt is state:
                    break
                state = nxt
            run = node[_FORCED] = ("".join(chars), node if state is here else self.node(state))
        return run

    def _name_next(self, key, prefix: str) -> frozenset[str]:
        """The characters a name piece takes after ``prefix``, read off the
        sorted names: ``"`` if ``prefix`` is a name, and the next character
        of each name that extends it, one bisection per distinct character
        (after ``c``, to ``prefix + chr(ord(c) + 1)``)."""
        names = self._names(key)
        found = set()
        i = bisect_left(names, prefix)
        if i < len(names) and names[i] == prefix:
            found.add('"')
            i += 1
        at = len(prefix)
        while i < len(names) and names[i].startswith(prefix):
            ch = names[i][at]
            found.add(ch)
            i = bisect_left(names, prefix + chr(ord(ch) + 1), i)
        return frozenset(found)


class PlanAutomaton(_Automaton):
    """Deterministic character acceptor for schema-valid plan texts:
    ``[{"tool_name":name,"arguments":[{"argument_name":arg,"argument_value":value}]}]``.
    The tool names are those of ``names`` that the registry holds, a name
    it lacks skipped and a repeat kept once, or, when ``names`` is None,
    all of them. An argument list offers no further item once every
    argument is written. The registry is read when an argument list opens,
    for the tool's argument names, and when an argument's value starts, for
    its type; it is not copied."""

    def __init__(self, registry: Registry, names=None):
        tools = registry.tools
        spelled = tools if names is None else {name for name in names if name in tools}
        if not spelled:
            raise SchemaCompileError("cannot compile a schema for an empty registry" if names is None
                                     else "cannot compile a schema: the registry holds none of the names")
        super().__init__(tuple(sorted(spelled)), ("lit", '{"tool_name":"', 0, ("name", None, "")))
        self._registry = registry

    def _after_name(self, key, name: str) -> tuple:
        if key is None:
            unused = tuple(sorted(self._registry.tools[name].argument_names))
            return ("lit", ',"arguments":[', 0, ("open", self._arg_item(name, unused), self._item_close))
        tool, unused = key
        then = ("lit", "}", 0, ("sep", self._arg_item(tool, tuple(a for a in unused if a != name)), self._item_close))
        spec = argument_value_spec(self._registry.tools[tool].argument(name).value_type)
        return ("lit", ',"argument_value":', 0, _start(spec, then))

    def _arg_item(self, tool: str, unused: tuple[str, ...]):
        if not unused:
            return None
        return ("lit", '{"argument_name":"', 0, ("name", (tool, unused), ""))


def compile_schema(registry: Registry, names=None) -> PlanAutomaton:
    """The plan automaton over the tools ``names`` of ``registry``, or over
    all of them when ``names`` is None (see :class:`PlanAutomaton`)."""
    return PlanAutomaton(registry, names)


class SubTaskAutomaton(_Automaton):
    """Acceptor for decomposition output with tool names pinned to an enum:
    ``[{"id":uint,"thought":string,"tool_name":name}]``. The language
    depends on the set of ``tool_names`` alone; a repeated name is kept once."""

    def __init__(self, tool_names):
        names = tuple(sorted(set(tool_names)))
        if not names:
            raise SchemaCompileError("sub-task schema needs at least one tool name")
        for name in names:
            if not IDENTIFIER_PATTERN.fullmatch(name):
                raise SchemaCompileError(f"tool name {name!r} is not an identifier")
        tool = ("lit", ',"tool_name":"', 0, ("name", None, ""))
        thought = ("lit", ',"thought":', 0, _start(("string",), tool))
        super().__init__(names, ("lit", '{"id":', 0, _start(("uint",), thought)))

    def _after_name(self, key, name: str) -> tuple:
        return self._item_close


def compile_subtask_schema(tool_names) -> SubTaskAutomaton:
    return SubTaskAutomaton(tool_names)


# Steps value states alone, which reach no name piece.
_VALUES = _Automaton((), None)
# The closing brace of the argument record a value sits in: a number ends
# only on a character it does not take.
_VALUE_END = ("lit", "}", 0, _ACCEPT)


def literal_fits(literal, base: ValueType) -> bool:
    """Whether ``literal`` is a value of ``base``, a type without list
    layers, in the automaton's own grammar: its canonical text, as
    ``serialize_plan`` writes it (``CANONICAL_JSON``), walks from
    ``_start(_value_spec(base), ...)`` to the value's end."""
    try:
        text = CANONICAL_JSON.encode(literal)
    except ValueError:
        return False
    state = _start(_value_spec(base), _VALUE_END)
    transition = _VALUES.transition
    for ch in text + "}":
        state = transition(state, ch)
        if state is None:
            return False
    return state == _ACCEPT


# ---------------------------------------------------------------------------
# Decode sessions and greedy projection repair
# ---------------------------------------------------------------------------

# Shared-prefix lengths are stored one byte each. A longer shared prefix is
# recorded as the cap and its rest walked again: slower, never wrong.
_SHARED_CAP = 255
_LAST_CHAR = chr(0x10FFFF)  # the one character without a successor


class _Trie:
    """Tokens as an implicit trie: the distinct tokens in sorted order, each
    with the length of the prefix it shares with the token before it, and the
    range of tokens under each first character.

    ``rejected`` maps every token, in sorted order, to False; a walk sets the
    accepted tokens to True in the table it is given, never in ``rejected``.
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

    def _walk(self, automaton, node: dict, table: dict) -> None:
        """Set ``table[token]`` to True for every token that ``automaton``
        consumes whole from the state of ``node``; the empty token is
        accepted.

        Only the ranges of tokens under the first characters the state
        allows (``allowed``) are visited. In a range, a token starts from
        the states of the prefix it shares with the previous one. When a
        prefix ``p`` is rejected, the walk jumps by bisection to the first
        token that does not start with ``p``: the first one not below ``p``
        with its last character incremented. A ``p`` ending in U+10FFFF has
        no such successor; the tokens after it are stepped over one by one.
        Characters step through the automaton's transition graph, so equal
        states reached by different prefixes, in this walk or an earlier
        one, are stepped once.
        """
        tokens = self.tokens
        shared = self.shared
        successor = automaton.successor
        if tokens and not tokens[0]:
            table[""] = True
        path = [node]  # path[k]: node after the first k characters of the last token walked
        for first in automaton.allowed(node[None]):
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
                        node = successor(here, ch)
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


class TokenIndex(_Trie):
    """A model's vocabulary as an implicit trie, built once per vocabulary
    (``vocabulary_index``) and shared by every automaton and session that
    masks it: about 0.5 MB for 8k tokens, and at most six string-body tables
    of the ``rejected`` size (see ``verdicts``). It keeps only what no
    continuation changes; a string state's quoted-token table is kept on
    the state's graph node, with the index as key. Kept tables are never
    changed, so sessions in different threads may share an index.
    """

    __slots__ = ("quoted", "_bodies")

    def __init__(self, vocabulary):
        super().__init__(vocabulary)
        self.quoted = _Trie(token for token in self.tokens if '"' in token)
        self._bodies: dict[tuple, dict[str, bool]] = {}

    def verdicts(self, automaton, node: dict, table: _Verdicts | None = None) -> _Verdicts:
        """The verdict table of the state of ``node``, a node of the
        transition graph of ``automaton``: each indexed token mapped to
        whether ``automaton`` consumes all of it from that state, any other
        token walked from ``node``. ``table`` is the table this returned for
        its caller's previous step, or None for a new one; it is reused and
        changed in place, so it must be the caller's own. A table refilled
        is cleared first, so one caller never holds two tables' entries.

        A string state returns ``table`` as it is when it was set for the
        same node: a verdict is a function of the state and the token alone,
        so through any index. Otherwise it refills it from kept tables:

        - the body table of the state without ``then``, ``("s",)``,
          ``("se",)`` or ``("su", k)``, walked once with ``then`` set to the
          final state, which takes no character;
        - laid over it, the verdicts of the tokens that contain ``"``
          (``quoted``), walked once per node and kept on it under the key
          ``self``, which no character equals, so cleared with the graph.

        Both are exact: until its closing quote a string's steps do not read
        ``then``, so a token without ``"`` gets the body table's verdict
        from every automaton. The quoted table is a pure function of the
        state and the index, and is set on the node only once fully walked,
        so a node shared across threads or held after a clear stays correct
        and a lost table only costs a rewalk.

        A state outside a string is walked over the first characters
        ``automaton`` allows there: that set is exact, since every accepted
        character is printable ASCII. The tokens it accepts are set to True
        once the tokens the previous structural walk set are reset to False;
        a table last set for a string state or through another index is
        first refilled from ``rejected``. Kept tables are only copied, never
        changed.
        """
        if table is None:
            table = _Verdicts()
        state = node[None]
        if state[0] in _STRING_NEXT:
            if table.node is node:
                return table
            quoted = node.get(self)
            if quoted is None:
                quoted = self.quoted.rejected.copy()
                self.quoted._walk(automaton, node, quoted)
                node[self] = quoted
            table.clear()
            table.update(self._body(automaton, state[:-1]))
            table.update(quoted)
            raised = None
        else:
            if table.raised is None or table.index is not self:
                table.clear()
                table.update(self.rejected)
            else:
                table.update(dict.fromkeys(table.raised, False))
            raised = {}
            self._walk(automaton, node, raised)
            table.update(raised)
        table.automaton, table.node, table.index, table.raised = automaton, node, self, raised
        return table

    def _body(self, automaton, inner: tuple) -> dict[str, bool]:
        table = self._bodies.get(inner)
        if table is None:
            table = self.rejected.copy()
            self._walk(automaton, automaton.node(inner + (_ACCEPT,)), table)
            self._bodies[inner] = table
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
    """A session's verdict table (``TokenIndex.verdicts``), set last for
    ``node`` of ``automaton`` through ``index``; ``raised`` holds the tokens
    a structural walk set to True, None in a string state's table. A token
    outside the index is walked from ``node``, so the table refers to no
    session."""

    automaton = node = index = raised = None

    def __missing__(self, token: str) -> bool:
        return self.automaton.walk(self.node, token)[1] == len(token)


class DecoderSession:
    """Single decode stream over a shared automaton, masking through
    ``index`` when it has one. The session holds a node of the automaton's
    transition graph; ``state`` is the node's state. ``table`` is the
    session's own verdict table, kept from one mask to the next (None
    before the first); setting it to None releases it.

    The emitted buffer is always a prefix of some accepted string; ``advance``
    is atomic and leaves the session untouched on rejection.
    """

    def __init__(self, automaton, index: TokenIndex | None = None):
        self.automaton = automaton
        self.node = automaton.node(automaton.initial_state)
        self.emitted = ""
        self.index = index
        self.table: _Verdicts | None = None

    @property
    def state(self) -> tuple:
        return self.node[None]

    @property
    def at_end(self) -> bool:
        return self.automaton.accepting(self.state)

    def advance(self, text: str) -> "DecoderSession":
        node, j = self.automaton.walk(self.node, text)
        if j < len(text):
            raise DecodeRejection(len(self.emitted) + j, text[j], self.automaton.allowed(node[None]))
        self.node = node
        self.emitted += text
        return self

    def peek(self, text: str) -> bool:
        """Whether the whole token could be consumed from the current state."""
        return self.automaton.walk(self.node, text)[1] == len(text)

    def mask_vocabulary(self, vocabulary: list[str]) -> list[bool]:
        """Speculative per-token mask, equal to ``[self.peek(t) for t in
        vocabulary]``; the session state is unchanged.

        With an index, the whole vocabulary is mapped in C through the
        session's verdict table, set for the current state by the index
        (``TokenIndex.verdicts``) from the table of the previous mask: a
        string state masked again on the same node reuses it as it is, a
        structural state resets only the previous structural state's
        accepted tokens. Tokens outside the index are walked from the
        current node; without an index, every token is peeked.
        """
        if self.index is None:
            return list(map(self.peek, vocabulary))
        table = self.table = self.index.verdicts(self.automaton, self.node, self.table)
        return list(map(table.__getitem__, vocabulary))

    def copy(self) -> "DecoderSession":
        """A session at the same node with the same index and no verdict
        table, so the two never share one."""
        dup = DecoderSession(self.automaton, self.index)
        dup.node = self.node
        dup.emitted = self.emitted
        return dup


class Edit(NamedTuple):
    kind: str  # "skip" | "insert" | "truncate"
    position: int  # index into the candidate text
    text: str


# Builds an Edit from a (kind, position, text) tuple in C, without the
# NamedTuple's Python-level __new__.
_edit = partial(tuple.__new__, Edit)

_REPAIR_LOOKAHEAD = 16
_INSERT_PRIORITY = ']}",:{['


def _priority_char(allowed: frozenset[str]) -> str:
    if '"' in allowed and _STRING_BODY <= allowed:
        # An open string: close it rather than pad it with structural
        # characters, which are legal content without end.
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
    current character when allowed; else, when only one is allowed, take the
    state's forced run (``forced``), consuming each of its characters the
    candidate has at the current position and inserting each other; else
    skip ahead to the nearest allowed character within a 16-character
    window; else insert by fixed priority (the closing quote of a free
    string body, else structural closers first, then openers, then digits,
    then the smallest allowed character).
    Once the automaton accepts, any unconsumed suffix is dropped. Always
    terminates with accepted text, although no value is capped: an insert
    closes an open string with ``"``, and a number or reference index
    offers its continuation's closer, which the priority puts ahead of a
    digit. A float state that may not end, after a sign, a dot, an ``e``
    or a ``+``, allows a digit toward a state that may end; a member value
    opens a string, not an array or an object. Idempotent.

    Steps through the automaton's transition graph (``walk``) and its kept
    forced runs. The walk stops when the state accepts, which takes no
    character, whatever node holds it, so a clear of the graph mid-walk
    changes nothing. A forced run gives the same text and edits as stepping
    its characters one at a time: each of its states allows only the next
    character, which the candidate either has or lacks.
    """
    node = automaton.node(automaton.initial_state)
    walk = automaton.walk
    forced = automaton.forced
    out: list[str] = []
    edits: list[Edit] = []
    i = done = 0  # candidate[done:i] is consumed but not yet in out
    n = len(candidate)
    while True:
        node, i = walk(node, candidate, i)
        state = node[None]
        if automaton.accepting(state):  # an accepting state takes no character
            break
        out.append(candidate[done:i])
        done = i
        text, end = forced(node)
        if text:
            # each character is consumed where the candidate has it, else inserted
            for ch in text:
                if i < n and candidate[i] == ch:
                    i += 1
                else:
                    edits.append(_edit(("insert", i, ch)))
            out.append(text)
            node, done = end, i
            continue
        allowed = automaton.allowed(state)
        window = candidate[i + 1 : i + 1 + _REPAIR_LOOKAHEAD]
        jump = next((j for j, c in enumerate(window) if c in allowed), None)
        if jump is not None:
            # the next pass consumes the allowed character skipped to
            edits.append(_edit(("skip", i, candidate[i : i + 1 + jump])))
            i = done = i + 1 + jump
            continue
        pick = _priority_char(allowed)
        node = walk(node, pick)[0]
        out.append(pick)
        edits.append(_edit(("insert", i, pick)))
    out.append(candidate[done:i])
    if i < n:
        edits.append(_edit(("truncate", i, candidate[i:])))
    return "".join(out), edits
