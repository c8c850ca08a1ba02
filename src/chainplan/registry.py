"""Tool registry: load, validate, and serve externally described tool specs.

Tools are described in JSON files (see ``load_registry``) so that nothing else
in the system hard-codes tool knowledge. A registry is immutable once built
and valid by construction: ``Registry.__post_init__`` is the one gate for
every tool-spec rule (identifier names, distinct argument names, and each
type's kind, primitive or object type name, and list depth), and later
stages rely on it without re-checking; it checks each distinct ``ValueType``
once. A ``ValueType`` is a kind, a name and a list depth, so no field can
disagree with another. Its ``version`` is a digest of the tool document
unless given, computed on first read and then kept, so a registry that
nothing asks for its version never writes the document: ``chainplan tools``
prints it, and adding the operator pseudo-tools suffixes it.
``load_registry`` parses each distinct type text once per call, so equal
types in one load share one immutable ``ValueType``. A tool's
``prompt_block`` is likewise rendered on first read and kept with its spec.

The readers of input files live here too, so that each outside input is
checked once, where it enters: ``read_text`` refuses a file that is not
UTF-8, ``load_json`` refuses NaN, infinities and overflowing floats, and
``read_json_lines`` reads a JSON-lines file (a golden dataset, a replay or
predictions) through both, naming the path and line of each refusal.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator

# SHA-256 from the interpreter's built-in module, as CPython's random takes
# sha512: hashlib would load OpenSSL's libcrypto, over 3 MB resident.
# Resolved once here, since a failed import is not cached.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Tool, argument and object type names; test with ``fullmatch``.
IDENTIFIER_PATTERN = re.compile(r"[A-Za-z0-9_]+")

PRIMITIVES = ("string", "integer", "float", "boolean")

# Plans never need more than a list of objects; deeper nesting is rejected.
MAX_LIST_DEPTH = 2


class RegistryError(ValueError):
    """A tool document could not be loaded into a valid registry."""

    def __init__(self, message: str, tool: str | None = None, path: str | None = None):
        parts = [message]
        if tool is not None:
            parts.append(f"tool={tool}")
        if path is not None:
            parts.append(f"at={path}")
        super().__init__("; ".join(parts))
        self.tool = tool
        self.path = path


@dataclass(frozen=True)
class ValueType:
    """Type of a tool argument or return value: ``depth`` list layers around
    a base type named ``name``.

    ``kind`` is ``"primitive"`` (``name`` one of ``PRIMITIVES``) or
    ``"object"`` (``name`` an opaque type name), and ``depth``, an ``int``,
    runs from 0 to ``MAX_LIST_DEPTH``. Equality is structural; object types
    compare by exact name.
    """

    kind: str
    name: str
    depth: int = 0

    @property
    def is_list(self) -> bool:
        return self.depth > 0

    @property
    def element(self) -> "ValueType | None":
        """The type one list layer in; None when this is not a list."""
        return ValueType(self.kind, self.name, self.depth - 1) if self.depth else None

    def render(self) -> str:
        base = self.name if self.kind == "primitive" else f"object:{self.name}"
        return "array of " * self.depth + base


def primitive(kind: str) -> ValueType:
    if kind not in PRIMITIVES:
        raise ValueError(f"unknown primitive kind: {kind!r}")
    return ValueType("primitive", kind)


def list_of(element: ValueType) -> ValueType:
    return ValueType(element.kind, element.name, element.depth + 1)


def object_type(name: str) -> ValueType:
    return ValueType("object", name)


def parse_type(text: str, tool: str | None = None, path: str | None = None) -> ValueType:
    """Parse a type keyword: ``string``, ``integer``, ``float``, ``boolean``,
    ``array of <T>`` or ``object:<TypeName>``."""
    spec = text.strip()
    depth = 0
    while spec.startswith("array of "):
        depth += 1
        spec = spec[len("array of "):].strip()
    if spec.startswith("object:"):
        result = ValueType("object", spec[len("object:"):].strip(), depth)
    elif spec in PRIMITIVES:
        result = ValueType("primitive", spec, depth)
    else:
        raise RegistryError(f"unknown type keyword {spec!r}", tool, path)
    _reject_bad_type(result, tool, path)
    return result


def _reject_bad_type(vt: ValueType, tool: str | None, path: str | None) -> None:
    if type(vt.depth) is not int:
        raise RegistryError(f"list depth {vt.depth!r} is not an integer", tool, path)
    if not isinstance(vt.name, str):
        raise RegistryError(f"type name {vt.name!r} is not a string", tool, path)
    if vt.depth > MAX_LIST_DEPTH:
        raise RegistryError(f"list nesting deeper than {MAX_LIST_DEPTH}", tool, path)
    if vt.depth < 0:
        raise RegistryError(f"negative list depth {vt.depth}", tool, path)
    if vt.kind == "primitive":
        if vt.name not in PRIMITIVES:
            raise RegistryError(f"unknown primitive {vt.name!r}", tool, path)
    elif vt.kind != "object":
        raise RegistryError(f"unknown type kind {vt.kind!r}", tool, path)
    elif not IDENTIFIER_PATTERN.fullmatch(vt.name or ""):
        raise RegistryError(f"object type name {vt.name!r} is not an identifier", tool, path)


@dataclass(frozen=True)
class ArgSpec:
    name: str
    description: str
    value_type: ValueType
    required: bool = False


@dataclass(frozen=True)
class ToolSpec:
    name: str
    description: str
    arguments: tuple[ArgSpec, ...]
    returns: ValueType

    def argument(self, name: str) -> ArgSpec | None:
        for arg in self.arguments:
            if arg.name == name:
                return arg
        return None

    @property
    def argument_names(self) -> tuple[str, ...]:
        return tuple(arg.name for arg in self.arguments)

    @cached_property
    def prompt_block(self) -> str:
        """The tool's lines in a prompt's tool list: its signature, its
        description, and each described argument. Rendered on first use and
        kept, as the spec is immutable."""
        signature = ", ".join(f"{a.name}: {a.value_type.render()}" for a in self.arguments)
        lines = [f"- {self.name}({signature}) -> {self.returns.render()}", f"    {self.description}"]
        lines += [f"    {arg.name}: {arg.description}" for arg in self.arguments if arg.description]
        return "\n".join(lines)


class _Version:
    """``Registry.version``: kept as given; when given as None, the sha256
    prefix of the tool document, found on first read and kept."""

    def __get__(self, registry, owner=None):
        if registry is None:
            raise AttributeError("version")  # no class-level default: the field stays required
        version = registry.__dict__["_version"]
        if version is None:
            document = serialize_registry(registry)
            version = registry.__dict__["_version"] = sha256(document.encode("utf-8")).hexdigest()[:12]
        return version

    def __set__(self, registry, version: str | None) -> None:
        registry.__dict__["_version"] = version


@dataclass(frozen=True)
class Registry:
    """Immutable, insertion-ordered collection of tool specs, valid by
    construction; paths name the tool's position, as in a tool file."""

    tools: dict[str, ToolSpec]
    version: str = _Version()  # a descriptor, not a default: None asks for the digest

    def __post_init__(self) -> None:
        checked: set[int] = set()  # ids of the value types found valid

        def check(vt: ValueType, tool: str, path: str) -> None:
            if id(vt) not in checked:
                _reject_bad_type(vt, tool, path)
                checked.add(id(vt))

        for i, (key, spec) in enumerate(self.tools.items()):
            path = f"$[{i}]"
            if key != spec.name:
                raise RegistryError(f"registry key {key!r} differs from tool_name", tool=spec.name, path=path)
            if not IDENTIFIER_PATTERN.fullmatch(spec.name):
                raise RegistryError("tool_name is not an identifier", tool=spec.name, path=path)
            names: set[str] = set()
            for j, arg in enumerate(spec.arguments):
                arg_path = f"{path}.arguments[{j}]"
                if not IDENTIFIER_PATTERN.fullmatch(arg.name):
                    raise RegistryError(f"argument_name {arg.name!r} is not an identifier", spec.name, arg_path)
                if arg.name in names:
                    raise RegistryError(f"duplicate argument_name {arg.name!r}", spec.name, arg_path)
                names.add(arg.name)
                check(arg.value_type, spec.name, arg_path)
            check(spec.returns, spec.name, f"{path}.return_type")

    @classmethod
    def from_tools(cls, specs: list[ToolSpec] | tuple[ToolSpec, ...], version: str | None = None) -> "Registry":
        tools: dict[str, ToolSpec] = {}
        for spec in specs:
            if spec.name in tools:
                raise RegistryError("duplicate tool name", tool=spec.name)
            tools[spec.name] = spec
        return cls(tools=tools, version=version)

    def get(self, name: str) -> ToolSpec | None:
        """Exact, case-sensitive lookup; ``None`` signals an unknown tool."""
        return self.tools.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.tools)

    def __len__(self) -> int:
        return len(self.tools)


_JSON_KINDS = {str: "a string", bool: "a boolean", list: "an array"}
# The fields the tool format defines; any other key is refused, so that a
# misspelt field is not read as absent.
_TOOL_KEYS = ("tool_name", "tool_description", "arguments", "return_type")
_ARGUMENT_KEYS = ("argument_name", "argument_description", "argument_type", "required")


def _field(raw: dict, key: str, kind: type, tool: str | None, path: str, default=None):
    """``raw[key]`` (or ``default`` when absent), refused unless it has the
    JSON kind the tool format gives the field."""
    value = raw.get(key, default)
    if not isinstance(value, kind):
        raise RegistryError(f"{key} is not {_JSON_KINDS[kind]}", tool=tool, path=path)
    return value


def _check_keys(raw: dict, known: tuple[str, ...], required: tuple[str, ...], tool, path: str) -> None:
    for key in raw:
        if key not in known:
            raise RegistryError(f"unknown field {key!r}", tool=tool, path=path)
    for key in required:
        if key not in raw:
            raise RegistryError(f"missing required field {key!r}", tool=tool, path=path)


def _type(raw: dict, key: str, types: dict[str, ValueType], tool: str, path: str) -> ValueType:
    """The type that ``raw[key]`` names, parsed once per distinct text:
    ``types`` maps each text parsed so far in this load to its type."""
    text = _field(raw, key, str, tool, path)
    vt = types.get(text)
    if vt is None:
        vt = types[text] = parse_type(text, tool=tool, path=path)
    return vt


def _load_tool(entry: object, index: int, types: dict[str, ValueType]) -> ToolSpec:
    path = f"$[{index}]"
    if not isinstance(entry, dict):
        raise RegistryError("tool entry is not an object", path=path)
    _check_keys(entry, _TOOL_KEYS, ("tool_name", "tool_description", "return_type"), entry.get("tool_name"), path)
    name = _field(entry, "tool_name", str, None, path)
    args: list[ArgSpec] = []
    for j, raw in enumerate(_field(entry, "arguments", list, name, path, default=[])):
        arg_path = f"{path}.arguments[{j}]"
        if not isinstance(raw, dict):
            raise RegistryError("argument entry is not an object", tool=name, path=arg_path)
        _check_keys(raw, _ARGUMENT_KEYS, ("argument_name", "argument_type"), name, arg_path)
        args.append(
            ArgSpec(
                name=_field(raw, "argument_name", str, name, arg_path),
                description=_field(raw, "argument_description", str, name, arg_path, default=""),
                value_type=_type(raw, "argument_type", types, name, arg_path),
                required=_field(raw, "required", bool, name, arg_path, default=False),
            )
        )
    return ToolSpec(
        name=name,
        description=_field(entry, "tool_description", str, name, path),
        arguments=tuple(args),
        returns=_type(entry, "return_type", types, name, f"{path}.return_type"),
    )


def decode_text(data: bytes, name: str | Path, error: type[Exception]) -> str:
    """``data`` decoded as UTF-8, with line ends read as a text file's
    (CRLF and CR become LF). Bytes that are not UTF-8 raise ``error`` with
    one line naming ``name`` and the offending byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The text of the file at ``path``. A file that is not UTF-8 raises
    ``error`` with one line naming the path and the offending byte."""
    return decode_text(Path(path).read_bytes(), path, error)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is out of a float's range")
    return value


_STRICT_DECODER = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_float)


def load_json(text: str) -> Any:
    """``json.loads`` that refuses numbers strict JSON does not have:
    ``NaN``, ``Infinity`` and ``-Infinity``, and a float out of range such
    as ``1e999``, which Python would read as infinite. Raises ValueError."""
    return _STRICT_DECODER.decode(text)


def line_error(error: type[Exception], path: str | Path, line: int, message: str) -> Exception:
    """``error`` with one line, ``<path> line <line>: <message>``, that
    refuses a line of a JSON-lines file; the line number is kept as its
    ``line``."""
    exc = error(f"{path} line {line}: {message}")
    exc.line = line
    return exc


def read_json_lines(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, Any]]:
    """``(line number, value)`` for each non-blank line of the file at
    ``path``, read by :func:`load_json`. A file that is not UTF-8 raises
    ``error`` as :func:`read_text` does, and a line that is not strict JSON
    raises it through :func:`line_error`, with the column for a syntax
    error."""
    for number, line in enumerate(read_text(path, error).splitlines(), start=1):
        if line.strip():
            try:
                value = load_json(line)
            except ValueError as exc:
                detail = f"{exc.msg} at column {exc.colno}" if isinstance(exc, json.JSONDecodeError) else exc
                raise line_error(error, path, number, f"invalid JSON: {detail}") from exc
            yield number, value


def load_registry(source: str | Path) -> Registry:
    """Load a registry from a tool file path or raw JSON text.

    A ``str`` that starts with ``[`` (after stripping) is treated as JSON
    text; anything else is treated as a file path. Tool order is preserved
    for deterministic iteration. Each distinct type text is parsed once. A
    file that is not UTF-8 is refused with its path and the offending byte.
    The document is read by :func:`load_json`, so ``NaN``, ``Infinity`` and
    a float out of range such as ``1e999`` are a parse failure that names
    the number.
    """
    if isinstance(source, str) and source.lstrip().startswith("["):
        text = source
    else:
        text = read_text(source, RegistryError)
    try:
        data = load_json(text)
    except ValueError as exc:
        raise RegistryError(f"parse failure: {exc}") from exc
    if not isinstance(data, list):
        raise RegistryError("tool document must be a JSON array")
    types: dict[str, ValueType] = {}
    return Registry.from_tools([_load_tool(entry, i, types) for i, entry in enumerate(data)])


def serialize_registry(registry: Registry) -> str:
    """Canonical wire-format JSON for the registry's tool set."""
    doc = [
        {
            "tool_name": spec.name,
            "tool_description": spec.description,
            "arguments": [
                {
                    "argument_name": a.name,
                    "argument_description": a.description,
                    "argument_type": a.value_type.render(),
                    "required": a.required,
                }
                for a in spec.arguments
            ],
            "return_type": spec.returns.render(),
        }
        for spec in registry.tools.values()
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # always "warning": a registry that breaks a rule is never built
    location: str
    message: str


def validate_registry(registry: Registry) -> list[Diagnostic]:
    """Warn about empty tool and argument descriptions; an empty list means
    none. Every hard rule is enforced when the registry is built."""
    out: list[Diagnostic] = []
    for spec in registry.tools.values():
        loc = f"tool {spec.name!r}"
        if not spec.description:
            out.append(Diagnostic("warning", loc, "tool description is empty"))
        for arg in spec.arguments:
            if not arg.description:
                out.append(Diagnostic("warning", f"{loc} argument {arg.name!r}", "argument description is empty"))
    return out


_DATA_DIR = Path(__file__).resolve().parent / "data"


def fixture_tools_path() -> Path:
    """Path of the bundled nine-tool fixture (implementer-authored test data)."""
    return _DATA_DIR / "tools_worktracker.json"
