"""Group-spec strings and the Cayley/permutation file formats.

Grammar:
    spec     := part ( "*" part )*          products are direct products
    part     := "builtin:" family (":" arg)*
              | "cayley:" path
              | "perm:" path

A builtin part's arguments are converted once, in order: each integer
argument by Python's ``int`` (so " 5", "+14" and "1_4" read as 5, 14 and
14), and the extraspecial2 variant kept as text. Each family's domain is
its builder's: parsing calls the builder's own check from ``constructions``,
so an argument outside it fails at parse, before anything is built, with
SpecParseError carrying the builder's message and "(at position N)", the
offset of the part in the spec string. The product of the orders the checks
return meets the table budget at parse too, and at build the product of
all part orders meets it after the file parts are read, before any builtin
part is built.

Files use 0-based decimal indices, LF line endings, and '#' comment lines;
a comment of the form "# name: <text>" names the group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Iterator

from . import constructions as cons
from .core import FiniteGroup, _check_order, direct_product, from_table
from .errors import (
    BadOrder,
    BadParameter,
    FormatError,
    SpecParseError,
    TooLarge,
    UnknownFamily,
)
from .fields import gf


@dataclass(frozen=True)
class AtomicSpec:
    scheme: str  # "builtin" | "cayley" | "perm"
    family: str | None
    args: tuple[str, ...]
    path: str | None


@dataclass(frozen=True)
class GroupSpec:
    """A parsed spec: one or more atomic parts combined by direct product."""

    parts: tuple[AtomicSpec, ...]


# family -> (builder, domain check, argument types). The check is the builder's
# own first step and returns the order, so a spec that parses is in its domain.
_FAMILIES: dict[str, tuple[Callable[..., FiniteGroup], Callable[..., int], tuple[type, ...]]] = {
    "cyclic": (cons.cyclic, cons._check_cyclic, (int,)),
    "elementary_abelian": (
        cons.elementary_abelian, cons._check_elementary_abelian, (int, int)
    ),
    "dihedral": (cons.dihedral, cons._check_dihedral, (int,)),
    "quaternion8": (cons.quaternion8, lambda: 8, ()),
    "symmetric": (cons.symmetric, cons._check_degree, (int,)),
    "alternating": (cons.alternating, lambda n: cons._check_degree(n, 2), (int,)),
    "extraspecial2": (cons.extraspecial2, cons._check_extraspecial2, (int, str)),
    "heisenberg": (lambda p, e: cons.heisenberg(gf(p, e)), cons._check_heisenberg, (int, int)),
    "frobenius": (cons.frobenius_cq_cn, cons._check_frobenius, (int, int, int)),
}


# the literals int() accepts in base 10
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _read_int(literal: str, what: str, where: str = "") -> int:
    """int(literal) for a literal that int() accepts in base 10, or TooLarge
    naming ``what`` and the digit count when int() refuses it for its length
    alone, past its digit limit."""
    try:
        return int(literal)
    except ValueError:
        digits = sum(map(str.isdecimal, literal))
        raise TooLarge(f"{what} is too large: {digits} digits{where}") from None


def _parse_part(text: str, pos: int) -> tuple[AtomicSpec, int]:
    if not text:
        raise SpecParseError(f"empty spec part at position {pos}")
    scheme, sep, rest = text.partition(":")
    if scheme == "builtin":
        if not sep or not rest:
            raise SpecParseError(f"builtin spec needs a family name (at position {pos})")
        family, *args = rest.split(":")
        if family not in _FAMILIES:
            raise UnknownFamily(f"unknown builtin family {family!r} (at position {pos})")
        _, check, types = _FAMILIES[family]
        if len(args) != len(types):
            raise SpecParseError(
                f"{family} takes {len(types)} argument(s), got {len(args)} (at position {pos})"
            )
        values = []
        for i, (convert, arg) in enumerate(zip(types, args)):
            if convert is int and _INT_LITERAL.fullmatch(arg):
                values.append(_read_int(arg, f"{family}: argument {i + 1}", f" (at position {pos})"))
                continue
            try:
                values.append(convert(arg))
            except ValueError:
                raise SpecParseError(
                    f"{family}: argument {i + 1} must be an integer (at position {pos})"
                ) from None
        try:
            order = check(*values)
        except (BadParameter, BadOrder) as exc:
            raise SpecParseError(f"{exc} (at position {pos})") from None
        return AtomicSpec("builtin", family, tuple(args), None), order
    if scheme in ("cayley", "perm"):
        if not sep or not rest:
            raise SpecParseError(f"{scheme} spec needs a file path (at position {pos})")
        return AtomicSpec(scheme, None, (), rest), 1  # its order is checked when read
    raise SpecParseError(f"unknown scheme {scheme!r} (at position {pos})")


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string; SpecParseError/UnknownFamily carry the position, and
    TooLarge names a product of builtin parts over the table budget."""
    parsed, pos = [], 0
    for chunk in text.split("*"):
        parsed.append(_parse_part(chunk.strip(), pos))
        pos += len(chunk) + 1
    _check_order(math.prod(order for _, order in parsed))
    return GroupSpec(tuple(part for part, _ in parsed))


def _call_builtin(part: AtomicSpec, which: int):
    """Entry ``which`` of the part's family, 0 its builder and 1 its domain
    check, called on the part's arguments; SpecParseError outside the domain."""
    family = _FAMILIES[part.family]
    try:
        return family[which](*(convert(arg) for convert, arg in zip(family[2], part.args)))
    except (BadParameter, BadOrder) as exc:
        raise SpecParseError(str(exc)) from exc


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Resolve a parsed spec (or spec string) to a validated group. The file
    parts are read first, and the product of all part orders meets the table
    budget before any builtin part is built."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    loaders = {"cayley": load_cayley, "perm": load_permutations}
    read = [loaders[p.scheme](p.path) if p.scheme in loaders else None for p in spec.parts]
    _check_order(math.prod(_call_builtin(p, 1) if g is None else g.order for p, g in zip(spec.parts, read)))
    return reduce(direct_product, [_call_builtin(p, 0) if g is None else g for p, g in zip(spec.parts, read)])


# ---------------------------------------------------------------------------
# file formats

_NAME_RE = re.compile(r"#\s*name:\s*(.+?)\s*$")
# \d and isdecimal() take exactly the digits that int() reads
_HEADER_RE = re.compile(r"degree (\d+) generators (\d+)")


class _GroupFile:
    """The data lines of a Cayley or permutation file, read one at a time as
    (line number, fields). Blank lines and '#' comments are skipped, and the
    last "# name: <text>" comment, wherever it stands, names the group (else
    the file's stem), so ``name`` is final once every line is read."""

    def __init__(self, path):
        self.path = Path(path)
        self.name = self.path.stem

    def __iter__(self) -> Iterator[tuple[int, list[str]]]:
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped.startswith("#"):
                    m = _NAME_RE.match(stripped)
                    if m:
                        self.name = m.group(1)
                elif stripped:
                    yield lineno, stripped.split()


def load_cayley(path) -> FiniteGroup:
    """Read a Cayley-table file: order on the first data line, then that many
    rows of 0-based indices. The order meets the table budget before any row
    is read."""
    file = _GroupFile(path)
    lines = iter(file)
    lineno, fields = next(lines, (None, None))
    if fields is None:
        raise FormatError("file contains no data lines")
    if len(fields) != 1 or not fields[0].isdecimal():
        raise FormatError(f"line {lineno}: expected the group order")
    order = _check_order(_read_int(fields[0], f"line {lineno}: the order"))
    if order < 1:
        raise FormatError(f"line {lineno}: order must be >= 1")
    rows: list[list[int]] = []
    for lineno, fields in lines:
        if len(rows) >= order:
            raise FormatError(f"line {lineno}: more than {order} table rows")
        try:
            row = [int(f) for f in fields]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer table entry") from None
        if len(row) != order:
            raise FormatError(f"line {lineno}: expected {order} entries, got {len(row)}")
        if any(v < 0 or v >= order for v in row):
            raise FormatError(f"line {lineno}: index out of range [0, {order})")
        rows.append(row)
    if len(rows) != order:
        raise FormatError(f"expected {order} table rows, got {len(rows)}")
    return from_table(rows, name=file.name)


def save_cayley(G: FiniteGroup, path) -> None:
    """Write the Cayley file for a group (the inverse of load_cayley)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# name: {G.name}\n")
        fh.write(f"{G.order}\n")
        for i in range(G.order):
            fh.write(" ".join(str(int(v)) for v in G.table[i]) + "\n")


def load_permutations(path) -> FiniteGroup:
    """Read a generator file: "degree d generators g", then g image lines."""
    file = _GroupFile(path)
    lines = iter(file)
    lineno, fields = next(lines, (None, None))
    if fields is None:
        raise FormatError("file contains no header line")
    m = _HEADER_RE.fullmatch(" ".join(fields))
    if not m:
        raise FormatError(f"line {lineno}: expected header 'degree <d> generators <g>'")
    degree = _read_int(m[1], f"line {lineno}: the degree")
    count = _read_int(m[2], f"line {lineno}: the generator count")
    gens: list[list[int]] = []
    for lineno, fields in lines:
        if len(gens) >= count:
            raise FormatError(f"line {lineno}: more than {count} generator lines")
        try:
            images = [int(f) for f in fields]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer image") from None
        if len(images) != degree:
            raise FormatError(f"line {lineno}: expected {degree} images, got {len(images)}")
        if sorted(images) != list(range(degree)):
            raise FormatError(f"line {lineno}: images are not a permutation of 0..{degree - 1}")
        gens.append(images)
    if len(gens) != count:
        raise FormatError(f"expected {count} generator lines, got {len(gens)}")
    return cons.from_permutations(degree, gens, file.name)
