"""Group-spec strings and the Cayley/permutation file formats.

Grammar:
    spec     := part ( "*" part )*          products are direct products
    part     := "builtin:" family (":" arg)*
              | "cayley:" path
              | "perm:" path

Files use 0-based decimal indices, LF line endings, and '#' comment lines;
a comment of the form "# name: <text>" names the group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import constructions as cons
from .core import FiniteGroup, direct_product, from_table, is_prime, renamed
from .errors import (
    BadOrder,
    BadParameter,
    FormatError,
    SpecParseError,
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


def _int_arg(args: tuple[str, ...], i: int, family: str, pos: int) -> int:
    try:
        return int(args[i])
    except (ValueError, IndexError):
        raise SpecParseError(
            f"{family}: argument {i + 1} must be an integer (at position {pos})"
        ) from None


_VALIDATORS: dict[str, Callable[[tuple[str, ...], int], None]] = {}


def _validator(name: str, arity: int):
    def wrap(fn):
        def check(args: tuple[str, ...], pos: int) -> None:
            if len(args) != arity:
                raise SpecParseError(
                    f"{name} takes {arity} argument(s), got {len(args)} (at position {pos})"
                )
            fn(args, pos)
        _VALIDATORS[name] = check
        return fn
    return wrap


@_validator("cyclic", 1)
def _v_cyclic(args, pos):
    if _int_arg(args, 0, "cyclic", pos) < 1:
        raise SpecParseError(f"cyclic: order must be >= 1 (at position {pos})")


@_validator("elementary_abelian", 2)
def _v_ea(args, pos):
    p = _int_arg(args, 0, "elementary_abelian", pos)
    k = _int_arg(args, 1, "elementary_abelian", pos)
    if not is_prime(p) or k < 0:
        raise SpecParseError(f"elementary_abelian: need prime p and k >= 0 (at position {pos})")


@_validator("dihedral", 1)
def _v_dihedral(args, pos):
    n = _int_arg(args, 0, "dihedral", pos)
    if n % 2 != 0 or n < 6:
        raise SpecParseError(f"dihedral: order must be even and >= 6, got {n} (at position {pos})")


@_validator("quaternion8", 0)
def _v_q8(args, pos):
    pass


@_validator("symmetric", 1)
def _v_sym(args, pos):
    if not 1 <= _int_arg(args, 0, "symmetric", pos) <= 5:
        raise SpecParseError(f"symmetric: degree must be 1..5 (at position {pos})")


@_validator("alternating", 1)
def _v_alt(args, pos):
    if not 1 <= _int_arg(args, 0, "alternating", pos) <= 5:
        raise SpecParseError(f"alternating: degree must be 1..5 (at position {pos})")


@_validator("extraspecial2", 2)
def _v_es2(args, pos):
    a = _int_arg(args, 0, "extraspecial2", pos)
    if not 1 <= a <= 4:
        raise SpecParseError(f"extraspecial2: size must be 1..4 (at position {pos})")
    if args[1] not in ("plus", "minus"):
        raise SpecParseError(f"extraspecial2: variant must be plus|minus (at position {pos})")


@_validator("heisenberg", 2)
def _v_heis(args, pos):
    p = _int_arg(args, 0, "heisenberg", pos)
    e = _int_arg(args, 1, "heisenberg", pos)
    if not is_prime(p) or e < 1 or p**e not in cons.HEISENBERG_FIELD_ORDERS:
        raise SpecParseError(
            f"heisenberg: field order must be one of {cons.HEISENBERG_FIELD_ORDERS} (at position {pos})"
        )


@_validator("frobenius", 3)
def _v_frob(args, pos):
    q = _int_arg(args, 0, "frobenius", pos)
    n = _int_arg(args, 1, "frobenius", pos)
    r = _int_arg(args, 2, "frobenius", pos)
    if not is_prime(q) or n < 2:
        raise SpecParseError(f"frobenius: need prime q and n >= 2 (at position {pos})")
    if r % q == 0:
        raise SpecParseError(f"frobenius: r={r} is not a unit mod {q} (at position {pos})")
    k = cons._unit_order(r, q)
    if k != n:
        raise SpecParseError(
            f"frobenius: r={r} has order {k} mod {q}, need {n} (at position {pos})"
        )


_BUILDERS: dict[str, Callable[..., FiniteGroup]] = {
    "cyclic": lambda n: cons.cyclic(n),
    "elementary_abelian": lambda p, k: cons.elementary_abelian(p, k),
    "dihedral": lambda n: cons.dihedral(n),
    "quaternion8": lambda: cons.quaternion8(),
    "symmetric": lambda n: cons.symmetric(n),
    "alternating": lambda n: cons.alternating(n),
    "extraspecial2": lambda a, v: cons.extraspecial2(int(a), v),
    "heisenberg": lambda p, e: cons.heisenberg(gf(int(p), int(e))),
    "frobenius": lambda q, n, r: cons.frobenius_cq_cn(q, n, r),
}


def _parse_part(text: str, pos: int) -> AtomicSpec:
    if not text:
        raise SpecParseError(f"empty spec part at position {pos}")
    scheme, sep, rest = text.partition(":")
    if scheme == "builtin":
        if not sep or not rest:
            raise SpecParseError(f"builtin spec needs a family name (at position {pos})")
        family, *args = rest.split(":")
        if family not in _VALIDATORS:
            raise UnknownFamily(f"unknown builtin family {family!r} (at position {pos})")
        _VALIDATORS[family](tuple(args), pos)
        return AtomicSpec("builtin", family, tuple(args), None)
    if scheme in ("cayley", "perm"):
        if not sep or not rest:
            raise SpecParseError(f"{scheme} spec needs a file path (at position {pos})")
        return AtomicSpec(scheme, None, (), rest)
    raise SpecParseError(f"unknown scheme {scheme!r} (at position {pos})")


def parse_spec(text: str) -> GroupSpec:
    """Parse a spec string; SpecParseError/UnknownFamily carry the position."""
    parts = []
    pos = 0
    for chunk in text.split("*"):
        parts.append(_parse_part(chunk.strip(), pos))
        pos += len(chunk) + 1
    return GroupSpec(tuple(parts))


def _build_part(part: AtomicSpec) -> FiniteGroup:
    if part.scheme == "builtin":
        builder = _BUILDERS[part.family]
        args = [int(a) if re.fullmatch(r"-?\d+", a) else a for a in part.args]
        try:
            return builder(*args)
        except (BadParameter, BadOrder) as exc:
            raise SpecParseError(str(exc)) from exc
    if part.scheme == "cayley":
        return load_cayley(part.path)
    return load_permutations(part.path)


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Resolve a parsed spec (or spec string) to a validated group."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    groups = [_build_part(p) for p in spec.parts]
    result = groups[0]
    for g in groups[1:]:
        result = direct_product(result, g)
    return result


# ---------------------------------------------------------------------------
# file formats

_NAME_RE = re.compile(r"#\s*name:\s*(.+?)\s*$")


def load_cayley(path) -> FiniteGroup:
    """Read a Cayley-table file: order on the first data line, then that many
    rows of 0-based indices."""
    path = Path(path)
    name = path.stem
    order = None
    rows: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                m = _NAME_RE.match(stripped)
                if m:
                    name = m.group(1)
                continue
            fields = stripped.split()
            if order is None:
                if len(fields) != 1 or not fields[0].isdigit():
                    raise FormatError(f"line {lineno}: expected the group order")
                order = int(fields[0])
                if order < 1:
                    raise FormatError(f"line {lineno}: order must be >= 1")
                continue
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
    if order is None:
        raise FormatError("file contains no data lines")
    if len(rows) != order:
        raise FormatError(f"expected {order} table rows, got {len(rows)}")
    return from_table(rows, name=name)


def save_cayley(G: FiniteGroup, path) -> None:
    """Write the Cayley file for a group (the inverse of load_cayley)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# name: {G.name}\n")
        fh.write(f"{G.order}\n")
        for i in range(G.order):
            fh.write(" ".join(str(int(v)) for v in G.table[i]) + "\n")


def load_permutations(path) -> FiniteGroup:
    """Read a generator file: "degree d generators g", then g image lines."""
    path = Path(path)
    name = path.stem
    header = None
    gens: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                m = _NAME_RE.match(stripped) if stripped else None
                if m:
                    name = m.group(1)
                continue
            fields = stripped.split()
            if header is None:
                if (
                    len(fields) != 4
                    or fields[0] != "degree"
                    or fields[2] != "generators"
                    or not fields[1].isdigit()
                    or not fields[3].isdigit()
                ):
                    raise FormatError(
                        f"line {lineno}: expected header 'degree <d> generators <g>'"
                    )
                header = (int(fields[1]), int(fields[3]))
                continue
            degree, count = header
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
    if header is None:
        raise FormatError("file contains no header line")
    if len(gens) != header[1]:
        raise FormatError(f"expected {header[1]} generator lines, got {len(gens)}")
    return renamed(cons.from_permutations(header[0], gens), name)
