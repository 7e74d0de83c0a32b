r"""Class data and character tables with exact validation.

Tables are JSON documents: group_name, group_order, classes (name, size,
element_order, ng, hg, optional fusion_target) and irreps (name, dim,
values as {a, b, d} quadratic triples parallel to the classes).  Loading
validates size sums and the row orthogonality relation exactly.  Every
exact class sum of the package (the row relation, a grade's
multiplicities, the filtration's order sums) comes from
CharacterTable.twice_sums: twice sum_k |[g_k]| w_k chi_i(g_k) for integer
weights w, as integer numerators keyed by squarefree radicand, so a class
may mix values from several quadratic fields.  The table is square, so
the row relation implies the column relation, which is not checked
again.  A twining function is fixed by its level (n_g, h_g): the oracle
and the engine serve each class by the class of M24 at its level that
m24_classes names (M24_LEVELS), and loading refuses a fusion target off
its level.  Bundled files for M24 and A5 live in DATA_DIR, the package's
data directory, which no command writes (moonmod.cli refuses a path there).
MoonmodError is the base of every failure type of the package; a command
reports exactly the MoonmodError, ValueError and OSError failures.
"""

from __future__ import annotations

import json
import os
from operator import mul

from .quadratic import QuadraticValue, mul_roots


# The package data, next to the modules: installs must be unpacked files.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# (n_g, h_g) of each class of M24, as the bundled table has them, and the
# first class of M24 at each level.
M24_LEVELS = {
    "1A": (1, 1), "2A": (2, 1), "2B": (2, 2), "3A": (3, 1), "3B": (3, 3), "4A": (4, 2),
    "4B": (4, 1), "4C": (4, 4), "5A": (5, 1), "6A": (6, 1), "6B": (6, 6), "7A": (7, 1),
    "7B": (7, 1), "8A": (8, 1), "10A": (10, 2), "11A": (11, 1), "12A": (12, 2),
    "12B": (12, 12), "14A": (14, 1), "14B": (14, 1), "15A": (15, 1), "15B": (15, 1),
    "21A": (21, 3), "21B": (21, 3), "23A": (23, 1), "23B": (23, 1),
}
_FIRST_AT = {level: name for name, level in reversed(M24_LEVELS.items())}


class MoonmodError(Exception):
    """Base class of the package's failures; see moonmod.cli for how they are reported."""


class TableError(MoonmodError):
    """Base class for table ingestion failures."""


class TableParseError(TableError):
    pass


class SizeSumError(TableError):
    pass


class OrthogonalityError(TableError):
    pass


class UnknownClassError(MoonmodError, KeyError):
    """A conjugacy class name the table does not have."""

    def __str__(self) -> str:
        return f"unknown conjugacy class {self.args[0]!r}"


class ConjugacyClass:
    __slots__ = ("name", "size", "element_order", "ng", "hg", "fusion_target")

    def __init__(self, name: str, size: int, element_order: int, ng: int, hg: int,
                 fusion_target: str | None = None) -> None:
        self.name = name
        self.size = size
        self.element_order = element_order
        self.ng = ng
        self.hg = hg
        self.fusion_target = fusion_target


class Irreducible:
    __slots__ = ("name", "dim", "values")

    def __init__(self, name: str, dim: int, values: tuple[QuadraticValue, ...]) -> None:
        self.name = name
        self.dim = dim
        self.values = values


class CharacterTable:
    __slots__ = ("group_name", "group_order", "classes", "irreps", "_index", "_rows")

    def __init__(self, group_name: str, group_order: int,
                 classes: tuple[ConjugacyClass, ...],
                 irreps: tuple[Irreducible, ...]) -> None:
        self.group_name = group_name
        self.group_order = group_order
        self.classes = classes
        self.irreps = irreps
        self._index = {c.name: k for k, c in enumerate(classes)}
        # The row |[g_k]| a_ik of every irrep i, and one row (i, d, row) per
        # irrep i and radicand d != 1 among its values, in the order d first
        # appears, with row[k] = |[g_k]| b_ik where chi_i(g_k) lies in
        # Q(sqrt d) and 0 elsewhere.
        sizes = [c.size for c in classes]
        self._rows = ([[s * v.a for s, v in zip(sizes, chi.values)] for chi in irreps],
                      [(i, d, [s * v.b if v.d == d else 0 for s, v in zip(sizes, chi.values)])
                       for i, chi in enumerate(irreps)
                       for d in dict.fromkeys(v.d for v in chi.values if v.b)])

    def class_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def class_named(self, name: str) -> ConjugacyClass:
        return self.classes[self.class_index(name)]

    def twice_sums(self, weights, irreps: int | None = None
                   ) -> tuple[list[int], dict[int, dict[int, int]]]:
        """2 sum_k |[g_k]| w_k chi_i(g_k) for every irrep i, or for the
        first irreps ones, for integer weights w parallel to the classes, as
        integer numerators: twice[i] is the rational part and roots[i][d]
        the coefficient of sqrt d, with only the irreps and radicands whose
        coefficient is nonzero kept.  Each numerator is one dot product of w
        with an integer row."""
        rational, irrational = self._rows
        roots: dict[int, dict[int, int]] = {}
        for i, d, row in irrational:
            if irreps is not None and i >= irreps:
                break
            if t := sum(map(mul, row, weights)):
                roots.setdefault(i, {})[d] = t
        return [sum(map(mul, row, weights)) for row in rational[:irreps]], roots


def _parse_value(obj, where: str) -> QuadraticValue:
    try:
        return QuadraticValue(int(obj["a"]), int(obj["b"]), int(obj["d"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise TableParseError(f"bad character value at {where}: {exc}") from exc


def _parse_values(irrep, classes) -> tuple[QuadraticValue, ...]:
    """An irrep document's values, one per class; a count that is not the
    number of classes is refused before any value is read."""
    values = irrep["values"]
    if len(values) != len(classes):
        raise TableParseError(f"irrep {irrep['name']}: wrong number of values")
    return tuple(_parse_value(v, f"{irrep['name']}/{c.name}") for c, v in zip(classes, values))


def _validate(table: CharacterTable) -> None:
    order = table.group_order
    classes, irreps = table.classes, table.irreps
    if len(classes) != len(irreps):
        raise TableParseError(
            f"{len(classes)} classes but {len(irreps)} irreps in {table.group_name}"
        )
    for kind, names in (("class", [c.name for c in classes]),
                        ("irrep", [chi.name for chi in irreps])):
        repeated = next((x for k, x in enumerate(names) if x in names[:k]), None)
        if repeated is not None:
            raise TableParseError(f"{kind} name {repeated} is repeated")
    total = sum(c.size for c in classes)
    if total != order:
        raise SizeSumError(
            f"class sizes sum to {total}, expected group order {order}"
        )
    ident = classes[0]
    if ident.size != 1 or ident.element_order != 1:
        raise TableParseError("first class must be the identity (size 1, order 1)")
    for c in classes:
        if c.ng < 1 or c.hg < 1:
            raise TableParseError(f"class {c.name}: ng = {c.ng} and hg = {c.hg} must be positive")
        if order % c.ng != 0:
            raise TableParseError(f"class {c.name}: ng = {c.ng} does not divide |G|")
        if c.ng % c.hg != 0:
            raise TableParseError(f"class {c.name}: hg = {c.hg} does not divide ng = {c.ng}")
        if c.fusion_target:
            _on_level(c, c.fusion_target)
    for chi in irreps:
        if chi.dim < 1:
            raise TableParseError(f"irrep {chi.name}: dim = {chi.dim} must be positive")
        ident_val = chi.values[0]
        if not (ident_val.is_rational and ident_val.a == 2 * chi.dim):
            raise TableParseError(f"irrep {chi.name}: identity value differs from dim")
    for i, chi in enumerate(irreps):
        if i and irreps[i - 1].dim > chi.dim:
            raise TableParseError(f"irrep {chi.name}: dims not non-decreasing")
    # The row relation X D X* = I, D = diag(|[g_k]|/|G|), exactly on integer
    # numerators (four times the sum).  X is square, so X is invertible and
    # X* X = D^-1: the column relation, and with it sum dim^2 = |G|, follows.
    # 2 conj(chi_j) is an integer vector a plus, per radicand d' of its
    # values, an integer vector b times sqrt(d'): twice_sums(a) is each
    # irrep's sum with the rational part, and twice_sums(b) times sqrt(d')
    # its sum with that part, each sqrt(d) landing at mul_roots(d, d').
    # Only the pairs i <= j are read, so only irreps 0..j are summed.
    full = {1: 4 * order}
    for j, chi_j in enumerate(irreps):
        conj = [v.conjugate() for v in chi_j.values]
        twice, roots = table.twice_sums([v.a for v in conj], j + 1)
        acc = [{1: twice[i], **roots.get(i, {})} for i in range(j + 1)]
        for dp in dict.fromkeys(v.d for v in conj if v.b):
            twice, roots = table.twice_sums([v.b if v.d == dp else 0 for v in conj], j + 1)
            for i in range(j + 1):
                for d, t in ((1, twice[i]), *roots.get(i, {}).items()):
                    c, s = mul_roots(d, dp)
                    acc[i][s] = acc[i].get(s, 0) + c * t
        for i in range(j + 1):
            got = {s: t for s, t in sorted(acc[i].items()) if t}
            if got != (full if i == j else {}):
                raise OrthogonalityError(
                    f"row orthogonality fails for ({irreps[i].name}, {chi_j.name}): "
                    f"four times the sum is {got}"
                )


def load_table(source) -> CharacterTable:
    """Parse and fully validate a table from a path, byte stream, or dict."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source, "rb") as fh:
                    doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("top-level document must be an object")
        except (OSError, ValueError) as exc:
            raise TableParseError(f"cannot parse table: {exc}") from exc
    try:
        classes = tuple(
            ConjugacyClass(
                name=str(c["name"]),
                size=int(c["size"]),
                element_order=int(c["element_order"]),
                ng=int(c["ng"]),
                hg=int(c["hg"]),
                fusion_target=(None if c.get("fusion_target") is None
                               else str(c["fusion_target"])),
            )
            for c in doc["classes"]
        )
        irreps = tuple(
            Irreducible(
                name=str(r["name"]),
                dim=int(r["dim"]),
                values=_parse_values(r, classes),
            )
            for r in doc["irreps"]
        )
        table = CharacterTable(
            group_name=str(doc["group_name"]),
            group_order=int(doc["group_order"]),
            classes=classes,
            irreps=irreps,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TableParseError(f"malformed table document: {exc}") from exc
    _validate(table)
    return table


def bundled_table(name: str) -> CharacterTable:
    """Load a packaged table by short name ('m24' or 'a5')."""
    with open(os.path.join(DATA_DIR, f"{name.lower()}.table"), "rb") as fh:
        return load_table(fh)


def distinct_orders(table: CharacterTable) -> list[int]:
    """Sorted distinct element orders, starting at 1."""
    return sorted({c.element_order for c in table.classes})


def _on_level(c: ConjugacyClass, target: str | None) -> str:
    """target, if it names a class of M24 at c's level; else TableError."""
    level = (c.ng, c.hg)
    if M24_LEVELS.get(target) != level:
        raise TableError(f"class {c.name}: its level (n_g, h_g) = {level} is not "
                         f"that of {target or 'a class'} in M24")
    return target


def m24_classes(table: CharacterTable) -> dict[str, str]:
    """The class of M24 that serves each class of table: its fusion target,
    else M24's class of its name if at its level (n_g, h_g), which keeps
    M24's 7B, 14B, 15B, 21B and 23B on their own store keys, else the
    first class of M24 at its level.  TableError refuses a class at a
    level that M24 lacks, or whose target lies off its level."""
    out = {}
    for c in table.classes:
        level = (c.ng, c.hg)
        own = c.name if M24_LEVELS.get(c.name) == level else _FIRST_AT.get(level)
        out[c.name] = _on_level(c, c.fusion_target or own)
    return out
