r"""Class data and character tables with exact validation.

Tables are JSON documents: group_name, group_order, classes (name, size,
element_order, ng, hg, optional fusion_target) and irreps (name, dim,
values as {a, b, d} quadratic triples parallel to the classes).  Loading
validates size sums and the row orthogonality relation exactly: four times
each sum of products of values (a + b sqrt(d))/2 is kept as integer
numerators keyed by squarefree radicand, so a class may mix values from
several quadratic fields.  The rational part of a sum is one integer dot
product; only the entries with b != 0 add cross terms.  The table is
square, so the row relation implies the column relation, which is not
checked again.  A table whose classes all carry fusion targets into M24
(fuses_into_m24) takes its coefficients from M24's classes.  Bundled
files for M24 and A5 live in DATA_DIR, the package's data directory.
"""

from __future__ import annotations

import json
import os
from operator import mul

from .quadratic import QuadraticValue, mul_roots


# The package data, next to the modules: installs must be unpacked files.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class TableError(Exception):
    """Base class for table ingestion failures."""


class TableParseError(TableError):
    pass


class SizeSumError(TableError):
    pass


class OrthogonalityError(TableError):
    pass


class UnknownClassError(KeyError):
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
    __slots__ = ("group_name", "group_order", "classes", "irreps", "_index", "_sized")

    def __init__(self, group_name: str, group_order: int,
                 classes: tuple[ConjugacyClass, ...],
                 irreps: tuple[Irreducible, ...]) -> None:
        self.group_name = group_name
        self.group_order = group_order
        self.classes = classes
        self.irreps = irreps
        self._index = {c.name: k for k, c in enumerate(classes)}
        self._sized = None

    def class_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def class_named(self, name: str) -> ConjugacyClass:
        return self.classes[self.class_index(name)]

    def sized_numerators(self) -> tuple[list[list[int]], list[tuple[int, int, list[int]]]]:
        """The integer matrices of the size-weighted class sums, built once.

        Returns (rational, irrational): rational[i][k] = |[g_k]| a_ik for
        every irrep i, and one labelled row (i, d, row) per irrep i and
        radicand d != 1 among its values, in the order d first appears,
        with row[k] = |[g_k]| b_ik where chi_i(g_k) lies in Q(sqrt d) and 0
        elsewhere.  For integer weights w, twice sum_k |[g_k]| w_k chi_i(g_k)
        is rational[i] . w plus, for each of irrep i's rows, (row . w) sqrt d:
        it is rational exactly when all those dot products vanish.
        """
        if self._sized is None:
            sizes = [c.size for c in self.classes]
            rational = [[s * v.a for s, v in zip(sizes, chi.values)] for chi in self.irreps]
            irrational = [(i, d, [s * v.b if v.d == d else 0 for s, v in zip(sizes, chi.values)])
                          for i, chi in enumerate(self.irreps)
                          for d in dict.fromkeys(v.d for v in chi.values if v.b)]
            self._sized = (rational, irrational)
        return self._sized


def _parse_value(obj, where: str) -> QuadraticValue:
    try:
        return QuadraticValue(int(obj["a"]), int(obj["b"]), int(obj["d"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise TableParseError(f"bad character value at {where}: {exc}") from exc


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
    for chi in irreps:
        if chi.dim < 1:
            raise TableParseError(f"irrep {chi.name}: dim = {chi.dim} must be positive")
        if len(chi.values) != len(classes):
            raise TableParseError(f"irrep {chi.name}: wrong number of values")
        ident_val = chi.values[0]
        if not (ident_val.is_rational and ident_val.a == 2 * chi.dim):
            raise TableParseError(f"irrep {chi.name}: identity value differs from dim")
    for i, chi in enumerate(irreps):
        if i and irreps[i - 1].dim > chi.dim:
            raise TableParseError(f"irrep {chi.name}: dims not non-decreasing")
    # The row relation X D X* = I, D = diag(|[g_k]|/|G|), exactly on integer
    # numerators (four times the sum).  X is square, so X is invertible and
    # X* X = D^-1: the column relation, and with it sum dim^2 = |G|, follows.
    sizes = [c.size for c in classes]
    conj = [[v.conjugate() for v in chi.values] for chi in irreps]
    rows = [_numerators(chi.values, sizes) for chi in irreps]
    conj_rows = [_numerators(row) for row in conj]
    full = {1: 4 * order}
    for i, chi_i in enumerate(irreps):
        for j in range(i, len(irreps)):
            got = _four_sum(rows[i], conj_rows[j])
            if got != (full if i == j else {}):
                raise OrthogonalityError(
                    f"row orthogonality fails for ({chi_i.name}, {irreps[j].name}): "
                    f"four times the sum is {got}"
                )


def _numerators(values, weights=None):
    """A value vector, each entry times its integer weight (default 1), as
    (list of numerators a, {index: (numerator b, d)} for the entries with b != 0)."""
    if weights is None:
        weights = [1] * len(values)
    return ([w * v.a for w, v in zip(weights, values)],
            {k: (w * v.b, v.d) for k, (w, v) in enumerate(zip(weights, values)) if v.b})


def _four_sum(x, y) -> dict[int, int]:
    """4 sum_k x_k y_k of two vectors from _numerators, as integer numerators
    keyed by squarefree radicand, zeros dropped.

    The rational part is one dot product of the numerator lists; only the
    entries with b != 0 add cross terms, keyed through mul_roots.  Keys come
    in the order of their first nonzero term: k ascending and, within a k,
    the rational part, the root of y, the root of x, then their product.
    """
    (xa, xb), (ya, yb) = x, y
    rational = sum(map(mul, xa, ya))
    lead = next((k for k, t in enumerate(map(mul, xa, ya)) if t), None)
    acc: dict[int, int] = {}
    for k in sorted(xb.keys() | yb.keys()):
        if lead is not None and lead <= k:
            acc[1] = acc.get(1, 0) + rational
            lead = None
        u, v = xb.get(k), yb.get(k)
        if v and xa[k]:
            acc[v[1]] = acc.get(v[1], 0) + xa[k] * v[0]
        if u and ya[k]:
            acc[u[1]] = acc.get(u[1], 0) + u[0] * ya[k]
        if u and v:
            c, s = mul_roots(u[1], v[1])
            acc[s] = acc.get(s, 0) + c * u[0] * v[0]
    if lead is not None:
        acc[1] = acc.get(1, 0) + rational
    return {s: t for s, t in acc.items() if t}


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
                fusion_target=c.get("fusion_target"),
            )
            for c in doc["classes"]
        )
        irreps = tuple(
            Irreducible(
                name=str(r["name"]),
                dim=int(r["dim"]),
                values=tuple(
                    _parse_value(v, f"{r['name']}/{classes[k].name}")
                    for k, v in enumerate(r["values"])
                ),
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


def fuses_into_m24(table: CharacterTable) -> bool:
    """Whether table is a subgroup of M24 whose classes all carry fusion
    targets: its coefficients are those of M24 at the targets."""
    return table.group_name != "M24" and all(c.fusion_target for c in table.classes)
