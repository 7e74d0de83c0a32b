r"""Command-line surface.

Subcommands: validate, coeff, decompose, filtrate, asympt, cache.  Every
command is deterministic given configuration and cache state; rerunning
with a warm cache produces byte-identical output.  Exit status is 0 only
when every gate a command runs passes: the table's orthogonality, a
coefficient's truncation gate, a grade's integrality.  A command reports
exactly the MoonmodError, ValueError and OSError failures, each as one
`error:` line (validate: one `FAIL:` line) and exit status 1.  The
reconstruction identities of decomposition and filtration follow from
their exact integer arithmetic and are asserted by the tests, not
re-checked here.

One rule, chartab.m24_classes, serves every class of every table by a
class of M24 at its level (n_g, h_g), in coeff's engine and the oracle
alike.  Every command refuses a fusion target off its class's level when
the table loads, and a level that M24 lacks when a value is read.

main reads every argument that can fail once, before any command loads
a layer, and refuses a bad one with its one error line: it parses --n
into args.grades, resolves the cache file into args.cache (the --cache
flag, then the MOONMOD_CACHE environment variable, a directory holding
m24_coeffs.ldjson for every table: the engine keeps M24's records, so
cache loads no table and takes no --group), and refuses (_writable) a
cache or --out file in the package data directory, which no command
writes or deletes, one that is a directory, and one in a missing
directory.  The cache file overlays the packaged store, which is read
into memory: file records win, and new values are appended to the file
only.  With neither, nothing is written.  Only coeff and cache read the
file or append to it: decompose, filtrate --n and asympt read their
values, at any grade, from the exact q-series oracle (moonmod.qseries).

Each command imports the modules it uses when it runs: validate loads the
table modules only, cache adds moonmod.store, coeff the store and the
engine.  decompose and asympt --free add decomp and qseries, filtrate
--n filtration as well, and asympt --nonfree numerics too; none of them
loads the store, the engine, numpy or mpmath.  filtrate --residue reads
the table, filtration and numerics alone.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from . import chartab
from .chartab import CharacterTable, MoonmodError, TableError, bundled_table, load_table

BUNDLED_GROUPS = ("m24", "a5")


def _load_group(name_or_path: str) -> CharacterTable:
    if name_or_path.lower() in BUNDLED_GROUPS:
        return bundled_table(name_or_path.lower())
    return load_table(name_or_path)


def _writable(path: str) -> None:
    """Refuse path, a cache file a command may append to or delete or an
    --out file it writes: in the package data directory (chartab.DATA_DIR,
    read at call time), which is never written, with ValueError; as a
    directory, or in a missing one, with the OSError its first write
    would meet."""
    data = os.path.realpath(chartab.DATA_DIR)
    if os.path.commonpath([os.path.realpath(path), data]) == data:
        raise ValueError(f"{path} lies in the package data directory "
                         f"{chartab.DATA_DIR}, which is read-only")
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _make_engine(args, table: CharacterTable):
    """The coefficient engine of coeff, serving table's classes over the
    packaged store and the resolved cache file args.cache."""
    from .rademacher import RademacherEngine
    from .store import bundled_cache

    return RademacherEngine(table, cache=bundled_cache(args.cache))


def _parse_grades(spec: str) -> list[int]:
    """Single value, comma list, or lo..hi range; a part that is not one
    raises ValueError naming it and the whole spec."""
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        lo, dots, hi = part.partition("..")
        try:
            lo = int(lo)
            hi = int(hi) if dots else lo
        except ValueError:
            raise ValueError(f"bad grade {part!r} in grade spec {spec!r}") from None
        if hi < lo:
            raise ValueError(f"empty grade range {part!r}")
        out.extend(range(lo, hi + 1))
    return out


def _csv(header: list[str], rows) -> str:
    """header and rows as CSV text, each line ended by a bare newline."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        table = _load_group(args.table or args.group)
    except TableError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    # The sum of dim^2 is implied by the row relation that load_table checks:
    # for a square table it gives the column relation, whose entry at the
    # identity is that sum.
    checks = [f"parsed {table.group_name}: {len(table.classes)} classes, "
              f"{len(table.irreps)} irreps",
              f"class sizes sum to |G| = {table.group_order}",
              f"sum of dim^2 = {table.group_order} = |G|",
              "row orthogonality exact", "column orthogonality exact"]
    _emit("".join(f"ok: {line}\n" for line in checks) + "pass\n", args.out)
    return 0


def cmd_coeff(args) -> int:
    table = _load_group(args.group)
    engine = _make_engine(args, table)
    # Each named class once, in first-seen order.
    class_names = (list(dict.fromkeys(args.cls.split(","))) if args.cls is not None
                   else [c.name for c in table.classes])
    # Each grade once: first-seen order keeps cold store appends in request
    # order, and the rows are sorted by n.
    grades = list(dict.fromkeys(args.grades))
    rows = []
    for name in class_names:
        recs = sorted(engine.records(name, grades), key=lambda rec: rec.n)
        rows.extend({**rec.json_fields(), "class": name} for rec in recs)
    if args.format == "json":
        doc = {"schema": 1, "group": table.group_name, "records": rows}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        text = _csv(list(rows[0]), ({**row, "residual": f"{row['residual']:.3e}"}.values()
                                    for row in rows))
    _emit(text, args.out)
    return 0


def cmd_decompose(args) -> int:
    from . import decomp
    from .qseries import QSeriesOracle

    table = _load_group(args.group)
    grades = args.grades
    coeffs = QSeriesOracle(table, max(grades))
    profiles = {p.n: p for p in decomp.ratio_profile(
        table, [n for n in grades if n >= 1], coeffs)}
    # In request order: (n, multiplicities, profile); below n = 1 a grade
    # has no profile.
    rows = [(n, profiles[n].mv if n >= 1 else decomp.multiplicities(table, n, coeffs),
             profiles.get(n)) for n in grades]
    if args.format == "json":
        doc = {"schema": 1, "group": table.group_name, "grades": [
            {"n": n,
             "multiplicities": {chi.name: mv.m[i] for i, chi in enumerate(table.irreps)},
             "max_deviation": prof.max_deviation if prof else None}
            for n, mv, prof in rows]}
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        text = _csv(["n", "irrep", "dim", "multiplicity", "ratio", "limit_ratio"],
                    ([n, chi.name, chi.dim, mv.m[i],
                      f"{float(prof.observed[i]):.12g}" if prof else "",
                      f"{float(prof.limits[i]):.12g}" if prof else ""]
                     for n, mv, prof in rows for i, chi in enumerate(table.irreps)))
    _emit(text, args.out)
    return 0


def cmd_filtrate(args) -> int:
    from . import decomp, filtration

    table = _load_group(args.group)
    if args.residue is not None:
        profile = filtration.sign_profile(table)
        result = filtration.filtrate_asymptotic(table, profile, args.residue,
                                                args.modulus)
    else:
        from .qseries import QSeriesOracle

        [n] = args.grades
        coeffs = QSeriesOracle(table, n)
        mv = decomp.multiplicities(table, n, coeffs)
        signs = filtration.signs_at(table, coeffs, n)
        result = filtration.filtrate_exact(mv, table, signs)
    _emit(filtration.result_to_json(result, table) + "\n", args.out)
    return 0


def cmd_asympt(args) -> int:
    from . import decomp
    from .qseries import QSeriesOracle

    table = _load_group(args.group)
    grades = args.grades
    coeffs = QSeriesOracle(table, max(grades))
    if args.free:
        text = _csv(["n", "max_deviation"],
                    ([prof.n, f"{prof.max_deviation:.6g}"]
                     for prof in decomp.ratio_profile(table, grades, coeffs)))
    else:
        from . import filtration

        rows = []
        for n in grades:
            mv = decomp.multiplicities(table, n, coeffs)
            _, nonfree = decomp.free_part_split(mv, table)
            signs = filtration.signs_at(table, coeffs, n)
            pred = filtration.nonfree_asymptotic(table, signs, n)
            rows.extend([n, chi.name, nonfree.m[i], f"{pred[i]:.6g}",
                         f"{nonfree.m[i] / pred[i]:.6g}" if pred[i] else ""]
                        for i, chi in enumerate(table.irreps))
        text = _csv(["n", "irrep", "observed", "predicted", "ratio"], rows)
    _emit(text, args.out)
    return 0


def cmd_cache(args) -> int:
    from .store import CoefficientCache, bundled_cache

    path = args.cache
    if path is None and args.clear:
        print("no cache file to clear: the packaged store is read-only; "
              "name one with --cache or MOONMOD_CACHE", file=sys.stderr)
        return 1
    if path is not None and not os.path.exists(path):
        print("no cache file", file=sys.stderr)
        return 1
    if args.clear:
        os.remove(path)
        _emit(f"removed {path}\n", args.out)
        return 0
    cache = CoefficientCache(path) if path else bundled_cache()
    by_class: dict[str, int] = {}
    for (_, cls, _n) in cache.records:
        by_class[cls] = by_class.get(cls, 0) + 1
    _emit(f"{path or 'packaged store'}: {len(cache)} records\n"
          + "".join(f"  {cls}: {by_class[cls]}\n" for cls in sorted(by_class)), args.out)
    return 0


# -- parser ------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, table: bool = True) -> None:
    if table:
        p.add_argument("--group", default="m24",
                       help="bundled group name (m24, a5) or a table file path")
    # On every command, validate included: perfbench's cli_session and
    # make_reference.py append --cache <copy> to each command they run.
    p.add_argument("--cache", help="coefficient cache file (ldjson)")
    p.add_argument("--out", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moonmod",
        description="Rademacher coefficients, character decompositions, and "
                    "regular-representation filtrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a table and run every exact gate")
    p.add_argument("table", nargs="?", help="table file (defaults to --group)")
    _add_common(p)

    p = sub.add_parser("coeff", help="compute Fourier coefficients")
    p.add_argument("--class", dest="cls",
                   help="comma-separated class names (default: all)")
    p.add_argument("--n", required=True,
                   help="grade: single value, comma list, or lo..hi")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("decompose", help="irreducible multiplicities per grade")
    p.add_argument("--n", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p)

    p = sub.add_parser("filtrate", help="regular-representation filtration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", help="single grade for exact mode")
    group.add_argument("--residue", type=int, help="residue class for asymptotic mode")
    p.add_argument("--modulus", type=int, help="modulus for asymptotic mode")
    _add_common(p)

    p = sub.add_parser("asympt", help="observed vs predicted asymptotics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--free", action="store_true",
                       help="dimension-ratio deviations (free part)")
    group.add_argument("--nonfree", action="store_true",
                       help="leading non-free correction")
    p.add_argument("--n", required=True)
    _add_common(p)

    p = sub.add_parser("cache", help="inspect or clear the coefficient cache")
    p.add_argument("--clear", action="store_true")
    _add_common(p, table=False)

    return parser


COMMANDS = {
    "validate": cmd_validate,
    "coeff": cmd_coeff,
    "decompose": cmd_decompose,
    "filtrate": cmd_filtrate,
    "asympt": cmd_asympt,
    "cache": cmd_cache,
}


def _joined_grades(argv: list[str]) -> list[str]:
    """argv with each `--n SPEC` whose SPEC starts with '-' and a digit
    joined into `--n=SPEC`: argparse reads a separate `-1..3` as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--n" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--n={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_grades(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "filtrate" and args.n is not None and args.modulus is not None:
        parser.error("argument --modulus: not allowed with argument --n")
    if args.command == "filtrate" and args.residue is not None and args.modulus is None:
        parser.error("argument --residue: requires argument --modulus")
    try:
        # Every argument that can fail, read once before a command loads a layer.
        args.grades = None if getattr(args, "n", None) is None else _parse_grades(args.n)
        if args.command == "filtrate" and args.grades is not None and len(args.grades) > 1:
            parser.error("argument --n: filtrate takes a single grade")
        env_dir = os.environ.get("MOONMOD_CACHE")
        if not args.cache:
            args.cache = os.path.join(env_dir, "m24_coeffs.ldjson") if env_dir else None
        for path in (args.cache, args.out):
            if path:
                _writable(path)
        return COMMANDS[args.command](args)
    except (MoonmodError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
