"""End-to-end command-line behavior on the warm cache."""

import hashlib
import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import moonmod.cli
from moonmod import kernels
from moonmod.chartab import (DATA_DIR, MoonmodError, TableError, UnknownClassError,
                             bundled_table)
from moonmod.cli import _make_engine, build_parser, main
from moonmod.decomp import DecompositionError
from moonmod.filtration import FiltrationError
from moonmod.rademacher import NonConvergent, RademacherEngine
from moonmod.store import RecordModeError, bundled_cache

REPO_CACHE = os.path.join(os.path.dirname(__file__), "..", "src", "moonmod", "data",
                          "m24_coeffs.ldjson")

pytestmark = pytest.mark.skipif(
    not os.path.exists(REPO_CACHE),
    reason="precomputed coefficient store not present",
)


@pytest.fixture(scope="module")
def cache_args(tmp_path_factory):
    """A writable copy of the precomputed store, so no test writes package data."""
    copy = tmp_path_factory.mktemp("store") / "m24_coeffs.ldjson"
    shutil.copyfile(REPO_CACHE, copy)
    return ["--cache", str(copy)]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_bundled(capsys):
    code, out, _ = run(capsys, ["validate", "--group", "m24"])
    assert code == 0 and out.endswith("pass\n")
    code, out, _ = run(capsys, ["validate", "--group", "a5"])
    assert code == 0


def test_validate_corrupt(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text('{"group_name": "X"}')
    code, _, err = run(capsys, ["validate", str(bad)])
    assert code == 1 and "FAIL" in err


def test_coeff_csv(capsys, cache_args):
    code, out, _ = run(capsys, ["coeff", "--class", "1A", "--n", "1"] + cache_args)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("class,n,value")
    assert lines[1].split(",")[:3] == ["1A", "1", "90"]


def test_coeff_repeated_class_printed_once(capsys, cache_args):
    """A class named twice is printed once, in first-seen order."""
    code, out, _ = run(capsys, ["coeff", "--class", "2A,1A,2A,1A", "--n", "1"]
                       + cache_args)
    assert code == 0
    assert [line.split(",")[:3] for line in out.splitlines()[1:]] == \
        [["2A", "1", "-6"], ["1A", "1", "90"]]


def test_coeff_repeated_grade_printed_once(capsys, cache_args):
    """A grade named twice is printed once per class, rows sorted by n."""
    code, out, _ = run(capsys, ["coeff", "--group", "a5", "--n", "5,3,3,-1"] + cache_args)
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == \
        [[c, n] for c in ("1A", "2A", "3A", "5A", "5B") for n in ("-1", "3", "5")]
    assert run(capsys, ["coeff", "--group", "a5", "--n=-1,3,5"] + cache_args) == (0, out, "")


def test_coeff_polar_and_range(capsys, cache_args):
    code, out, _ = run(capsys, ["coeff", "--class", "1A", "--n=-1..1"]
                       + cache_args)
    assert code == 0
    values = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert values == ["-2", "0", "90"]


@pytest.mark.parametrize("argv", [
    ["coeff", "--n", "-1..3"],
    ["coeff", "--class", "1A,2A", "--n", "-1,2", "--format", "json"],
    ["coeff", "--group", "a5", "--n", "-1"],
    ["decompose", "--n", "-1..2"],
])
def test_negative_grade_as_separate_argument(argv, capsys, cache_args):
    """`--n -1..3` prints exactly what `--n=-1..3` does."""
    i = argv.index("--n")
    joined = argv[:i] + [f"--n={argv[i + 1]}"] + argv[i + 2:]
    want = run(capsys, joined + cache_args)
    assert want[0] == 0 and want[1]
    assert run(capsys, argv + cache_args) == want


def test_coeff_json_schema(capsys, cache_args):
    code, out, _ = run(capsys, ["coeff", "--class", "2A,2B", "--n", "1..4",
                                "--format", "json"] + cache_args)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    rec = doc["records"][0]
    assert rec["class"] == "2A" and rec["value"] == "-6"


def test_coeff_deterministic_rerun(capsys, cache_args):
    argv = ["coeff", "--class", "2A", "--n", "1..10"] + cache_args
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_decompose_polar(capsys, cache_args):
    code, out, _ = run(capsys, ["decompose", "--n=-1"] + cache_args)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][3] == "-2"
    assert all(r[3] == "0" for r in rows[1:])


def test_decompose_n1(capsys, cache_args):
    code, out, _ = run(capsys, ["decompose", "--n", "1"] + cache_args)
    assert code == 0
    assert out.splitlines()[0] == "n,irrep,dim,multiplicity,ratio,limit_ratio"
    rows = [line.split(",") for line in out.splitlines()[1:]]
    nonzero = [(r[1], r[2], r[3]) for r in rows if r[3] != "0"]
    assert len(nonzero) == 2
    assert all(dim == "45" and mult == "1" for _, dim, mult in nonzero)


def test_filtrate_a5_asymptotic(capsys, cache_args):
    code, out, _ = run(capsys, ["filtrate", "--group", "a5", "--residue", "10",
                                "--modulus", "30"] + cache_args)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["order_blocks"] == [["chi3a", "chi3b"], ["chi4"],
                                   ["chi1", "chi5"]]


def test_filtrate_m24_asymptotic(capsys):
    code, out, _ = run(capsys, ["filtrate", "--residue", "0", "--modulus", "212520"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "asymptotic" and doc["N"] == 212520
    code, _, err = run(capsys, ["filtrate", "--residue", "0", "--modulus", "60"])
    assert code == 1 and err.startswith("error: modulus 60 is not a multiple")
    code, _, err = run(capsys, ["filtrate", "--residue", "0", "--modulus", "0"])
    assert code == 1 and err.startswith("error: modulus 0 is not positive")


def test_filtrate_asymptotic_builds_no_engine(capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("asymptotic mode built a coefficient engine")

    monkeypatch.setattr("moonmod.cli._make_engine", refuse)
    code, out, _ = run(capsys, ["filtrate", "--group", "a5", "--residue", "10",
                                "--modulus", "30"])
    assert code == 0
    assert json.loads(out)["order_blocks"][0] == ["chi3a", "chi3b"]


def test_filtrate_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["filtrate", "--group", "a5", "--n", "30", "--residue", "10",
              "--modulus", "30"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_filtrate_exact_mode_refuses_modulus(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["filtrate", "--group", "a5", "--n", "30", "--modulus", "7"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--modulus: not allowed with argument --n" in err


@pytest.mark.parametrize("argv, message", [
    (["filtrate", "--group", "a5", "--residue", "10"],
     "--residue: requires argument --modulus"),
    # The engine has one configuration; these options were removed.
    (["coeff", "--n", "1", "--tol", "1e-3"], "unrecognized arguments: --tol"),
    (["coeff", "--n", "1", "--precision", "100"], "unrecognized arguments: --precision"),
    (["filtrate", "--n", "1,2"], "argument --n: filtrate takes a single grade"),
], ids=["filtrate --residue without --modulus", "coeff --tol", "coeff --precision",
        "filtrate --n 1,2"])
def test_usage_error_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


@pytest.mark.parametrize("argv", [
    ["validate"], ["filtrate", "--n", "1"],
    ["filtrate", "--group", "a5", "--residue", "10", "--modulus", "30"],
    ["asympt", "--free", "--n", "1"], ["cache"],
    ["coeff", "--class", "1A", "--n", "1"], ["decompose", "--n", "1"]], ids=" ".join)
def test_format_only_where_read(argv, capsys, cache_args):
    """coeff and decompose read --format; every other command refuses it."""
    argv = argv + ["--format", "json"] + cache_args
    if argv[0] in ("coeff", "decompose"):
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["schema"] == 1
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --format" in err


def test_filtrate_exact_m24(capsys, cache_args):
    code, out, _ = run(capsys, ["filtrate", "--group", "m24", "--n", "30"]
                       + cache_args)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact" and doc["n"] == 30
    assert doc["chain"][0]["r"] >= 1


def test_asympt_free_trend(capsys, cache_args):
    code, out, _ = run(capsys, ["asympt", "--free", "--n", "10,50"] + cache_args)
    assert code == 0
    rows = out.splitlines()[1:]
    dev = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert dev[50] < dev[10]


@pytest.mark.parametrize("n", ["0", "-1"])
def test_asympt_nonfree_below_grade_one(capsys, cache_args, n):
    """Grade 0, where every sign vanishes, is refused for its grade, as
    grade -1 is, and not as a degenerate level."""
    code, out, err = run(capsys, ["asympt", "--nonfree", "--n", n] + cache_args)
    assert (code, out, err) == (1, "", "error: n must be at least 1\n")


def test_asympt_nonfree(capsys, cache_args):
    code, out, _ = run(capsys, ["asympt", "--nonfree", "--n", "40"] + cache_args)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 26
    # entries with nonzero prediction should be within a factor of 2 at n=40
    checked = 0
    for r in rows:
        if r[4]:
            assert 0.3 < float(r[4]) < 3.0
            checked += 1
    assert checked > 0


def test_cache_info(capsys, cache_args):
    code, out, _ = run(capsys, ["cache"] + cache_args)
    assert code == 0
    assert "records" in out


def test_out_flag_writes_file(tmp_path, capsys, cache_args):
    target = tmp_path / "coeffs.csv"
    code, out, _ = run(capsys, ["coeff", "--class", "1A", "--n", "1..3",
                                "--out", str(target)] + cache_args)
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1].split(",")[2] == "90"


def test_bad_grade_spec(capsys, cache_args):
    code, _, err = run(capsys, ["coeff", "--class", "1A", "--n", "5..1"]
                       + cache_args)
    assert code == 1 and "error" in err


@pytest.mark.parametrize("spec", ["1,,2", "1..", "..3", "x"])
@pytest.mark.parametrize("command", [["coeff", "--class", "1A"], ["decompose"]],
                         ids=lambda argv: argv[0])
def test_malformed_grade_spec_is_named(command, spec, capsys, cache_args):
    """A part of a grade spec that is no integer or range is one error line
    naming the whole spec, not int()'s message."""
    code, out, err = run(capsys, command + ["--n", spec] + cache_args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"grade spec {spec!r}" in err and "int()" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("group, name", [("m24", "99Z"), ("a5", "9Z"), ("m24", "")])
def test_coeff_unknown_class(group, name, capsys, cache_args):
    """An empty --class is an unknown class, as the empty name in --class
    1A,,2A is, and does not stand for every class."""
    code, out, err = run(capsys, ["coeff", "--group", group, "--class", name,
                                  "--n", "1"] + cache_args)
    assert (code, out) == (1, "")
    assert err == f"error: unknown conjugacy class {name!r}\n"


@pytest.mark.parametrize("exc", [
    NonConvergent("23A", 7, 0.4),
    DecompositionError("multiplicity of chi3 is not an integer"),
    FiltrationError("no minimizer"),
    TableError("bad table"),
    UnknownClassError("99Z"),
    ValueError("bad grade"),
    RecordModeError({"class": "1A", "n": 1, "mode": "omega-floor"}),
], ids=lambda exc: type(exc).__name__)
def test_typed_errors_exit_1(exc, monkeypatch, capsys):
    """A typed failure raised inside a command is one error line, exit 1."""
    def command(_args):
        raise exc

    monkeypatch.setitem(moonmod.cli.COMMANDS, "cache", command)
    assert run(capsys, ["cache"]) == (1, "", f"error: {exc}\n")


@pytest.mark.parametrize("exc", [RuntimeError("bug"), KeyError("1A"),
                                 ZeroDivisionError()], ids=lambda exc: type(exc).__name__)
def test_untyped_errors_propagate(exc, monkeypatch, capsys):
    def command(_args):
        raise exc

    monkeypatch.setitem(moonmod.cli.COMMANDS, "cache", command)
    with pytest.raises(type(exc)):
        main(["cache"])
    assert capsys.readouterr() == ("", "")


def test_every_failure_type_is_reported():
    """Every exception class of the package is a MoonmodError or a
    ValueError, so that a command reports it without naming it."""
    seen = []
    for path in sorted(Path(moonmod.cli.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"moonmod.{path.stem}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == module.__name__:
                assert issubclass(cls, (MoonmodError, ValueError)), cls
                seen.append(cls.__name__)
    assert {"TableError", "UnknownClassError", "DecompositionError", "FiltrationError",
            "NonConvergent", "RecordModeError"} <= set(seen)


@pytest.mark.parametrize("argv", [
    ["cache", "--cache", "{dir}", "--clear"],
    ["coeff", "--class", "1A", "--n", "1", "--cache", "{dir}"],
    ["coeff", "--class", "1A", "--n", "200", "--cache", "{missing}"],
    ["decompose", "--n", "61", "--cache", "{missing}"],
    ["validate", "--out", "{missing}"],
], ids=["cache clear dir", "coeff cache dir", "cold coeff cache missing dir",
        "cold decompose cache missing dir", "validate out missing dir"])
def test_unopenable_file_exits_1(argv, tmp_path, monkeypatch, capsys):
    """A --cache or --out file the OS refuses to open is one error line with
    exit status 1, and a directory named as the cache file is left alone.
    A cache file in a missing directory is refused before any sweep."""
    def no_sweep(*_args, **_kwargs):
        raise AssertionError("swept before the cache path was checked")

    monkeypatch.setattr(RademacherEngine, "_sweep", no_sweep)
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    paths = {"dir": tmp_path / "store", "missing": tmp_path / "missing" / "x.ldjson"}
    paths["dir"].mkdir()
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert paths["dir"].is_dir()


def test_out_in_missing_dir_refused_before_any_work(tmp_path, monkeypatch, capsys):
    """An --out file whose directory is missing is refused before a table
    is loaded or a coefficient swept: grade 61 is not in the store."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("worked before the --out path was checked")

    monkeypatch.setattr(kernels, "kloosterman_grades", refuse)
    monkeypatch.setattr(moonmod.cli, "_load_group", refuse)
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, ["decompose", "--n", "61", "--out", str(out_path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert not out_path.parent.exists()


def test_cache_clear_keeps_packaged_store(monkeypatch, capsys):
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    store = resources.files("moonmod.data").joinpath("m24_coeffs.ldjson")
    before = hashlib.sha256(store.read_bytes()).hexdigest()
    code, out, err = run(capsys, ["cache", "--clear"])
    assert store.is_file()
    assert hashlib.sha256(store.read_bytes()).hexdigest() == before
    assert code == 1 and out == "" and "read-only" in err


def test_default_cache_is_the_packaged_store_in_memory(monkeypatch, capsys):
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    engine = _make_engine(build_parser().parse_args(["coeff", "--n", "1"]),
                          bundled_table("m24"))
    assert engine.cache.path is None and len(engine.cache) > 0
    code, out, _ = run(capsys, ["cache"])
    assert code == 0
    assert out.startswith(f"packaged store: {len(bundled_cache())} records\n")


def test_cache_file_overlays_packaged_store(tmp_path, capsys):
    # A new cache file starts from the packaged values: nothing is
    # recomputed, so nothing is appended and the file is never created.
    path = tmp_path / "m24_coeffs.ldjson"
    code, out, _ = run(capsys, ["coeff", "--class", "1A", "--n", "1",
                                "--cache", str(path)])
    assert code == 0
    assert out.splitlines()[1].split(",")[:3] == ["1A", "1", "90"]
    assert not path.exists()


def test_cache_command_finds_the_ambient_store(tmp_path, monkeypatch, capsys):
    """Under MOONMOD_CACHE, A5 commands read and append to m24_coeffs.ldjson
    (their engine runs on M24), so `cache --group a5` reports and clears
    that file, for a bundled name and for a table path alike."""
    line = json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "90",
                       "residual": 1e-5, "c_max_used": 127, "mode": "classical",
                       "gate": "dip"}, sort_keys=True)
    store = tmp_path / "m24_coeffs.ldjson"
    store.write_text(line + "\n")
    monkeypatch.setenv("MOONMOD_CACHE", str(tmp_path))
    a5_path = str(resources.files("moonmod.data").joinpath("a5.table"))
    for group in ("a5", a5_path):
        assert run(capsys, ["cache", "--group", group]) == \
            (0, f"{store}: 1 records\n  1A: 1\n", "")
    assert run(capsys, ["cache", "--group", "a5", "--clear"]) == (0, f"removed {store}\n", "")
    assert not store.exists()


def test_cache_flag_loads_no_table(tmp_path, monkeypatch, capsys):
    store = tmp_path / "anything.ldjson"
    store.write_text("")
    monkeypatch.setattr(moonmod.cli, "_load_group", None)
    assert run(capsys, ["cache", "--group", "a5", "--cache", str(store)]) == \
        (0, f"{store}: 0 records\n", "")


def test_cache_record_with_foreign_mode_refused(tmp_path, capsys):
    path = tmp_path / "m24_coeffs.ldjson"
    path.write_text(json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "90",
                                "residual": 1e-5, "c_max_used": 127,
                                "mode": "omega-floor", "gate": "dip"}) + "\n")
    code, out, err = run(capsys, ["coeff", "--class", "1A", "--n", "1",
                                  "--cache", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "omega-floor" in err


def test_cache_record_without_residual_skipped(tmp_path):
    """A cache-file record with no residual or c_max_used is skipped like
    any malformed line: the packaged record serves the command, with no
    traceback."""
    path = tmp_path / "cache.ldjson"
    path.write_text(json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "91",
                                "mode": "classical"}) + "\n")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("MOONMOD_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "moonmod.cli", "coeff", "--class", "1A",
                           "--n", "1", "--cache", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split(",")[:3] == ["1A", "1", "90"]
    assert "Traceback" not in proc.stderr


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """The store's package data directory, pointed at a copy of the store."""
    import moonmod.store as store

    data = tmp_path / "data"
    data.mkdir()
    shutil.copyfile(REPO_CACHE, data / "m24_coeffs.ldjson")
    monkeypatch.setattr(store, "DATA_DIR", str(data))
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    return data


@pytest.mark.parametrize("argv", [["cache", "--clear"], ["cache"],
                                  ["coeff", "--class", "1A", "--n", "1"]], ids=" ".join)
def test_cache_file_in_package_data_refused(argv, data_copy, tmp_path, capsys):
    """--cache naming the packaged store (or a link to it) is refused: the
    store is neither deleted nor written."""
    store = data_copy / "m24_coeffs.ldjson"
    before = store.read_bytes()
    link = tmp_path / "link.ldjson"
    link.symlink_to(store)
    for path in (store, link):
        code, out, err = run(capsys, argv + ["--cache", str(path)])
        assert (code, out) == (1, "")
        assert err == (f"error: {path} lies in the package data directory "
                       f"{data_copy}, which is read-only\n")
    assert store.read_bytes() == before


@pytest.mark.parametrize("argv", [["cache", "--clear"], ["cache", "--group", "a5"],
                                  ["coeff", "--class", "1A", "--n", "61"]], ids=" ".join)
def test_cache_dir_in_package_data_refused(argv, data_copy, monkeypatch, capsys):
    """MOONMOD_CACHE naming the package data directory is refused before
    the store is read, so a cold coeff appends nothing to it."""
    store = data_copy / "m24_coeffs.ldjson"
    before = store.read_bytes()
    monkeypatch.setenv("MOONMOD_CACHE", str(data_copy))
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {store} lies in the package data directory "
                   f"{data_copy}, which is read-only\n")
    assert store.read_bytes() == before


@pytest.mark.parametrize("argv", [["validate", "--group", "a5"],
                                  ["decompose", "--group", "a5", "--n", "1"]], ids=" ".join)
def test_out_file_in_package_data_refused(argv, data_copy, tmp_path, monkeypatch, capsys):
    """--out naming a package data file, directly or through a link, is
    refused before any table is loaded, and the file is left as it was."""
    def no_table(_name):
        raise AssertionError("table loaded before the --out path was checked")

    monkeypatch.setattr(moonmod.cli, "_load_group", no_table)
    table = data_copy / "a5.table"
    shutil.copyfile(os.path.join(DATA_DIR, "a5.table"), table)
    before = table.read_bytes()
    link = tmp_path / "link.table"
    link.symlink_to(table)
    for path in (table, link):
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert (code, out) == (1, "")
        assert err == (f"error: {path} lies in the package data directory "
                       f"{data_copy}, which is read-only\n")
    assert table.read_bytes() == before


# -- import boundary ---------------------------------------------------------

# The directory that holds the moonmod under test.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(moonmod.cli.__file__)))

# Runs main(argv) in a fresh interpreter; its last three stderr lines name
# the numeric modules, the moonmod modules, and those of dataclasses,
# inspect, fractions and decimal that the bare interpreter had not loaded.
CHILD = (
    "import sys\n"
    "bare = set(sys.modules)\n"
    "from moonmod.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*[m for m in ('numpy', 'mpmath') if m in sys.modules], file=sys.stderr)\n"
    "print(*sorted(m for m in sys.modules if m.startswith('moonmod.')), file=sys.stderr)\n"
    "print(*[m for m in ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
    "        if m in sys.modules and m not in bare], file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)

# The warm commands of the benchmark's CLI session.
WARM_COMMANDS = [
    ["validate", "--group", "m24"],
    ["validate", "--group", "a5"],
    ["coeff", "--class", "1A,2A,3A,23A", "--n", "1..20"],
    ["coeff", "--class", "1A,2A,3A,23A", "--n", "1..20", "--format", "json"],
    ["decompose", "--n", "1..26"],
    ["decompose", "--n", "27"],
    ["decompose", "--n", "28..60"],
    ["filtrate", "--n", "30"],
    ["filtrate", "--n", "60"],
    ["filtrate", "--group", "a5", "--residue", "10", "--modulus", "30"],
    ["asympt", "--nonfree", "--n", "30..60"],
    ["asympt", "--free", "--n", "1..60"],
    ["cache"],
]


def run_child(argv, src_dir):
    """(exit code, stdout, numeric modules, moonmod modules, record and
    fraction modules) of main(argv) in a fresh interpreter.

    moonmod is a namespace package, so src_dir is the only entry put on
    PYTHONPATH: another copy there would merge its data files in.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    env.pop("MOONMOD_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, env=env)
    numeric, modules, stdlib = proc.stderr.splitlines()[-3:]
    return proc.returncode, proc.stdout, numeric.split(), modules.split(), stdlib.split()


# The moonmod modules a warm command must not load: each command imports
# only the layers it uses, and none computes a coefficient.
NOT_LOADED = {
    "validate": {"moonmod.rademacher", "moonmod.decomp", "moonmod.filtration",
                 "moonmod.numerics", "moonmod.kernels"},
    "coeff": {"moonmod.decomp", "moonmod.filtration", "moonmod.kernels"},
    "cache": {"moonmod.rademacher", "moonmod.numerics", "moonmod.decomp",
              "moonmod.filtration", "moonmod.kernels"},
    # The asymptotic filtration reads the table alone.
    "filtrate --residue": {"moonmod.rademacher", "moonmod.kernels"},
}


@pytest.mark.parametrize("argv", WARM_COMMANDS, ids=" ".join)
def test_warm_command_loads_no_numeric_stack(argv, tmp_path, capsys):
    store = tmp_path / "m24_coeffs.ldjson"
    shutil.copyfile(REPO_CACHE, store)
    before = store.read_bytes()
    argv = argv + ["--cache", str(store)]
    code, out, numeric, modules, stdlib = run_child(argv, SRC_DIR)
    assert (code, numeric, stdlib) == (0, [], [])
    assert "moonmod.chartab" in modules
    mode = "filtrate --residue" if "--residue" in argv else argv[0]
    assert not NOT_LOADED.get(mode, {"moonmod.kernels"}) & set(modules)
    assert run(capsys, argv) == (0, out, "")
    assert store.read_bytes() == before


def test_cache_command_loads_only_the_store(tmp_path):
    """cache reports the packaged store, or clears a file, with moonmod.store
    and the table modules alone: neither the engine nor numerics is loaded."""
    store = tmp_path / "m24_coeffs.ldjson"
    store.write_text("")
    for argv in (["cache"], ["cache", "--clear", "--cache", str(store)]):
        code, _, numeric, modules, _ = run_child(argv, SRC_DIR)
        assert (code, numeric) == (0, [])
        assert modules == ["moonmod.chartab", "moonmod.cli", "moonmod.quadratic",
                           "moonmod.store"]
    assert not store.exists()


@pytest.mark.parametrize("argv, message", [
    (["coeff", "--class", "99Z", "--n", "1"], "error: unknown conjugacy class '99Z'\n"),
    (["decompose", "--n", "5..1"], "error: empty grade range '5..1'\n"),
], ids=["coeff unknown class", "decompose empty range"])
def test_error_in_fresh_interpreter(argv, message):
    """A typed error is matched on the error path, after the command has
    loaded only the modules it uses: exit status 1 and one error line."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("MOONMOD_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "moonmod.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_error_path_loads_no_other_layer():
    """Reporting a failure imports nothing: an unknown class in coeff is one
    error line, and neither the decomposition nor the filtration is loaded."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("MOONMOD_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, "coeff", "--class", "99Z", "--n", "1"],
                          capture_output=True, text=True, env=env)
    error, _, modules, _ = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (1, "")
    assert error == "error: unknown conjugacy class '99Z'"
    assert not {"moonmod.decomp", "moonmod.filtration"} & set(modules.split())


def test_cold_coeff_loads_numeric_stack(tmp_path):
    """Without the packaged store, an empty cache file makes coeff compute:
    numpy for the tail, and mpmath only for a grade with a head term (on
    the 1A grid, from n = 21 on)."""
    pkg = tmp_path / "src" / "moonmod"
    shutil.copytree(os.path.join(SRC_DIR, "moonmod"), pkg,
                    ignore=shutil.ignore_patterns("*.ldjson", "__pycache__"))
    store = tmp_path / "m24_coeffs.ldjson"
    store.write_text("")
    code, out, numeric, _, _ = run_child(["coeff", "--class", "1A", "--n", "1",
                                       "--cache", str(store)], str(tmp_path / "src"))
    assert code == 0 and out.splitlines()[1].split(",")[:3] == ["1A", "1", "90"]
    assert sorted(numeric) == ["numpy"]
    assert json.loads(store.read_text())["value"] == "90"
    code, _, numeric, _, _ = run_child(["coeff", "--class", "1A", "--n", "21",
                                        "--cache", str(store)], str(tmp_path / "src"))
    assert code == 0 and sorted(numeric) == ["mpmath", "numpy"]


def test_cold_coeff_sweeps_each_class_once(tmp_path, capsys, monkeypatch):
    """A cold coeff asks for all grades of a class at once: one sweep per
    class, with the rows and the appended store bytes of one-grade requests
    made in the same order."""
    import moonmod.rademacher as rademacher
    import moonmod.store as store

    # Without the packaged store every grade misses.
    monkeypatch.setattr(store, "bundled_cache", store.CoefficientCache)
    sweeps = []
    sweep = rademacher.RademacherEngine._sweep

    def counting(self, cls, grades):
        sweeps.append((cls.ng, list(grades)))
        return sweep(self, cls, grades)

    monkeypatch.setattr(rademacher.RademacherEngine, "_sweep", counting)
    batch, single = tmp_path / "batch.ldjson", tmp_path / "single.ldjson"
    code, out, _ = run(capsys, ["coeff", "--class", "2A,7A", "--n", "1..5",
                                "--cache", str(batch)])
    assert code == 0
    assert sweeps == [(2, [1, 2, 3, 4, 5]), (7, [1, 2, 3, 4, 5])]
    rows = out.splitlines()[:1]
    for name in ("2A", "7A"):
        for n in range(1, 6):
            code, one, _ = run(capsys, ["coeff", "--class", name, "--n", str(n),
                                        "--cache", str(single)])
            assert code == 0
            rows.append(one.splitlines()[1])
    assert len(sweeps) == 2 + 10
    assert out.splitlines() == rows
    assert batch.read_bytes() == single.read_bytes()


def test_cold_coefficient_loads_no_fractions():
    """A coefficient computed from an empty cache, head and tail, loads
    neither fractions nor decimal beyond the bare interpreter."""
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from moonmod.chartab import bundled_table\n"
        "from moonmod.rademacher import RademacherEngine\n"
        "from moonmod.store import CoefficientCache\n"
        "engine = RademacherEngine(bundled_table('m24'), cache=CoefficientCache(None))\n"
        "print(engine.records('1A', [40])[0].value)\n"
        "print(*[m for m in ('fractions', 'decimal') if m in sys.modules and m not in bare])\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("MOONMOD_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    value, loaded = proc.stdout.split("\n")[:2]
    assert (value, loaded) == (bundled_cache().records["M24", "1A", 40]["value"], "")
