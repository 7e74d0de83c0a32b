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
from moonmod import chartab, qseries
from moonmod.chartab import (DATA_DIR, MoonmodError, TableError, UnknownClassError,
                             bundled_table, load_table)
from moonmod.cli import BUNDLED_GROUPS, _make_engine, build_parser, main
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
    # cache loads no table: its file is M24's for every table.
    (["cache", "--group", "a5"], "unrecognized arguments: --group a5"),
], ids=["filtrate --residue without --modulus", "coeff --tol", "coeff --precision",
        "filtrate --n 1,2", "cache --group"])
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
        "decompose cache missing dir", "validate out missing dir"])
def test_unopenable_file_exits_1(argv, tmp_path, monkeypatch, capsys):
    """A --cache or --out file the OS refuses to open is one error line with
    exit status 1, and a directory named as the cache file is left alone.
    A cache file in a missing directory is refused before any value is
    computed: by the engine's sweep (coeff) or the q-series (decompose)."""
    def no_work(*_args, **_kwargs):
        raise AssertionError("computed before the cache path was checked")

    monkeypatch.setattr(RademacherEngine, "_sweep", no_work)
    monkeypatch.setattr(qseries, "coefficients", no_work)
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    paths = {"dir": tmp_path / "store", "missing": tmp_path / "missing" / "x.ldjson"}
    paths["dir"].mkdir()
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
    assert paths["dir"].is_dir()


def test_nonconvergent_coeff_exits_1_and_appends_nothing(tmp_path, capsys):
    """Cold 21A n = 144 passes no gate: coeff prints one error line with the
    residual at the last c swept, exits 1, and leaves the cache file as it was."""
    store = tmp_path / "m24_coeffs.ldjson"
    shutil.copyfile(REPO_CACHE, store)
    before = store.read_bytes()
    code, out, err = run(capsys, ["coeff", "--class", "21A", "--n", "144",
                                  "--cache", str(store)])
    assert (code, out) == (1, "")
    assert err.startswith("error: series for class 21A at n=144 did not stabilize (residual ")
    assert err.count("\n") == 1, err
    assert store.read_bytes() == before


def test_out_in_missing_dir_refused_before_table_and_series(tmp_path, monkeypatch, capsys):
    """An --out file whose directory is missing is refused before a table
    is loaded or a q-series computed."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("worked before the --out path was checked")

    monkeypatch.setattr(qseries, "coefficients", refuse)
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
    """Under MOONMOD_CACHE, every command reads and appends to
    m24_coeffs.ldjson (the engine keeps M24's records for every table), so
    `cache` reports and clears that file."""
    line = json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "90",
                       "residual": 1e-5, "c_max_used": 127, "mode": "classical",
                       "gate": "dip"}, sort_keys=True)
    store = tmp_path / "m24_coeffs.ldjson"
    store.write_text(line + "\n")
    monkeypatch.setenv("MOONMOD_CACHE", str(tmp_path))
    assert run(capsys, ["cache"]) == (0, f"{store}: 1 records\n  1A: 1\n", "")
    assert run(capsys, ["cache", "--clear"]) == (0, f"removed {store}\n", "")
    assert not store.exists()


def test_ambient_cache_is_m24s_for_every_table(tmp_path, monkeypatch, capsys):
    """Under MOONMOD_CACHE a table without fusion targets reads and appends
    m24_coeffs.ldjson: A5 without targets reads M24's 5A at n = 102 there
    and appends its cold n = 101, both keyed as M24's.  cache names that
    file without loading a table."""
    seed = json.dumps({"group": "M24", "class": "5A", "n": 102, "value": "7",
                       "residual": 1e-5, "c_max_used": 50, "mode": "classical",
                       "gate": "dip"}, sort_keys=True)
    store = tmp_path / "m24_coeffs.ldjson"
    store.write_text(seed + "\n")
    doc = _table_doc("a5", "2A")
    for cls in doc["classes"]:
        del cls["fusion_target"]
    table = tmp_path / "a5_own.table"
    table.write_text(json.dumps(doc))
    monkeypatch.setenv("MOONMOD_CACHE", str(tmp_path))
    code, out, _ = run(capsys, ["coeff", "--group", str(table), "--class", "5B",
                                "--n", "101,102"])
    assert code == 0
    assert [row.split(",")[:3] for row in out.splitlines()[1:]] == \
        [["5B", "101", "0"], ["5B", "102", "7"]]
    [_, line] = store.read_text().splitlines()
    assert {k: json.loads(line)[k] for k in ("group", "class", "n", "value")} == \
        {"group": "M24", "class": "5A", "n": 101, "value": "0"}

    def refuse(*_args, **_kwargs):
        raise AssertionError("cache loaded a table")

    for module in (chartab, moonmod.cli):
        monkeypatch.setattr(module, "load_table", refuse)
        monkeypatch.setattr(module, "bundled_table", refuse)
    assert run(capsys, ["cache"]) == (0, f"{store}: 2 records\n  5A: 2\n", "")


def test_cache_flag_loads_no_table(tmp_path, monkeypatch, capsys):
    store = tmp_path / "anything.ldjson"
    store.write_text("")
    monkeypatch.setattr(moonmod.cli, "_load_group", None)
    assert run(capsys, ["cache", "--cache", str(store)]) == (0, f"{store}: 0 records\n", "")


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
    """The package data directory, pointed at a copy of the store and of
    both tables."""
    import moonmod.chartab as chartab

    data = tmp_path / "data"
    data.mkdir()
    shutil.copyfile(REPO_CACHE, data / "m24_coeffs.ldjson")
    for name in BUNDLED_GROUPS:
        shutil.copyfile(os.path.join(DATA_DIR, f"{name}.table"), data / f"{name}.table")
    monkeypatch.setattr(chartab, "DATA_DIR", str(data))
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


@pytest.mark.parametrize("argv", [["cache", "--clear"], ["cache"],
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


def _no_table(_name):
    raise AssertionError("a table loaded before the arguments were checked")


@pytest.mark.parametrize("argv", [["validate", "--group", "a5"],
                                  ["decompose", "--group", "a5", "--n", "1"]], ids=" ".join)
def test_out_file_in_package_data_refused(argv, data_copy, tmp_path, monkeypatch, capsys):
    """--out naming a package data file, directly or through a link, is
    refused before any table is loaded, and the file is left as it was."""
    monkeypatch.setattr(moonmod.cli, "_load_group", _no_table)
    table = data_copy / "a5.table"
    before = table.read_bytes()
    link = tmp_path / "link.table"
    link.symlink_to(table)
    for path in (table, link):
        code, out, err = run(capsys, argv + ["--out", str(path)])
        assert (code, out) == (1, "")
        assert err == (f"error: {path} lies in the package data directory "
                       f"{data_copy}, which is read-only\n")
    assert table.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["validate"], ["coeff", "--class", "1A", "--n", "1"], ["decompose", "--n", "1"],
    ["filtrate", "--n", "30"], ["filtrate", "--residue", "0", "--modulus", "30"],
    ["asympt", "--free", "--n", "1"], ["cache"]], ids=" ".join)
def test_bad_path_refused_before_any_layer(argv, data_copy, tmp_path, monkeypatch, capsys):
    """Every command refuses a --cache or --out file in package data, in a
    missing directory or naming a directory, with one error line and exit
    status 1, before it loads a table; the package data is left as it was."""
    monkeypatch.setattr(moonmod.cli, "_load_group", _no_table)
    store, table = data_copy / "m24_coeffs.ldjson", data_copy / "a5.table"
    before = store.read_bytes(), table.read_bytes()
    missing = tmp_path / "missing" / "x.ldjson"
    read_only = f"lies in the package data directory {data_copy}, which is read-only"
    enoent = f"[Errno 2] No such file or directory: {str(missing)!r}"
    eisdir = f"[Errno 21] Is a directory: {str(tmp_path)!r}"
    for flag, path, message in (("--cache", store, f"{store} {read_only}"),
                                ("--cache", missing, enoent),
                                ("--cache", tmp_path, eisdir),
                                ("--out", table, f"{table} {read_only}"),
                                ("--out", missing, enoent),
                                ("--out", tmp_path, eisdir)):
        assert run(capsys, argv + [flag, str(path)]) == (1, "", f"error: {message}\n"), flag
    assert (store.read_bytes(), table.read_bytes()) == before
    assert not missing.parent.exists()


@pytest.mark.parametrize("spec, message", [
    ("x", "bad grade 'x' in grade spec 'x'"),
    ("1,,2", "bad grade '' in grade spec '1,,2'"),
    ("5..1", "empty grade range '5..1'")], ids=["x", "1,,2", "5..1"])
@pytest.mark.parametrize("argv", [
    ["coeff", "--class", "1A"], ["decompose"], ["filtrate"], ["asympt", "--free"],
    ["asympt", "--nonfree"]], ids=" ".join)
def test_malformed_grade_refused_before_any_layer(argv, spec, message, monkeypatch, capsys):
    """Every command that takes --n refuses a malformed spec with one error
    line and exit status 1 before it loads a table; filtrate reads its
    single-grade usage error from the parsed grades, so a malformed spec
    there is this error, not that one."""
    monkeypatch.setattr(moonmod.cli, "_load_group", _no_table)
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    assert run(capsys, argv + ["--n", spec]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["filtrate", "--n", "1,2"], "argument --n: filtrate takes a single grade"),
    (["filtrate", "--residue", "0"], "--residue: requires argument --modulus"),
    (["filtrate", "--n", "1", "--modulus", "30"], "--modulus: not allowed with argument --n"),
    (["coeff", "--n", "x", "--tol", "1"], "unrecognized arguments: --tol"),
    (["decompose"], "the following arguments are required: --n")],
    ids=["filtrate --n 1,2", "filtrate --residue", "filtrate --modulus", "coeff --tol",
         "decompose"])
def test_usage_error_before_argument_checks(argv, message, data_copy, tmp_path,
                                            monkeypatch, capsys):
    """A usage error exits 2 before a bad --cache or --out is refused."""
    monkeypatch.setattr(moonmod.cli, "_load_group", _no_table)
    bad = ["--cache", str(data_copy / "m24_coeffs.ldjson"),
           "--out", str(tmp_path / "missing" / "x")]
    with pytest.raises(SystemExit) as exc:
        main(argv + bad)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_exact_filtration_of_the_polar_grade_exits_1(monkeypatch, capsys):
    """Grade -1 decomposes to -2 times the trivial irrep, which the exact
    filtration refuses."""
    monkeypatch.delenv("MOONMOD_CACHE", raising=False)
    assert run(capsys, ["filtrate", "--n", "-1"]) == \
        (1, "", "error: exact filtration requires a nonnegative multiplicity vector\n")


def test_cache_reports_an_absent_file(tmp_path, capsys):
    """A cache file that does not exist, in a directory that does, is
    reported as absent; it is not created."""
    path = tmp_path / "absent.ldjson"
    assert run(capsys, ["cache", "--cache", str(path)]) == (1, "", "no cache file\n")
    assert not path.exists()


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


# The moonmod modules a warm command must not load, by command and mode:
# each imports only the layers it uses, and none computes a coefficient.
ENGINE = {"moonmod.rademacher", "moonmod.kernels", "moonmod.store"}
NOT_LOADED = {
    "validate": {"moonmod.rademacher", "moonmod.decomp", "moonmod.filtration",
                 "moonmod.numerics", "moonmod.kernels", "moonmod.store", "moonmod.qseries"},
    # The engine serves a table by chartab.m24_classes, without the oracle.
    "coeff": {"moonmod.decomp", "moonmod.filtration", "moonmod.kernels", "moonmod.qseries"},
    "cache": {"moonmod.rademacher", "moonmod.numerics", "moonmod.decomp",
              "moonmod.filtration", "moonmod.kernels", "moonmod.qseries"},
    # The asymptotic filtration reads the table alone.
    "filtrate --residue": ENGINE | {"moonmod.qseries"},
    # The exact commands read the q-series oracle, not the engine or the
    # store, and check a --cache path without the store; only the
    # non-free prediction reads numerics.
    "decompose": ENGINE | {"moonmod.filtration", "moonmod.numerics"},
    "filtrate": ENGINE | {"moonmod.numerics"},
    "asympt --free": ENGINE | {"moonmod.filtration", "moonmod.numerics"},
    "asympt --nonfree": ENGINE,
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
    mode = " ".join([argv[0], *(a for a in argv if a in ("--residue", "--free", "--nonfree"))])
    assert not NOT_LOADED[mode] & set(modules)
    assert run(capsys, argv) == (0, out, "")
    assert store.read_bytes() == before


def test_any_grade_in_fresh_interpreter():
    """decompose reads any grade from the oracle, past the store and past
    the engine's reach: 21A at n = 144 passes no gate of the engine, so
    coeff still fails there."""
    code, out, numeric, modules, _ = run_child(["decompose", "--n", "144"], SRC_DIR)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert (code, numeric) == (0, [])
    assert len(rows) == 26 and all(int(r[3]) >= 0 for r in rows), rows
    assert not {"moonmod.rademacher", "moonmod.kernels"} & set(modules)
    code, out, _, _, _ = run_child(["coeff", "--class", "21A", "--n", "144"], SRC_DIR)
    assert (code, out) == (1, "")


@pytest.mark.parametrize("argv", [
    ["decompose", "--n", "1..3"], ["filtrate", "--n", "30"],
    ["asympt", "--free", "--n", "1..3"], ["asympt", "--nonfree", "--n", "30"],
    ["decompose", "--group", "a5", "--n", "1"]], ids=" ".join)
def test_served_command_neither_reads_nor_appends_the_cache(argv, tmp_path, capsys):
    """A served command resolves the cache file but never reads it: one
    whose record coeff refuses (a foreign Dedekind mode) serves it, and
    its bytes stay as they were."""
    path = tmp_path / "m24_coeffs.ldjson"
    path.write_text(json.dumps({"group": "M24", "class": "1A", "n": 1, "value": "91",
                                "residual": 1e-5, "c_max_used": 127,
                                "mode": "omega-floor", "gate": "dip"}) + "\n")
    before = path.read_bytes()
    want = run(capsys, argv)
    assert want[0] == 0
    assert run(capsys, argv + ["--cache", str(path)]) == want
    assert path.read_bytes() == before
    code, _, err = run(capsys, ["coeff", "--class", "1A", "--n", "1", "--cache", str(path)])
    assert code == 1 and "omega-floor" in err


def _table_doc(group: str, cls: str, **changes) -> dict:
    """A bundled table's document, its class cls updated by changes."""
    doc = json.loads(resources.files("moonmod.data").joinpath(f"{group}.table").read_text())
    next(c for c in doc["classes"] if c["name"] == cls).update(changes)
    return doc


def test_any_table_served_by_level_without_the_engine(tmp_path):
    """A5 without its fusion targets is served by its classes' levels (n_g,
    h_g): bundled A5's output, with neither the engine nor the store loaded
    and nothing appended to the cache file.  A class at (6, 2), a level
    M24 lacks, is one error line and exit status 1."""
    doc = _table_doc("a5", "2A")
    for cls in doc["classes"]:
        del cls["fusion_target"]
    table = tmp_path / "a5_own.table"
    table.write_text(json.dumps(doc))
    store = tmp_path / "m24_coeffs.ldjson"
    argv = ["decompose", "--n", "1..5", "--cache", str(store)]
    code, out, numeric, modules, _ = run_child(argv + ["--group", str(table)], SRC_DIR)
    assert (code, numeric) == (0, [])
    assert not {"moonmod.rademacher", "moonmod.store"} & set(modules)
    assert not store.exists()
    assert run_child(argv + ["--group", "a5"], SRC_DIR)[1] == out
    doc["classes"][1].update(ng=6, hg=2)
    table.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", CHILD, "decompose", "--n", "1",
                           "--group", str(table)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR))
    error, _, modules, _ = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout) == (1, "")
    assert error == "error: class 2A: its level (n_g, h_g) = (6, 2) is not that of a class in M24"
    assert "moonmod.rademacher" not in modules.split()


@pytest.mark.parametrize("target", ["3A", "99Z"])
@pytest.mark.parametrize("argv", [["coeff", "--n", "1"], ["decompose", "--n", "1"]],
                         ids=" ".join)
def test_fusion_target_off_its_level_refused(argv, target, tmp_path, monkeypatch, capsys):
    """A fusion target that is not a class of M24 at its class's level
    (A5's 2A, at (2, 1), fused to 3A or to no class at all) is refused
    when the table loads: validate's one FAIL line, and one error line
    and exit status 1 before any value is computed or read."""
    def no_work(*_args, **_kwargs):
        raise AssertionError("computed before the fusion targets were checked")

    monkeypatch.setattr(RademacherEngine, "_sweep", no_work)
    monkeypatch.setattr(RademacherEngine, "records", no_work)
    monkeypatch.setattr(qseries, "coefficients", no_work)
    table = tmp_path / "a5_fused.table"
    table.write_text(json.dumps(_table_doc("a5", "2A", fusion_target=target)))
    message = f"class 2A: its level (n_g, h_g) = (2, 1) is not that of {target} in M24\n"
    assert run(capsys, ["validate", str(table)]) == (1, "", f"FAIL: {message}")
    assert run(capsys, argv + ["--group", str(table)]) == (1, "", f"error: {message}")


@pytest.mark.parametrize("doc, error", [
    (_table_doc("m24", "2B", hg=1), None),
    (_table_doc("a5", "2A", fusion_target=None), None),
    (_table_doc("a5", "2A", fusion_target="3A"),
     "class 2A: its level (n_g, h_g) = (2, 1) is not that of 3A in M24"),
    (_table_doc("a5", "2A", fusion_target="99Z"),
     "class 2A: its level (n_g, h_g) = (2, 1) is not that of 99Z in M24"),
], ids=["m24 2B at (2, 1)", "a5 2A without target", "a5 2A fused to 3A",
        "a5 2A fused to 99Z"])
def test_coeff_and_oracle_serve_by_one_rule(doc, error, tmp_path, capsys):
    """coeff's engine and the oracle of decompose serve a table by one
    rule: where the store holds the grade, coeff prints the oracle's value
    of every class and appends nothing (M24's 2B at (2, 1) reads 2A's
    series).  A target off its level is refused at load: the same one line
    from validate, coeff, decompose and filtrate --residue."""
    table, store = tmp_path / "t.table", tmp_path / "m24_coeffs.ldjson"
    table.write_text(json.dumps(doc))
    store.write_text("")
    coeff = ["coeff", "--group", str(table), "--n", "1..5", "--cache", str(store)]
    if error is not None:
        for argv in (["decompose", "--group", str(table), "--n", "1"], coeff,
                     ["filtrate", "--group", str(table), "--residue", "0", "--modulus", "30"]):
            assert run(capsys, argv) == (1, "", f"error: {error}\n"), argv
        assert run(capsys, ["validate", str(table)]) == (1, "", f"FAIL: {error}\n")
        return
    oracle = qseries.QSeriesOracle(load_table(doc))
    code, out, err = run(capsys, coeff)
    rows = [row.split(",")[:3] for row in out.splitlines()[1:]]
    assert (code, err, len(rows)) == (0, "", 5 * len(doc["classes"]))
    assert [int(value) for _, _, value in rows] == \
        [oracle.value(name, int(n)) for name, n, _ in rows]
    assert store.read_text() == ""


def test_a5_without_a_target_prints_bundled_a5s_coeff(tmp_path):
    """A5 with 2A's fusion target removed serves 2A by M24's 2A, the class
    of its name at its level: coeff --n 1..20 prints bundled A5's rows
    byte for byte from the packaged store and appends nothing, and neither
    loads moonmod.qseries or numpy."""
    table, store = tmp_path / "a5.table", tmp_path / "m24_coeffs.ldjson"
    table.write_text(json.dumps(_table_doc("a5", "2A", fusion_target=None)))
    store.write_text("")
    outs = []
    for group in ("a5", str(table)):
        code, out, numeric, modules, _ = run_child(
            ["coeff", "--group", group, "--n", "1..20", "--cache", str(store)], SRC_DIR)
        assert (code, numeric) == (0, [])
        assert "moonmod.qseries" not in modules
        outs.append(out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 1 + 5 * 20
    assert store.read_text() == ""


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
