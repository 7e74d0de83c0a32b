"""Self-tests of the benchmark, on a smoke load of a few operations.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a moonmod checkout.  The file name keeps it out of
the repository's own test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MM = wl.import_program(ROOT)
REF = wl.load_reference()
TABLE = MM["chartab"].bundled_table("m24")
SMOKE_PLANS = {
    "warm_grades": [1, 27],
    "cold_coeff": [("23A", 9), ("21B", 27)],
    "cli_session": [("validate", "--group", "a5"), ("decompose", "--n", "27")],
}


@pytest.fixture
def smoke(monkeypatch, capsys):
    """Run run.main on the smoke plans; returns the parsed last stdout line."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_PASSES", dict.fromkeys(run.WORKLOADS, 1))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(wl, "warm_plan", lambda seed, k: list(SMOKE_PLANS["warm_grades"]))
    monkeypatch.setattr(wl, "cli_plan", lambda seed, k: list(SMOKE_PLANS["cli_session"]))
    monkeypatch.setattr(wl, "cold_plan",
                        lambda strata, ref, seed, k: list(SMOKE_PLANS["cold_coeff"]))

    def go(workload, trace):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)])
        lines = capsys.readouterr().out.strip().splitlines()
        return code, lines, json.loads(lines[-1])

    return go


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(smoke, workload, trace):
    code, lines, result = smoke(workload, trace)
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True  # the smoke plans fail only on known defects
    assert result["failed"] >= 1 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert any(line.startswith("env ") and '"kernel_path"' in line for line in lines)


def test_corrupted_reference_is_a_failure():
    ref = json.loads(json.dumps(REF))
    ref["warm_grades"]["1"] = "0" * 64
    ref["cli_session"]["validate --group a5"] = "0" * 64
    ref["cold_coeff"] = [[c, n, "1" if (c, n) == ("23A", 9) else v]
                         for c, n, v in ref["cold_coeff"]]
    rademacher = MM["rademacher"]
    engine = rademacher.RademacherEngine(TABLE, cache=rademacher.bundled_cache())
    warm = wl.warm_pass(MM, TABLE, engine, [1, 2], ref)
    tmp = ROOT / ".bench_out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        path = tmp / "cold.ldjson"
        cold, _ = wl.cold_pass(wl.cold_engine(MM, TABLE, ROOT, path, [("23A", 9)]),
                               [("23A", 9)], ref)
        copy = tmp / "m24_coeffs.ldjson"
        shutil.copyfile(ROOT / wl.STORE, copy)
        cli = wl.cli_pass(ROOT, copy, [("validate", "--group", "a5")], ref, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert [(o.kind, o.known) for o in warm] == [("WrongOutput", False), (None, False)]
    assert [(o.kind, o.known) for o in cold] == [("WrongValue", False)]
    assert [(o.kind, o.known) for o in cli] == [("WrongOutput", False)]
    correct, _ = run.summarize(warm + cold + cli)
    assert correct is False


def test_self_times_add_up_to_span_durations():
    tracer = spans.Tracer()
    rademacher = MM["rademacher"]
    with tracer.installed(spans.layer_patches(tracer, MM)):
        table = MM["chartab"].bundled_table("m24")
        engine = rademacher.RademacherEngine(table, cache=rademacher.bundled_cache())
        wl.warm_pass(MM, table, engine, [1, 2, 27], REF, tracer)
    own = tracer.self_times()
    root_of = []
    for i, s in enumerate(tracer.spans):
        p = s[spans.PARENT]
        root_of.append(i if p is None else root_of[p])
    for i, s in enumerate(tracer.spans):
        if s[spans.PARENT] is None:
            subtree = sum(o for o, r in zip(own, root_of) if r == i)
            assert subtree == pytest.approx(s[spans.END] - s[spans.START], abs=1e-9)
            assert all(o >= -1e-9 for o, r in zip(own, root_of) if r == i)
    assert {s[spans.NAME] for s in tracer.spans} >= {
        "op", "decomp.multiplicities", "filtration.filtrate_exact", "chartab.validate"}


def test_traced_counts_repeat():
    def counts():
        tracer = spans.Tracer()
        tmp = ROOT / ".bench_out" / "selftest"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            with tracer.installed(spans.layer_patches(tracer, MM)):
                runner = run.Runner("cold_coeff", ROOT, MM, REF, tmp, tracer)
                runner.run_pass([("23A", 9), ("21A", 27)])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        m = run.layer_metrics(tracer)
        return {k: m[k] for k in ("kernels.pairs", "rademacher.cache_hits",
                                  "rademacher.cache_misses", "rademacher.sweeps",
                                  "rademacher.c_max_scanned", "kernels.useful_pair_ratio")}

    first = counts()
    assert first == counts()
    assert first["rademacher.sweeps"] == 2 and first["rademacher.c_max_scanned"] > 0


def test_grade_27_decomposes_with_2_and_not_with_1():
    store = MM["rademacher"].bundled_cache()
    values = {c.name: int(store.get("M24", c.name, 27)["value"]) for c in TABLE.classes}
    values["21A"] = values["21B"] = 1  # as the packaged store has them
    with pytest.raises(MM["decomp"].NonIntegral):
        MM["decomp"].multiplicities(TABLE, 27, values)
    values["21A"] = values["21B"] = 2
    mv = MM["decomp"].multiplicities(TABLE, 27, values)
    assert min(mv.m) >= 0
    assert sorted(REF["corrections"]) == [["21A", 27, "2"], ["21B", 27, "2"]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "warm_grades",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
