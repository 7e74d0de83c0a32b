"""moonmod benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload warm_grades --seed 1 --seconds 20 --trace 0

Run from the root of a moonmod checkout; nothing is installed, the package
is imported from ./src.  Workloads (see workloads.py):

  warm_grades  M24 grades 1..60 from the packaged store held in memory:
               decomposition, free part, signs, exact filtration with the
               reconstruction check, non-free prediction.
  cold_coeff   engine.value(class, n) calls that miss a temporary copy of
               the store, one pair per level n_g and pass; appended records
               are re-read and compared after each pass.
  cli_session  13 `python -m moonmod.cli` commands against a temporary
               copy of the store, each in a fresh interpreter.

BENCHMARK.json lists cold_coeff and cli_session only: on a shared 2-vCPU
VM the op_p50_ms of warm_grades spread by more than the 0.25 bound over
ten seeds.  The decomposition and filtration layers it loads most are
also measured, per layer, on cli_session.

A run repeats whole passes until --seconds have passed and at least
MIN_PASSES passes are done.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it runs one pass untraced, the same
pass traced, and holds the per-layer metrics; the spans go to
.bench_out/trace-<workload>-seed<seed>.jsonl.  Temporary files live under
.bench_out/ and are removed at exit.  The run fails (exit 1) if the
packaged store changed.

Outputs are checked against perfbench/reference.json.  Every failure and
wrong answer counts in "failed"; "correct" turns false on those that the
reference does not list under known_defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads as wl

WORKLOADS = ("warm_grades", "cold_coeff", "cli_session")
# Fewest passes a run makes: at least 20 samples, so that a percentile
# above the median has ten beyond it, and three passes for steadier
# medians on a host whose CPU speed drifts.
MIN_PASSES = dict.fromkeys(WORKLOADS, 3)
PERCENTILES = (50, 60, 70, 75, 80, 90, 95, 99, 99.9)
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "chartab.validate_s": "s",
    "rademacher.store_load_s": "s",
    "rademacher.store_records": "count",
    "rademacher.cache_hits": "count",
    "rademacher.cache_misses": "count",
    "rademacher.cache_append_s": "s",
    "rademacher.records_appended": "count",
    "rademacher.sweep_self_s": "s",
    "rademacher.sweeps": "count",
    "rademacher.c_max_scanned": "count",
    "rademacher.head_s": "s",
    "rademacher.head_calls": "count",
    "kernels.kloosterman_s": "s",
    "kernels.calls": "count",
    "kernels.pairs": "count",
    "kernels.pair_grades": "count",
    "kernels.pairs_per_s": "1/s",
    "kernels.useful_pair_ratio": "ratio",
    "decomp.multiplicities_s": "s",
    "filtration.signs_s": "s",
    "filtration.filtrate_exact_s": "s",
    "filtration.levels": "count",
    "filtration.nonfree_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.emit_bytes": "count",
    "trace.overhead_s": "s",
}


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if samples * (100 - p) / 100.0 >= 10]
    return ok[-1] if ok else PERCENTILES[0]


def environment(mm, args) -> dict:
    import mpmath
    import numpy
    use_numba = bool(mm["kernels"].USE_NUMBA)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_path": "numba" if use_numba else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


# -- set-up ------------------------------------------------------------------

def probe_setup(root: Path) -> tuple[float, dict]:
    """Seconds from spawning a fresh interpreter to its ready engine."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(wl.HERE / "setup_probe.py")],
                            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=wl.child_env(root), cwd=root)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with {code}")
    return dt, json.loads(line)


def measure_setup(root: Path) -> tuple[float, dict]:
    probe_setup(root)  # warm-up: byte-compiles ./src and fills the page cache
    runs = [probe_setup(root) for _ in range(SETUP_PROBES)]
    parts = {k: statistics.median(r[1][k] for r in runs)
             for k in ("import_s", "table_s", "cache_s")}
    return statistics.median(r[0] for r in runs), parts


# -- end-to-end runs ---------------------------------------------------------

class Runner:
    """One workload's program state and pass function, untraced or traced."""

    def __init__(self, workload, root, mm, ref, tmp, tracer=None):
        self.workload, self.root, self.mm, self.ref = workload, root, mm, ref
        self.tmp, self.tracer = tmp, tracer
        chartab, rademacher = mm["chartab"], mm["rademacher"]
        if tracer:
            tracer.op = "setup"
        self.table = chartab.bundled_table("m24")
        if workload == "warm_grades":
            self.engine = rademacher.RademacherEngine(self.table,
                                                      cache=rademacher.bundled_cache())
        elif workload == "cold_coeff":
            self.strata = wl.cold_strata(ref, self.table)
        else:
            self.cache_copy = tmp / "m24_coeffs.ldjson"
            shutil.copyfile(root / wl.STORE, self.cache_copy)

    def check_pass(self):
        """Checks that read the program's files back; run them untraced."""
        if self.workload == "cold_coeff":
            path, got, out = self.pending_check
            wl.check_cold_store(self.mm, path, got, out)

    def plan(self, seed, pass_no):
        if self.workload == "warm_grades":
            return wl.warm_plan(seed, pass_no)
        if self.workload == "cold_coeff":
            return wl.cold_plan(self.strata, self.ref, seed, pass_no)
        return wl.cli_plan(seed, pass_no)

    def run_pass(self, plan, probe_spans=None):
        """(outcomes, seconds of the operation loop)."""
        if self.workload == "warm_grades":
            t0 = time.perf_counter()
            out = wl.warm_pass(self.mm, self.table, self.engine, plan, self.ref, self.tracer)
            return out, time.perf_counter() - t0
        if self.workload == "cold_coeff":
            path = self.tmp / "cold.ldjson"
            if self.tracer:
                self.tracer.op = "pass-setup"
            engine = wl.cold_engine(self.mm, self.table, self.root, path, plan)
            t0 = time.perf_counter()
            out, got = wl.cold_pass(engine, plan, self.ref, self.tracer)
            dt = time.perf_counter() - t0
            self.pending_check = (path, got, out)
            return out, dt
        t0 = time.perf_counter()
        out = wl.cli_pass(self.root, self.cache_copy, plan, self.ref, self.tmp, probe_spans)
        return out, time.perf_counter() - t0


def run_end_to_end(args, root, mm, ref, tmp) -> tuple[list, dict, list[str]]:
    setup_s, parts = measure_setup(root)
    runner = Runner(args.workload, root, mm, ref, tmp)
    outcomes, busy, passes = [], 0.0, 0
    start = time.perf_counter()
    while passes < MIN_PASSES[args.workload] or time.perf_counter() - start < args.seconds:
        out, dt = runner.run_pass(runner.plan(args.seed, passes))
        runner.check_pass()
        outcomes += out
        busy += dt
        passes += 1
    if args.workload == "cli_session":
        peak_kb = max(o.rss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Every pass has the same size; fixing the percentile by the fewest
    # passes a run makes keeps it the same from run to run.
    tail_p = tail_percentile(MIN_PASSES[args.workload] * len(outcomes) // passes)
    ms = [o.seconds * 1e3 for o in outcomes]
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(outcomes) / busy,
        "op_p50_ms": percentile(ms, 50),
        "op_tail_ms": percentile(ms, tail_p),
        "failed_ratio": failed / len(outcomes),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"{len(outcomes)} operations in {passes} passes, {busy:.3f} s of operation loop",
        f"op_tail_ms is p{tail_p:g} over {len(outcomes)} samples",
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters: " + ", ".join(
            f"{k} {v:.4f}" for k, v in parts.items()),
    ]
    return outcomes, metrics, notes


# -- traced run --------------------------------------------------------------

def run_traced(args, root, mm, ref, tmp) -> tuple[list, dict, list[str], spans.Tracer]:
    plain = Runner(args.workload, root, mm, ref, tmp)
    plan = plain.plan(args.seed, 0)
    out_plain, dt_plain = plain.run_pass(plan)
    plain.check_pass()

    tracer = spans.Tracer()
    with tracer.installed(spans.layer_patches(tracer, mm)):
        traced = Runner(args.workload, root, mm, ref, tmp, tracer)
        probe = None
        if args.workload == "cli_session":
            probe = lambda k: tmp / f"spans-{k}.json"  # noqa: E731
        out_traced, dt_traced = traced.run_pass(plan, probe)
    traced.check_pass()
    if probe:
        for k, argv in enumerate(plan):
            with open(probe(k), encoding="utf-8") as fh:
                tracer.merge(json.load(fh), wl.command_id(argv))

    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = dt_traced - dt_plain
    notes = [f"one pass of {len(plan)} operations: {dt_plain:.3f} s untraced, "
             f"{dt_traced:.3f} s traced, overhead {dt_traced - dt_plain:+.3f} s "
             f"({(dt_traced / dt_plain - 1) * 100:+.1f}%)"]
    totals = tracer.totals()
    for name in sorted(totals):
        count, total, own = totals[name]
        notes.append(f"  span {name:28s} {count:6d} calls  {total:10.4f} s  self {own:10.4f} s")
    return out_plain + out_traced, metrics, notes, tracer


def layer_metrics(tracer: spans.Tracer) -> dict:
    totals, counts, maxima = tracer.totals(), tracer.counts, tracer.maxima

    def calls(name):
        return totals[name][0]

    def total(name):
        return totals[name][1]

    pairs = counts["kernel_pairs"]
    kernel_s = total("kernels.kloosterman")
    useful = 0
    for op, arrays in tracer.kernel_cs.items():
        accepted = tracer.accepted_c.get(op, 0)
        useful += sum(int(cs[cs <= accepted].sum()) for cs in arrays)
    return {
        "chartab.validate_s": total("chartab.validate"),
        "rademacher.store_load_s": total("rademacher.store_load"),
        "rademacher.store_records": maxima.get("store_records", 0),
        "rademacher.cache_hits": counts["cache_hits"],
        "rademacher.cache_misses": counts["cache_misses"],
        "rademacher.cache_append_s": total("rademacher.cache_append"),
        "rademacher.records_appended": counts["records_appended"],
        "rademacher.sweep_self_s": totals["rademacher.sweep"][2],
        "rademacher.sweeps": calls("rademacher.sweep"),
        "rademacher.c_max_scanned": maxima.get("c_max_scanned", 0),
        "rademacher.head_s": total("rademacher.head"),
        "rademacher.head_calls": counts["head_calls"],
        "kernels.kloosterman_s": kernel_s,
        "kernels.calls": calls("kernels.kloosterman"),
        "kernels.pairs": pairs,
        "kernels.pair_grades": counts["kernel_pair_grades"],
        "kernels.pairs_per_s": pairs / kernel_s if kernel_s > 0 else 0.0,
        "kernels.useful_pair_ratio": useful / pairs if pairs else 0.0,
        "decomp.multiplicities_s": total("decomp.multiplicities"),
        "filtration.signs_s": total("filtration.signs"),
        "filtration.filtrate_exact_s": total("filtration.filtrate_exact"),
        "filtration.levels": counts["filtration_levels"],
        "filtration.nonfree_s": total("filtration.nonfree"),
        "cli.import_s": total("cli.import"),
        "cli.main_s": total("cli.main"),
        "cli.emit_bytes": counts["emit_bytes"],
    }


# -- entry point -------------------------------------------------------------

def summarize(outcomes) -> tuple[bool, list[str]]:
    """(no unexpected failure, report lines).  Known defects still count as failed."""
    kinds = Counter(o.kind for o in outcomes if o.failed)
    lines = [f"failures by type: {json.dumps(dict(kinds), sort_keys=True)}"]
    seen = set()
    for o in outcomes:
        if o.failed and (o.op, o.kind) not in seen:
            seen.add((o.op, o.kind))
            tag = "known defect" if o.known else "UNEXPECTED"
            lines.append(f"  {tag}: {o.op}: {o.kind} {o.detail}".rstrip())
    return all(o.known for o in outcomes if o.failed), lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "moonmod" / "cli.py").is_file():
        print("error: run from the root of a moonmod checkout (no src/moonmod here)",
              file=sys.stderr)
        return 2
    store_digest = wl.file_digest(root / wl.STORE)
    mm = wl.import_program(root)
    ref = wl.load_reference()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if args.trace:
            outcomes, metrics, notes, tracer = run_traced(args, root, mm, ref, tmp)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(trace_path)
            notes.append(f"spans written to {trace_path.relative_to(root)}")
            units = PER_LAYER
        else:
            outcomes, metrics, notes = run_end_to_end(args, root, mm, ref, tmp)
            units = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct, failure_lines = summarize(outcomes)
    store_ok = wl.file_digest(root / wl.STORE) == store_digest
    if not store_ok:
        print(f"error: {wl.STORE} changed during the run", file=sys.stderr)
    print("env " + json.dumps(environment(mm, args), sort_keys=True))
    for line in notes + failure_lines:
        print(line)
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:28s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct and store_ok,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if store_ok else 1


if __name__ == "__main__":
    sys.exit(main())
