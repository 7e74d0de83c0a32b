"""The three workloads: inputs drawn from a seed, one pass of operations, checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A pass is the unit of work whose
composition is fixed (which operations, not their order or draws), so runs
on different seeds are comparable.  Each operation yields an Outcome; its
output is compared with perfbench/reference.json after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
STORE = Path("src", "moonmod", "data", "m24_coeffs.ldjson")

WARM_GRADES = tuple(range(1, 61))

# One entry per command of a CLI session; each also gets --cache <copy>.
CLI_COMMANDS = (
    ("validate", "--group", "m24"),
    ("validate", "--group", "a5"),
    ("coeff", "--class", "1A,2A,3A,23A", "--n", "1..20"),
    ("coeff", "--class", "1A,2A,3A,23A", "--n", "1..20", "--format", "json"),
    ("decompose", "--n", "1..26"),
    ("decompose", "--n", "27"),
    ("decompose", "--n", "28..60"),
    ("filtrate", "--n", "30"),
    ("filtrate", "--n", "60"),
    ("filtrate", "--group", "a5", "--residue", "10", "--modulus", "30"),
    ("asympt", "--nonfree", "--n", "30..60"),
    ("asympt", "--free", "--n", "1..60"),
    ("cache",),
)


class ReconstructionError(Exception):
    """The filtration chain does not rebuild the multiplicity vector."""


@dataclass
class Outcome:
    op: object  # the operation's input: a grade, a (class, n) pair or a command
    seconds: float
    kind: str | None = None  # None on success, else the failure's type
    known: bool = False  # listed in reference.json as a defect of the program
    rss_kb: int = 0  # peak RSS of the child process (CLI session only)
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.kind is not None


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return sha256(fh.read())


def import_program(root: Path) -> dict:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from moonmod import chartab, decomp, filtration, kernels, rademacher
    return {"chartab": chartab, "decomp": decomp, "filtration": filtration,
            "kernels": kernels, "rademacher": rademacher}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_no}")


# -- warm_grades -------------------------------------------------------------

def warm_plan(seed: int, pass_no: int) -> list[int]:
    grades = list(WARM_GRADES)
    _rng("warm_grades", seed, pass_no).shuffle(grades)
    return grades


def warm_op(mm, table, engine, n):
    """One grade, as `moonmod asympt --nonfree` and `filtrate` process it."""
    decomp, filtration = mm["decomp"], mm["filtration"]
    mv = decomp.multiplicities(table, n, engine)
    r1, nonfree = decomp.free_part_split(mv, table)
    signs = filtration.signs_at(table, engine, n)
    result = filtration.filtrate_exact(mv, table, signs)
    total = list(mv.m)
    for lvl in result.chain:
        for i, coeff in lvl.direction.items():
            total[i] -= lvl.r * coeff
    if not result.approximate and tuple(total) != result.residual:
        raise ReconstructionError(f"grade {n}")
    pred = filtration.nonfree_asymptotic(table, signs, n)
    return mv, r1, nonfree, signs, result, pred


def warm_digest(mm, table, out) -> str:
    mv, r1, nonfree, signs, result, pred = out
    doc = {
        "m": list(mv.m),
        "r1": r1,
        "nonfree": list(nonfree.m),
        "signs": signs,
        "filtration": json.loads(mm["filtration"].result_to_json(result, table)),
        "predicted": [f"{p:.6g}" for p in pred],
    }
    return sha256(json.dumps(doc, sort_keys=True).encode())


def warm_pass(mm, table, engine, plan, ref, tracer=None) -> list[Outcome]:
    digests, known = ref["warm_grades"], set(ref["known_defects"]["warm_grades"])
    outcomes = []
    for n in plan:
        if tracer:
            tracer.op = n
            rec = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = warm_op(mm, table, engine, n)
            kind, detail = None, ""
        except Exception as exc:  # every failure is counted, by type
            out, kind, detail = None, type(exc).__name__, str(exc)[:160]
        dt = time.perf_counter() - t0
        if tracer:
            tracer.finish(rec)
        if out is not None and warm_digest(mm, table, out) != digests[str(n)]:
            kind = "WrongOutput"
        outcomes.append(Outcome(n, dt, kind, n in known, detail=detail))
    return outcomes


# -- cold_coeff --------------------------------------------------------------

def cold_strata(ref, table) -> dict[int, list[tuple[str, int]]]:
    """Eligible (class, n) pairs grouped by the class's level n_g.

    A request's cost is set by n_g (the tail runs over c = 0 mod n_g up to
    the first sweep chunk), so a pass draws one pair per level.
    """
    defects = {tuple(k) for k in ref["known_defects"]["cold_coeff"]}
    strata: dict[int, list[tuple[str, int]]] = {}
    for cls, n, _value in ref["cold_coeff"]:
        if (cls, n) not in defects:
            strata.setdefault(table.class_named(cls).ng, []).append((cls, n))
    return strata


def cold_plan(strata, ref, seed: int, pass_no: int) -> list[tuple[str, int]]:
    """One pair per level, plus one of the records the store has wrong."""
    rng = _rng("cold_coeff", seed, pass_no)
    plan = [rng.choice(strata[ng]) for ng in sorted(strata)]
    plan.append(tuple(rng.choice(ref["known_defects"]["cold_coeff"])))
    rng.shuffle(plan)
    return plan


def write_cold_store(root: Path, path: Path, plan) -> None:
    """The packaged store without the planned pairs, as a temporary file."""
    drop = set(plan)
    with open(root / STORE, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            if line.strip():
                rec = json.loads(line)
                if (rec["class"], int(rec["n"])) in drop:
                    continue
            fh.write(line + "\n")


def cold_engine(mm, table, root, path, plan):
    """A fresh engine on a temporary store that misses every planned pair."""
    rademacher = mm["rademacher"]
    write_cold_store(root, path, plan)
    return rademacher.RademacherEngine(table, cache=rademacher.CoefficientCache(path))


def cold_pass(engine, plan, ref, tracer=None) -> tuple[list[Outcome], dict]:
    values = {(cls, n): int(v) for cls, n, v in ref["cold_coeff"]}
    known = {tuple(k) for k in ref["known_defects"]["cold_coeff"]}
    outcomes, got = [], {}
    for key in plan:
        if tracer:
            tracer.op = key
            rec = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            got[key] = engine.value(*key)
            kind, detail = None, ""
        except Exception as exc:  # every failure is counted, by type
            kind, detail = type(exc).__name__, str(exc)[:160]
        dt = time.perf_counter() - t0
        if tracer:
            tracer.finish(rec)
        if kind is None and got[key] != values[key]:
            kind, detail = "WrongValue", f"got {got[key]}, reference {values[key]}"
        outcomes.append(Outcome(key, dt, kind, key in known, detail=detail))
    return outcomes, got


def check_cold_store(mm, path, got, outcomes) -> None:
    """Re-read the appended records: each must hold the value returned."""
    reread = mm["rademacher"].CoefficientCache(path)
    for o in outcomes:
        if o.op not in got:
            continue
        rec = reread.get("M24", *o.op)
        if rec is None or int(rec["value"]) != got[o.op]:
            o.kind, o.known = "CacheMismatch", False


# -- cli_session -------------------------------------------------------------

def cli_plan(seed: int, pass_no: int) -> list[tuple[str, ...]]:
    plan = list(CLI_COMMANDS)
    _rng("cli_session", seed, pass_no).shuffle(plan)
    return plan


def command_id(argv) -> str:
    return " ".join(argv)


def run_child(argv, env, cwd, err_path) -> tuple[int, bytes, float, int]:
    """(exit code, stdout, seconds, peak RSS in KiB) of one child process."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, dt, usage.ru_maxrss


def cli_pass(root, cache_copy, plan, ref, tmp, probe_spans=None) -> list[Outcome]:
    """Run each command in a fresh interpreter.

    With probe_spans (a callable taking the command index and returning a
    path), each command runs under perfbench/cli_probe.py, which traces the
    in-process cli.main call and dumps its spans there.
    """
    digests, known = ref["cli_session"], set(ref["known_defects"]["cli_session"])
    env = child_env(root)
    outcomes = []
    for k, argv in enumerate(plan):
        full = [*argv, "--cache", str(cache_copy)]
        if probe_spans:
            cmd = [sys.executable, str(HERE / "cli_probe.py"), str(probe_spans(k)), "--", *full]
        else:
            cmd = [sys.executable, "-m", "moonmod.cli", *full]
        err_path = tmp / "stderr.txt"
        code, out, dt, rss = run_child(cmd, env, root, err_path)
        cid = command_id(argv)
        kind, detail = None, ""
        if code != 0:
            err = err_path.read_bytes().decode("utf-8", "replace").strip().splitlines()
            kind, detail = f"exit {code}", err[-1][:160] if err else ""
        elif sha256(out.replace(str(cache_copy).encode(), b"<cache>")) != digests[cid]:
            kind = "WrongOutput"
        outcomes.append(Outcome(cid, dt, kind, cid in known, rss, detail))
    return outcomes
