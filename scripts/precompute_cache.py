"""Rebuild the packaged coefficient store.

Sweeps every class of the bundled M24 table over grades 1..60, plus the
classes fused from A5 up to grade 100 (used by the worked example), into
one ldjson cache file.  Resumable: existing records are never recomputed.

    python scripts/precompute_cache.py [path]
"""

import sys
import time

from moonmod.chartab import bundled_table
from moonmod.rademacher import RademacherEngine
from moonmod.store import CoefficientCache

DEFAULT = "src/moonmod/data/m24_coeffs.ldjson"
EXAMPLE_CLASSES = ("1A", "2A", "3A", "5A")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT
    m24 = bundled_table("m24")
    engine = RademacherEngine(m24, cache=CoefficientCache(path))
    for c in m24.classes:
        t0 = time.time()
        hi = 100 if c.name in EXAMPLE_CLASSES else 60
        recs = engine.records(c.name, range(1, hi + 1))
        stability = sum(1 for r in recs if r.gate == "stability")
        print(f"{c.name}: n<=%d in %.1fs, stability-gated %d"
              % (hi, time.time() - t0, stability), flush=True)
    print(f"{len(engine.cache)} records in {path}", flush=True)


if __name__ == "__main__":
    main()
