"""From a fresh interpreter to a ready engine; prints its own breakdown.

    PYTHONPATH=src python perfbench/setup_probe.py

The parent times this process from spawn to the JSON line below.
"""

import json
import time

t0 = time.perf_counter()
import moonmod  # noqa: E402
t1 = time.perf_counter()
from moonmod.chartab import bundled_table  # noqa: E402
m24 = bundled_table("m24")
t2 = time.perf_counter()
from moonmod.rademacher import RademacherEngine, bundled_cache  # noqa: E402
engine = RademacherEngine(m24, cache=bundled_cache())
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "table_s": t2 - t1, "cache_s": t3 - t2,
                  "records": len(engine.cache)}), flush=True)
