"""Run one `moonmod` command in-process with the layer tracer installed.

    python perfbench/cli_probe.py SPANS_JSON -- <moonmod arguments>

Times `import moonmod.cli`, then calls cli.main(argv) with every layer
wrapped, writes the command's stdout unchanged, and dumps the spans and
counters to SPANS_JSON.  The exit code is cli.main's.
"""

import contextlib
import io
import json
import sys
import time

import spans


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_probe.py SPANS_JSON -- <moonmod arguments>")
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        from moonmod import chartab, cli, decomp, filtration, kernels, rademacher
    mm = {"chartab": chartab, "decomp": decomp, "filtration": filtration,
          "kernels": kernels, "rademacher": rademacher}
    out = io.StringIO()
    with tracer.installed(spans.layer_patches(tracer, mm) + spans.cli_patches(tracer, cli)):
        with contextlib.redirect_stdout(out), tracer.span("cli.main"):
            code = cli.main(argv)
    sys.stdout.write(out.getvalue())
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
