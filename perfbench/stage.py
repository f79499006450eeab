"""One benchmark stage in its own process.

    python3 perfbench/stage.py RESULT_JSON SRC_DIR [--trace SPANS_JSON] [--probe] -- CLI_ARGS...

Imports `salemlab.cli` from SRC_DIR, notes the monotonic clock once the
imports are done (the end of set-up), then times one `salemlab.cli.main`
call with CLI_ARGS. `--probe` stops after the imports. `--trace` wraps the
layer functions first and writes their spans to SPANS_JSON. The result file
holds the ready time, the stage time, the exit code and any traceback.
"""

import json
import os
import sys
import time
import traceback


def main(argv):
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path, src = opts[0], opts[1]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    sys.path.insert(0, src)

    from salemlab.cli import main as cli_main
    import salemlab

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"ready": ready, "salemlab": os.path.realpath(salemlab.__file__)}
    if "--probe" in opts:
        code = 0
    else:
        tracer = None
        if spans_path:
            from layers import Tracer

            tracer = Tracer().install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli_main(cli_args)
        except Exception:
            code = None
            out["error"] = traceback.format_exc()
        out["stage_s"] = time.perf_counter() - start
        out["stage_cpu_s"] = time.process_time() - cpu_start
        out["code"] = code
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans_path)
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0 if code == 0 else (code or 70)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
