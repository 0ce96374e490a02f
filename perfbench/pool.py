"""Worker process: answer CLI commands through `defsets.cli.main` in-process.

Usage: python3 perfbench/pool.py JOBS [SPANS_FILE]

Reads one JSON request per line on stdin, {"keep": bool, "commands":
[{"argv": [...], "files": {name: text}}]}, places the files, runs each
command with `--jobs JOBS`, and answers with one JSON line holding
[exit code or null, stdout, stderr, wall seconds] per command.  Requests
with keep=false are warm-up.  An empty line ends the session; the last line
then reports this process's peak RSS and, when SPANS_FILE is given (traced
run), the layer metrics, with the spans written to SPANS_FILE.

The parent generates the inputs and checks the answers, so this process
holds nothing but the program under test and the tracer.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv) -> int:
    jobs, spans = argv[0], (argv[1] if len(argv) > 1 else None)
    sys.path.insert(0, str(ROOT / "src"))
    import defsets
    from defsets import cli
    from defsets.colorreduce import synthesize_clause_gadget

    synthesize_clause_gadget()  # lazy one-time set-up, measured as setup_s
    tracer = None
    run = cli.main
    if spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(defsets)
        run = tracer.wrap(cli.main, "cli.main", "bench")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    rounds = 0
    try:
        for line in iter(sys.stdin.readline, ""):
            if not line.strip():
                break
            request = json.loads(line)
            answers = []
            for cmd in request["commands"]:
                for name, text in cmd["files"].items():
                    (work / name).write_text(text)
                argv = [str(work / a) if a in cmd["files"] else a
                        for a in cmd["argv"]] + ["--jobs", jobs]
                out, err = io.StringIO(), io.StringIO()
                if tracer is not None:
                    tracer.command += 1
                start = perf_counter()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = run(argv)
                except Exception:  # a crash is a failed command, not a dead run
                    code = None
                    err.write(traceback.format_exc(limit=3))
                answers.append([code, out.getvalue(), err.getvalue(),
                                perf_counter() - start])
            if request["keep"]:
                rounds += 1
            elif tracer is not None:
                tracer.reset()
            print(json.dumps(answers), flush=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    final = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        from spans import layer_metrics
        final["layers"] = layer_metrics(tracer.spans, tracer.evaluate_calls(),
                                        rounds)
        tracer.write(spans)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
