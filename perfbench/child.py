"""Run one multidetect CLI operation in a fresh process and report its cost.

    python3 child.py RESULT SPAWN_TIME TRACE -- CLI_ARGS...

SPAWN_TIME is the parent's ``time.monotonic()`` taken just before it
started this process.  CLOCK_MONOTONIC is system-wide on Linux, so
``setup_s`` runs from process start through interpreter start, imports and
the first ``config.resolve``.  ``work_s`` runs from there to the return of
``multidetect.cli.main``.  Peak RSS is this process's own high-water mark,
``VmHWM``.  With TRACE 1 the span recorder is installed and its spans
are saved next to RESULT.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    Not ``ru_maxrss``: Linux folds the parent's peak into it at exec, so it
    would report the benchmark's own memory whenever that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, spawn, trace = Path(argv[1]), float(argv[2]), argv[3] == "1"
    cli_args = argv[argv.index("--") + 1 :]

    sys.path.insert(0, str(SRC))
    from multidetect import cli, config

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported multidetect from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    resolved_at: list[float] = []
    resolve = config.resolve

    def first_resolve(*args, **kwargs):
        out = resolve(*args, **kwargs)
        if not resolved_at:
            resolved_at.append(time.monotonic())
        return out

    config.resolve = first_resolve

    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    exit_code = cli.main(cli_args)
    done = time.monotonic()
    sys.stdout.flush()

    if not resolved_at:
        print("the operation never called multidetect.config.resolve", file=sys.stderr)
        return 2
    result = {
        "exit_code": exit_code,
        "setup_s": resolved_at[0] - spawn,
        "work_s": done - resolved_at[0],
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        recorder.save(result_path.with_suffix(".npz"))
        result["counters"] = recorder.counters
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
