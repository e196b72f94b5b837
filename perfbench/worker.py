"""Run repstab command lines inside one interpreter and report on them.

The benchmark driver (run.py) starts this script in a fresh interpreter
with one JSON job as its only argument:

    {"mode": "ops" | "setup", "ops": [[argv...], ...], "trace": false}

Every operation goes through the real entry point, ``repstab.cli.run``,
with its stdout and stderr captured.  The script prints one JSON report:
per operation the exit code, captured output, any exception and the
seconds spent inside ``cli.run``; then the kernel name and the peak RSS
of this process.  With ``"trace": true`` the public functions of every
layer are wrapped first (see layers.py) and their counters are reported
too.

In ``"setup"`` mode the script stops at the first library call made by
the first command line and prints only the monotonic clock reading taken
there, so the driver can time interpreter start, ``import repstab.cli``
and argument parsing.
"""

import contextlib
import inspect
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repstab.cli as cli  # noqa: E402
from repstab import _mnpure, characters  # noqa: E402


def _stop_at_first_library_call():
    """Replace every library function the CLI imported with a stub that
    prints the clock and ends the process."""

    def stub(*args, **kwargs):
        now = time.perf_counter()
        sys.__stdout__.write(json.dumps({"first_call": now}) + "\n")
        sys.__stdout__.flush()
        os._exit(0)

    for name, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("repstab.") and module != cli.__name__:
            setattr(cli, name, stub)


def _kernel_memo_entries():
    if characters.kernel_name() == "compiled":
        from repstab import _mncore

        return _mncore.cache_size()
    return _mnpure.cache_size()


def _run_op(argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    record = {
        "argv": argv,
        "code": code,
        "error": error,
        "seconds": seconds,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        record["memo_entries"] = _kernel_memo_entries()
    return record


def main():
    job = json.loads(sys.argv[1])
    if job["mode"] == "setup":
        _stop_at_first_library_call()
        cli.run(job["ops"][0])
        print(json.dumps({"error": "no library call reached"}))
        return 1

    tracer = None
    if job.get("trace"):
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    ops = [_run_op(argv, tracer) for argv in job["ops"]]
    report = {
        "ops": ops,
        "kernel": characters.kernel_name(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
