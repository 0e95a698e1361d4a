"""Child processes started by run.py.

    python3 child.py setup WORKLOAD DOC ALPHA NORMALIZATION
        Import the package, run one op of WORKLOAD on the document file DOC,
        print "ready" and exit. The parent times this from spawn to "ready".
    python3 child.py import
        Time ``import intervalfusion.cli`` and print the seconds it took.
    python3 child.py cli SPANS -- ARGS...
        Run the CLI like ``python -m intervalfusion ARGS...`` with its stages
        traced, and write the span sums to the file SPANS as JSON.

The parent puts the checkout's ``src`` directory on PYTHONPATH.
"""

import sys
from time import perf_counter

T_FIRST = perf_counter()


def _setup(workload: str, doc: str, alpha: str, normalization: str) -> None:
    import intervalfusion
    from ops import run_op

    with open(doc, "rb") as f:
        data = f.read()
    run_op(intervalfusion, workload, data, float(alpha), normalization)
    print("ready", intervalfusion.__file__, flush=True)


def _import() -> None:
    start = perf_counter()
    import intervalfusion.cli

    print(perf_counter() - start, intervalfusion.cli.__file__, flush=True)


def _cli(spans_path: str, argv: list[str]) -> int:
    import json

    from spans import Tracer, install

    tracer = Tracer()
    process = tracer.enter("cli.process")
    process[1] = T_FIRST
    frame = tracer.enter("cli.import")
    import intervalfusion.cli as cli

    tracer.leave(frame)
    install(tracer, cli)
    frame = tracer.enter("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.leave(frame)
        tracer.uninstall()
        tracer.leave(process)
        result = tracer.dump()
        result["start"], result["end"] = T_FIRST, T_FIRST + tracer.total["cli.process"]
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump(result, out)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup(*args)
    elif mode == "import":
        _import()
    elif mode == "cli":
        raise SystemExit(_cli(args[0], args[2:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
