"""Server launcher owned by the benchmark.

Starts the recommendation service's HTTP API exactly as its own CLI does
(single-process with ``--shards 0``, a sharded tier otherwise) on an
ephemeral port, prints ``READY <address>`` and then takes one-line
commands on standard input, answering each with one line:

``trace on`` / ``trace off``
    Install or remove the layer wrappers of :mod:`tracing` in this
    process (spawned shard workers are never wrapped).
``reset``
    Zero the span aggregates.
``stats``
    Print the span aggregates since the last reset as one JSON line.
``quit`` (or end of input)
    Stop the server and its workers and exit.

Run by ``run.py``; by hand::

    python3 perfbench/server.py --shards 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    from repro.service import make_server
    from tracing import Tracer, install

    supervisor = None
    if args.shards > 0:
        from repro.service.supervisor import Supervisor

        supervisor = Supervisor(n_workers=args.shards)
    server = make_server(port=0, supervisor=supervisor)
    server.serve_background()
    tracer = Tracer()
    print(f"READY {server.address}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "quit":
                break
            if command == "trace on":
                install(tracer)
                reply = "OK"
            elif command == "trace off":
                tracer.uninstall()
                reply = "OK"
            elif command == "reset":
                tracer.reset()
                reply = "OK"
            elif command == "stats":
                reply = json.dumps(tracer.snapshot())
            else:
                reply = f"ERR unknown command {command!r}"
            print(reply, flush=True)
    finally:
        server.stop()
        server.backend.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
