"""CLI entry point: ``python -m repro.service``.

Starts the scheduling server and prints one readiness line
(``listening on <host>:<port>``) to stdout so wrappers — the CI smoke job,
the benchmark harness — can wait for it before connecting.  Runs until
interrupted.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.service.protocol import RequestLimits
from repro.service.server import SchedulerService, ServiceConfig
from repro.utils.chaos import ChaosConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Persistent scheduling-as-a-service job server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = let the OS pick; the bound port is printed)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="persistent pool workers (0 = inline debug mode)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="re-dispatches after a worker death before a job is failed",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=RequestLimits.max_tasks,
        help="reject inline graph payloads larger than this many tasks",
    )
    parser.add_argument(
        "--maxtasksperchild", type=int, default=None,
        help="recycle a worker after this many dispatches",
    )
    parser.add_argument(
        "--chaos-rate", type=float, default=0.0,
        help="fault-injection rate for the workers (CI smoke/chaos testing)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="deterministic seed for --chaos-rate fault draws",
    )
    return parser


async def _main(config: ServiceConfig) -> None:
    service = SchedulerService(config)
    host, port = await service.start()
    print(f"listening on {host}:{port}", flush=True)
    try:
        await service.serve_forever()
    finally:
        await service.close()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    chaos = None
    if args.chaos_rate > 0:
        chaos = ChaosConfig(
            rate=args.chaos_rate, kinds=("die", "raise"), seed=args.chaos_seed
        )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
        limits=RequestLimits(max_tasks=args.max_tasks),
        maxtasksperchild=args.maxtasksperchild,
        chaos=chaos,
    )
    try:
        asyncio.run(_main(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
