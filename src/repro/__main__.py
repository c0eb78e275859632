"""``python -m repro`` — the one command-line entry point.

Dispatches the sweep-service commands to :mod:`repro.service.cli`::

    python -m repro serve   [--state-dir D] [--port P] [--jobs N] ...
    python -m repro submit  --workloads ... --systems ... [--wait]
    python -m repro status|results|stream|cancel JOB

and every other command (``run``, ``sweep``, ``fig*``, ``metrics``,
``timeline``, ``fuzz``, ``chaos``, ...) to :mod:`repro.harness.cli`.
"""

from __future__ import annotations

import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in (
        "serve", "submit", "status", "results", "stream", "cancel",
    ):
        from repro.service.cli import main as service_main

        return service_main(argv)
    from repro.harness.cli import main as cli_main

    return cli_main(argv if argv else None)


if __name__ == "__main__":
    raise SystemExit(main())
