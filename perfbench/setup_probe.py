"""One cold set-up in a fresh interpreter; prints ``ready`` when done.

``python3 perfbench/setup_probe.py <workload> <probe-index>``

Simulator workloads: import the simulator, build every kernel's program
set for the grid and construct one machine per system, as the first
cells of a cold grid would.  Service workload: import the service and
bring a ServiceThread up on a fresh state directory until it answers
``healthz``, then drain it after printing ``ready``.
"""

from __future__ import annotations

import os
import shutil
import sys

import common


def main(workload: str, probe: str) -> int:
    spec = common.load_workloads()[workload]
    common.import_repro()
    if spec["kind"] == "service":
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig, ServiceThread

        state = os.path.join(common.WORK, f"setup-{os.getpid()}-{probe}")
        shutil.rmtree(state, ignore_errors=True)
        try:
            with ServiceThread(ServiceConfig(state_dir=state,
                                             jobs=spec["workers"])) as svc:
                ServiceClient(svc.host, svc.port).healthz()
                print("ready", flush=True)
        finally:
            shutil.rmtree(state, ignore_errors=True)
        return 0

    from repro import get_system, get_workload, system_names, typical_params
    from repro.sim.machine import Machine

    params = typical_params()
    builds = [
        get_workload(name).build(spec["threads"], spec["scale"],
                                 spec["sim_seed"])
        for name in spec["kernels"]
    ]
    for system in system_names():
        Machine(params, get_system(system), builds[0].programs,
                seed=spec["sim_seed"])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
