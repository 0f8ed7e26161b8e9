"""Cold-start timings, each made in a fresh interpreter.

    python3 perfbench/fresh.py setup <workload> <seed> <scratch-dir>
        seconds to import searchphase (plus searchphase.cli on cli_sweep)
        and make the workload's first cold call

    python3 perfbench/fresh.py layers <scratch-dir>
        ms to import searchphase.cli, and ms of the first (cold)
        project_activation call, which builds the Gauss-Hermite rule and
        the projection matrices

Prints one JSON object.  The parent adds ``src`` to ``PYTHONPATH``.
"""

import json
import sys
import time


def setup(workload: str, seed: int, scratch: str) -> dict:
    t0 = time.perf_counter()
    import searchphase  # noqa: F401

    if workload == "cli_sweep":
        import searchphase.cli  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, scratch).cold_call()
    return {"setup_s": time.perf_counter() - t0}


def layers() -> dict:
    t0 = time.perf_counter()
    import searchphase.cli  # noqa: F401

    t1 = time.perf_counter()
    from searchphase import builtin, project_activation

    erf = builtin("erf")
    t2 = time.perf_counter()
    project_activation(erf, 0.09, 40)
    t3 = time.perf_counter()
    return {"cli.import_ms": (t1 - t0) * 1e3, "hermite.project_cold_ms": (t3 - t2) * 1e3}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        result = layers()
    print(json.dumps(result))
