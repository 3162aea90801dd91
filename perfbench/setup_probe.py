"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports latsum, runs the first item of the workload's job untimed, and
prints three numbers: the monotonic clock reading at which that finished,
the seconds spent taking reference samples on the way, and the factor
that turns this process's wall seconds into reference seconds (see
``refclock.py``).  The parent subtracts its own clock reading from just
before it launched this interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from refclock import RefClock  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    with RefClock() as clock:
        import latsum  # noqa: F401  (the import is what is measured)
        from workloads import WORKLOADS

        workload = WORKLOADS[name]()
        workload.run(workload.job(seed)[0])
        done = time.monotonic()
    print(repr(done), repr(clock.spent), repr(clock.scale(1.0)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
