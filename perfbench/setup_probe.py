"""Child process of the set-up measurement: start, set up, stop at the first round.

    python3 perfbench/setup_probe.py WORKLOAD CONFIG SCENARIO_SEED OUT_DIR

Runs the workload's unit from a fresh interpreter (imports, config parse,
population draw, drift bound) and, at the first channel draw, writes the
CLOCK_MONOTONIC reading to stdout and exits at once. The parent subtracts the
reading it took just before spawning this process.
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _first_round(*args, **kwargs):
    # fd 1 directly: the unit may be redirecting sys.stdout
    os.write(1, f"{time.clock_gettime(time.CLOCK_MONOTONIC)!r}\n".encode())
    os._exit(0)


def main() -> None:
    name, cfg_path, seed, out_dir = sys.argv[1:5]
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads
    from flsched import simenv

    simenv.sample_round = _first_round
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[name].run_unit(Path(cfg_path), int(seed), out)
    sys.exit("the unit finished without drawing a round")


if __name__ == "__main__":
    main()
