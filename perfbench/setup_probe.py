"""Time one workload's set-up in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py --workload NAME --seed N

Set-up is ``import discflux`` (numpy included; click too for cli-batch), then
building the workload's flux and transform and a zero-length solve of its
config: transform audit, stepper tables, the mollifier cache, mollification.
run.py starts this several times per run and reports the median as setup_s.
"""

from time import perf_counter

T0 = perf_counter()

import bootstrap  # noqa: E402  pins threads; imports nothing heavy

import argparse  # noqa: E402
import json  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    bootstrap.import_discflux()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).setup()
    print(json.dumps({"setup_s": perf_counter() - T0}))


if __name__ == "__main__":
    main()
