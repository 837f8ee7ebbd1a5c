"""Fresh-interpreter set-up probe: import tangentia, parse the workload's
specs, build its rules, then print ``ready`` and exit.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys

import common

if __name__ == "__main__":
    common.set_up(common.load_tangentia(), sys.argv[1])
    print("ready", flush=True)
