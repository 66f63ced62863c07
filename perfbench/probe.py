"""Fresh-interpreter probes; prints time.perf_counter() when done.

    python3 perfbench/probe.py setup DIR   import dimkit, parse every graph of DIR's manifest
    python3 perfbench/probe.py import      import dimkit.cli

perf_counter is the system-wide monotonic clock on Linux, so the parent
subtracts the moment it started this process.
"""

import sys
import time

if __name__ == "__main__":
    if sys.argv[1] == "setup":
        import json
        from pathlib import Path

        import dimkit  # noqa: F401
        from dimkit.graph import load_graph

        root = Path(sys.argv[2])
        graphs = [load_graph(str(root / it["file"]))
                  for it in json.loads((root / "manifest.json").read_text())["instances"]]
    else:
        import dimkit.cli  # noqa: F401
    print(repr(time.perf_counter()))
