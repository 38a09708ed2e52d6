"""Set-up probe, run as its own fresh process by run.py:

    python3 perfbench/setup_probe.py CONFIG.json

Prints the seconds taken by `import shuffleopt` plus one
`build_objective(config)`, which parses the data and, where the config asks
for it, solves for the reference point.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

started = time.perf_counter()
import shuffleopt  # noqa: E402

config = shuffleopt.ExperimentConfig.from_dict(json.loads(Path(sys.argv[1]).read_text()))
shuffleopt.build_objective(config)
print(repr(time.perf_counter() - started))
