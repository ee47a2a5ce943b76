"""The set-up of `starflow run` in a fresh interpreter: import the command
line module, parse each configuration given and build its initial data.

    python3 setup_probe.py CONFIG [CONFIG ...]

Prints the import time in seconds as JSON; the caller times the whole
process from outside.
"""

import json
import sys
import time

t0 = time.perf_counter()
from starflow import cli, flow  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[1:]:
    setup = cli.parse_config(path)
    flow.initial_gamma(setup.initial, setup.config.grid)
print(json.dumps({"import_s": t1 - t0}))
