"""One set-up sample: fresh interpreter -> import iongrover -> first op.

Usage: python3 setup_probe.py '<json>' where the JSON names the checkout
root and either ``argv`` (a CLI call) or ``circuit`` and ``io`` (a
library call). Prints ``time.perf_counter()`` once the op has returned;
the caller subtracts the moment it started this interpreter.
"""

import json
import os
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, os.path.join(spec["root"], "src"))

import iongrover  # noqa: E402

if "argv" in spec:
    import iongrover.cli  # noqa: E402

    code = iongrover.cli.main(spec["argv"])
else:
    circuit = iongrover.circuit_from_json(spec["circuit"])
    iongrover.circuit_unitary(circuit)
    iongrover.truth_table(circuit, tuple(spec["io"]))
    code = 0
print(repr(time.perf_counter()))
sys.exit(code)
