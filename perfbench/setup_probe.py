"""One cold start of the calibrate front end, timed by run.py from outside.

Usage: python3 perfbench/setup_probe.py QUOTES_CSV

Imports fxsvol.cli in a fresh interpreter, then loads every surface and the
historical context of the CSV: the work every ``fxsvol calibrate`` run does
before its first date.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import fxsvol.cli as cli  # noqa: E402

manifest = cli.RunManifest(command="calibrate", input_path=sys.argv[1], output_dir="")
cli.historical_context(cli.load_surfaces(manifest))
