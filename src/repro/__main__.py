"""``python -m repro`` entry point.

A :class:`~repro.errors.ReproError` (bad input, missing journal, unknown
GPU file, ...) is reported as one ``repro: error: <message>`` line on
stderr with exit status 2, as argparse reports usage errors.
"""

import sys

from .cli import main
from .errors import ReproError

try:
    rc = main()
except ReproError as exc:
    print("repro: error: %s" % exc, file=sys.stderr)
    rc = 2
sys.exit(rc)
