"""``python -m alol``: the ``alol`` command, e.g. ``PYTHONPATH=src python -m alol gen-data ...``
from a checkout."""

import sys

from .cli import main

sys.exit(main())
