"""``python3 -m bench run|compare`` (see ``bench/cli.py``)."""

import sys

from bench.cli import main

sys.exit(main())
