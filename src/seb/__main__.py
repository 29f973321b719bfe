"""Run the command line as ``python -m seb``."""

import sys

from .cli import main

sys.exit(main())
