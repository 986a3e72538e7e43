"""`python -m complen`: the same entry point as the `complen` script."""

import sys

from .cli import main

sys.exit(main())
