"""`python -m pathvec`: the same entry point as the `pathvec` console script."""

import sys

from .cli import main

sys.exit(main())
