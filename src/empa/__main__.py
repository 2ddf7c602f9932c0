"""`python -m empa`: the empa command line (see empa.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
