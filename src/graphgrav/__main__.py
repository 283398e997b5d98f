"""``python -m graphgrav``: the same command line as the ``graphgrav`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
