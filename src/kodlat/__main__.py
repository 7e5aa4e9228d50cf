"""``python -m kodlat``: the same command line as ``python -m kodlat.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
