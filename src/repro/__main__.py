"""``python -m repro`` entry point."""

import signal
import sys

from .cli import main

if __name__ == "__main__":
    # SIGTERM (e.g. `kill`) ends the process as an exit does, so exit
    # hooks run: each store unlinks its lease holder file.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
