"""Entry point for ``python -m schurlab``."""
import sys

from .cli_io.cli import main

sys.exit(main())
