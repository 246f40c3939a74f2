"""``python -m kalisim``: the command-line interface of :mod:`kalisim.cli`."""
from .cli import main

raise SystemExit(main())
