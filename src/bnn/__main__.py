"""``python -m bnn``: the same command line as the ``bnn`` script."""
from .cli import main

raise SystemExit(main())
