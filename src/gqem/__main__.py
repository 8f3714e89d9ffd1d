"""``python -m gqem``: the same command-line interface as the ``gqem`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
