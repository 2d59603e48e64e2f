"""``python -m udsets``: the command-line front end of ``udsets.cli``."""

from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    raise SystemExit(main())
