"""``python -m homecyber``: the command-line interface of :mod:`homecyber.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
