"""``python -m tsfactor``: the ``tsfactor`` command without its console script."""

from .cli import main

if __name__ == "__main__":
    main()
