"""``python -m midy``: the ``midy`` command without an installed script."""

from .cli import run

if __name__ == "__main__":
    run()
