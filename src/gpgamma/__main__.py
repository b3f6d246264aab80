"""Entry point for ``python -m gpgamma``."""

from .cli import run

if __name__ == "__main__":
    run()
