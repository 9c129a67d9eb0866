"""`python -m rispaces`: the command-line front end of `rispaces.cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
