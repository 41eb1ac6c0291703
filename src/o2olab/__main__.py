"""The ``o2olab`` console script, and ``python -m o2olab``.

Both run the CLI module as ``python -m o2olab.cli`` does, so a stage process
started through either takes that start-up: the collector is off while
o2olab and numpy load, and what they built is frozen (see ``o2olab.cli``).
Importing this module does neither.
"""

import runpy


def main() -> None:
    """Run ``o2olab.cli`` as the program; it exits with the command's code."""
    runpy.run_module("o2olab.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
