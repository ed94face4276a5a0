"""The command line's entry: python -m smma and the smma script.

main() sets each of THREAD_VARS to 1 unless the caller has set it, before
numpy is first imported, then runs cli.main. scipy's OpenBLAS otherwise
starts one thread per CPU, and the plate loop runs slower on them (see
cli). Importing this module, or smma as a library, changes nothing.
"""
import os
import sys

from . import THREAD_VARS


def main() -> None:
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
