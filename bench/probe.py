"""Set-up probe, run in a fresh interpreter by `run.py`.

    python3 bench/probe.py <src dir> "<experiment> <flags>" ...

Imports `subshot` from <src dir>, resolves the configuration of every given
command line with `subshot.cli.resolve_config`, and prints the monotonic clock
reading at that moment and the imported package's path.  The parent takes the
clock reading it made before starting this process from the first number to
get the set-up time.  CLOCK_MONOTONIC is system wide, so the two readings
compare across processes.
"""

import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    import subshot
    from subshot import cli

    parser = cli.build_parser()
    for line in sys.argv[2:]:
        args = parser.parse_args(line.split())
        cli.resolve_config(args.command, args)
    ready = time.monotonic()
    print(repr(ready), subshot.__file__)


if __name__ == "__main__":
    main()
