"""Set-up work of one identikit run: import the package and parse a configuration.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/setup_probe.py run.json

The benchmark times this process from spawn to exit.  It exits with 2 if the
configuration does not validate.
"""

import sys

from identikit.config import build_config, load_raw, validate_config


def main(path: str) -> int:
    raw, diags = load_raw(path)
    if raw is not None:
        diags = validate_config(raw)
    if diags:
        for d in diags:
            print(f"config error - {d}", file=sys.stderr)
        return 2
    build_config(raw)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
