"""Run the pkde CLI with tracing on and write its spans as JSON.

Usage: python3 cli_traced.py SPANS_JSON <pkde command line...>

Exits with the CLI's own exit code. Needs `pkde` and this directory on
the import path.
"""

import json
import sys

import pkde.cli
from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = pkde.cli.run(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.take(), "absent": tracer.absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
