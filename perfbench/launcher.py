"""Traced CLI launcher: ``python3 launcher.py SPANS_FILE <momprob cli args>``.

Installs the benchmark's wrappers, runs ``momprob.cli.main`` on the given
arguments and writes the spans to SPANS_FILE.  stdout and the exit code are
the CLI's own, so the traced op is checked by the same oracle.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def main(argv):
    spans_file, cli_args = argv[0], argv[1:]
    import momprob.cli

    t = tracer.Tracer()
    t.install()
    try:
        code = t.wrap("cli.main", momprob.cli.main)(cli_args)
    finally:
        t.uninstall()
        sys.stdout.flush()
        t.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
