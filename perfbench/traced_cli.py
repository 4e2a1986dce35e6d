"""Run one qmetro CLI command in-process with the layer tracer installed.

    python perfbench/traced_cli.py SPANS.jsonl <qmetro arguments...>

The command goes through ``qmetro.cli.main(argv)`` exactly as the console
script does.  Spans are written to SPANS.jsonl when the command ends, and
the original functions are put back first.  The exit code is the
command's.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import qmetro.cli

    tracer = Tracer()
    tracer.install()
    try:
        return qmetro.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(spans_path)


if __name__ == "__main__":
    sys.exit(main())
