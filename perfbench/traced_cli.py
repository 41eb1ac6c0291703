"""Run one o2olab CLI stage with tracing on.

    python3 perfbench/traced_cli.py SPANS_DIR STAGE [STAGE ARGS...]

The stage runs exactly as ``python3 -m o2olab.cli STAGE ...`` would, with
the public functions of ``o2olab`` wrapped by ``tracer.install``. Spans of
this process and of its pool workers land in SPANS_DIR when each ends.
"""

import sys

import tracer


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install(spans_dir)
    from o2olab import cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
