"""Run one dichroma command line with layer tracing on.

    python3 bench/launch.py TRACE_FILE ARG...

Installs the wrappers of bench/layers.py, runs dichroma.cli.run(ARG...),
writes the trace to TRACE_FILE and exits with the command's exit code.
"""

import sys

import layers


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import dichroma.cli

    tracer = layers.Tracer()
    tracer.install()
    try:
        return dichroma.cli.run(argv)
    finally:
        sys.stdout.flush()
        layers.write_trace(path, tracer.export(argv=argv))


if __name__ == "__main__":
    sys.exit(main())
