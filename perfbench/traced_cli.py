"""Run one cohsim CLI command with spans recorded around each layer's public functions.

    python3 perfbench/traced_cli.py SPANS_FILE REPETITION -- COHSIM_ARGS...

The import of ``cohsim.cli`` is timed as the span ``cli.import`` and the call
of ``cohsim.cli.main`` as ``cli.main``; every other span nests inside it.
The spans are written to SPANS_FILE (numpy ``.npz``) after the command ends,
and the process exits with the command's exit code.
"""

import sys
import time

from spans import Tracer, install


def main() -> int:
    spans_file, repetition, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    start = time.perf_counter()
    import cohsim.cli

    tracer.add("cli.import", start, time.perf_counter())
    missing = install(tracer)
    code = tracer.wrap("cli.main", cohsim.cli.main)(cli_args)
    sys.stdout.flush()
    tracer.save(spans_file, repetition=int(repetition), unpatched=missing,
                cohsim_file=cohsim.cli.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main())
