"""Time one cold set-up: import tubeforge (and numpy), load and validate configs.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG...

Prints the elapsed seconds; exits 2 if a config does not validate.
"""

import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    sys.path.insert(0, argv[0])
    import numpy  # noqa: F401  (counted: every tubeforge command pays it)
    from tubeforge.model import load_spray, validate_spray

    for path in argv[1:]:
        report = validate_spray(load_spray(path))
        if not report.ok:
            print(f"{path}: {'; '.join(report.failures)}", file=sys.stderr)
            return 2
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
