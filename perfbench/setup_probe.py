"""Time one cold set-up of censored_evi in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR simulate CONFIG_FILE
       python3 setup_probe.py SRC_DIR estimate

Prints the seconds spent importing the package (and, for ``simulate``,
parsing the config and building the study design).  Reading the config
file happens before the clock starts.
"""

import sys
from time import perf_counter


def main(argv):
    src, kind = argv[0], argv[1]
    text = None
    if kind == "simulate":
        with open(argv[2]) as handle:
            text = handle.read()
    sys.path.insert(0, src)
    start = perf_counter()
    import censored_evi  # noqa: F401
    if kind == "simulate":
        from censored_evi import config
        config.parse_config(text).to_design()
    else:
        import censored_evi.cli  # noqa: F401
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
