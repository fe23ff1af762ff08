"""Set-up probe: time the import of qncfem and ``build_reference_element``
in a fresh interpreter, as a user's first study pays them.

    python3 perfbench/probe.py --root . --spec JSON

Prints one JSON object: {"import_s": ..., "build_s": ..., "scale": ...}.
``scale`` turns these times into reference-host seconds (see hostspeed.py);
its kernel runs after the build, so that its numpy and scipy imports do not
shorten the qncfem import.
"""

import argparse
import json
import pathlib
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, type=pathlib.Path)
    ap.add_argument("--spec", required=True, help="workload entry as JSON")
    args = ap.parse_args(argv)

    src = args.root / "src"
    if not (src / "qncfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no qncfem sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import qncfem.cli as cli

    t1 = time.perf_counter()
    config = cli.StudyConfig(**json.loads(args.spec)["config"])
    cli.build_reference_element(config.family_obj(), config.m)
    t2 = time.perf_counter()
    import hostspeed

    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "scale": hostspeed.NOMINAL_S / hostspeed.kernel_s()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
