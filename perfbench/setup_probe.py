"""Time matym's set-up in a fresh interpreter and print it as JSON.

    python3 setup_probe.py SRC SPEC...

SRC is the directory holding the `matym` package; each SPEC names a
calculus to construct, `N` or `Nx` (exact mode). Set-up is the import of
the package (numpy and scipy included) plus those constructions.
"""

import json
import sys
import time


def main(src, specs):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import matym

    imported = time.perf_counter()
    for spec in specs:
        matym.DerivationCalculus(int(spec.rstrip("x")), exact=spec.endswith("x"))
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "calculus_s": built - imported}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
