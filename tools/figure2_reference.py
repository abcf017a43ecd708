"""Write 40-digit references for the functional rows of ``cvbell figure2``.

Each row holds, for N = 3 to ``--n-max``, the critical efficiency at p = 1,
the critical purity at eta = 1 and the slope of ln B in eta at that
efficiency, all three empty where B(1, 1) <= 1.  They come from the two
closed-form sides in mpmath (``mp_figure2_row`` of ``tests/reference.py``),
worked at 50 digits and printed at 40, so that a float that starts a root
search one ulp elsewhere does not move a printed digit.  The tests hold
every functional field of ``figure2 --n-max 300`` to the committed file,
and every ``B_optimal`` of ``figure1 --n-max 300`` too: at eta = 1 it is
``p_crit``^-2.

    python tools/figure2_reference.py [--n-max 300] [--out FILE]

It needs the ``test`` extra (mpmath, numpy) and takes about 0.15 s per N.
"""

import argparse
import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mpmath  # noqa: E402

from reference import mp_figure2_row  # noqa: E402

WORKING_DIGITS = 50
PRINTED_DIGITS = 40
DEFAULT_OUT = ROOT / "tests" / "data" / "figure2_functional_n3-300_mp40.csv"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=300)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)
    with open(args.out, "w", newline="") as fh, mpmath.workdps(WORKING_DIGITS):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "eta_crit", "p_crit", "slope"])
        for n in range(3, args.n_max + 1):
            row = mp_figure2_row("functional", n)
            writer.writerow([n, *("" if x is None else mpmath.nstr(x, PRINTED_DIGITS)
                                  for x in row)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
