"""Independent references the package's fast routes are tested against.

They evaluate the definitions directly, word by word, and are kept out of
the package because nothing but the tests calls them.
"""

from collections import Counter

from cklef.index import LengthTransfer, propagation
from cklef.sft_core import iter_paths


def length_transfer_enumerated(psi, max_len):
    """Fill the a(i, j) table by evaluating the path map on every word."""
    a = Counter(
        (m, len(r))
        for m in range(1, max_len + 1)
        for w in iter_paths(psi.matrix, m)
        if (r := psi.dot_apply(w)) is not None
    )
    return LengthTransfer(a=a, max_len=max_len, bound=propagation(psi.endo))
