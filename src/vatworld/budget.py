"""Word budget guard.

Depth-bounded checks enumerate every action-output word up to a length, which
grows as (|A|*|Y|)**depth; past ~1e7 words the desk-scale runtime promise
breaks down.  The level-batched word walk (``oracle._word_levels``) charges
its words here once, before it starts, and refuses to start over the cap.
The cap is overridden with the VATWORLD_BUDGET environment variable; ``inf``
lifts it.
"""

import math
import os

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10_000_000


def current_budget() -> float:
    """The cap from VATWORLD_BUDGET; +inf lifts it, NaN or no number keeps the default."""
    try:
        cap = float(os.environ.get("VATWORLD_BUDGET", DEFAULT_BUDGET))
    except ValueError:
        return DEFAULT_BUDGET
    if math.isnan(cap):
        return DEFAULT_BUDGET
    return cap if math.isinf(cap) else int(cap)


def check(n_starts: int, n_letters: int, depth: int, what: str = "enumeration") -> None:
    """Raise BudgetExceededError if n_starts * n_letters**depth words exceed the cap.

    A finite cap is an int from a float, so below 1e309; a larger count is
    refused without being computed, and one past the float range is reported
    by its decimal exponent, so no depth overflows the check.  An infinite
    cap refuses nothing.
    """
    cap = current_budget()
    if cap == math.inf:
        return
    log10_words = math.log10(n_starts) + depth * math.log10(n_letters) if n_starts else -math.inf
    if log10_words < 309:
        n_words = n_starts * n_letters**depth
        if n_words <= cap:
            return
    if log10_words < 308:
        count = f"~{n_words:.3g}"
    else:
        count = f"{n_starts}*{n_letters}**{depth} ~{10 ** (log10_words % 1):.3g}e+{int(log10_words)}"
    raise BudgetExceededError(
        f"{what} would visit {count} words, over the budget of {cap}; "
        "raise VATWORLD_BUDGET to proceed"
    )
