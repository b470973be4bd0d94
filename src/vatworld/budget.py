"""Word budget guard.

A check bounded by a word length walks up to (|A|*|Y|)**depth words; past
about 1e7 of them a command no longer answers in seconds.  Each such check
calls ``check`` once, before its walk, and is refused over the cap:
``oracle.memory_class``, ``linalg_reduce.gt_validate_interface`` and
``epsilon.epsilon_from_histories``, which also charges its future walk from
every history.  The word walk (``oracle._word_levels``) charges nothing.  The
cap is overridden with the VATWORLD_BUDGET environment variable; ``inf`` lifts it.
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
