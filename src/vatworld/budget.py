"""Word budget guard.

Depth-bounded checks enumerate every action-output word up to a length, which
grows as (|A|*|Y|)**depth; past ~1e7 words the desk-scale runtime promise
breaks down.  The level-batched word walk (``oracle._word_levels``) charges
its words here once, before it starts, and refuses to start over the cap.
The cap is overridden with the VATWORLD_BUDGET environment variable.
"""

import os

from .errors import BudgetExceededError

DEFAULT_BUDGET = 10_000_000


def current_budget() -> int:
    raw = os.environ.get("VATWORLD_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(float(raw))
    except ValueError:
        return DEFAULT_BUDGET


def check(n_words: float, what: str = "enumeration") -> None:
    """Raise BudgetExceededError if ``n_words`` exceeds the cap."""
    cap = current_budget()
    if n_words > cap:
        raise BudgetExceededError(
            f"{what} would visit ~{n_words:.3g} words, over the budget of {cap}; "
            "raise VATWORLD_BUDGET to proceed"
        )
