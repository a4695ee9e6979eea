"""Independent references and property checks for the benchmark.

Nothing here imports the library's formulas: the Lotto payoff is restated
from its definition and the adversary's best response is found by plain
enumeration, so a benchmark run checks the program against code that shares
none of its arithmetic paths. Every check raises CheckFailed with the
offending input in its message.
"""

# Reference values from the paper for the game (phi1, phi2, x1, x2) =
# (1, 1.2, 0.5, 1.5): the efficiency above which a transfer helps both
# players, and the one above which the alliance-optimal transfer is nonzero.
PAPER_GAME = (1.0, 1.2, 0.5, 1.5)
PAPER_MUTUAL_THRESHOLD = 0.50994
PAPER_ALLIANCE_THRESHOLD = 0.088304


class CheckFailed(AssertionError):
    """An output of the program contradicts a reference or a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def lotto(x: float, xa: float, phi: float) -> float:
    """Player payoff of one Lotto front: budget x against xa, front worth phi."""
    if xa == 0.0:
        return phi
    if x <= xa:
        return phi * x / (2.0 * xa)
    return phi * (1.0 - xa / (2.0 * x))


def best_splits(phi1: float, phi2: float, x1: float, x2: float, n: int) -> tuple[list[int], float, float]:
    """Adversary's best splits of a unit budget among a = j/n, by enumeration.

    Returns (ties, u1, u2): every index whose combined player payoff is within
    rounding of the minimum, in increasing order, and the player payoffs at
    the first of them. The adversary maximizes its own payoff, which is
    phi1 + phi2 minus the players' combined payoff.
    """
    values = []
    for j in range(n + 1):
        a = j / n
        values.append((lotto(x1, a, phi1), lotto(x2, 1.0 - a, phi2)))
    totals = [u1 + u2 for u1, u2 in values]
    low = min(totals)
    tol = 1e-12 * (phi1 + phi2)
    ties = [j for j, t in enumerate(totals) if t <= low + tol]
    u1, u2 = values[ties[0]]
    return ties, u1, u2


def check_split(label: str, a_star: float, ties: list[int], n: int) -> None:
    """The program's split must be the first minimizer, up to rounding ties.

    Where the objective is flat (the proportional case), rounding decides
    which of the tied splits a program finds first, so any tied split passes.
    """
    j = round(a_star * n)
    require(abs(a_star - j / n) <= 1e-9 / n, f"{label}: split {a_star!r} is off the 1/{n} grid")
    if len(ties) == 1:
        require(j == ties[0], f"{label}: split index {j}, enumeration gives {ties[0]}")
    else:
        require(j in ties, f"{label}: split index {j} is not among the tied minimizers {ties[0]}..{ties[-1]}")


def induced_budgets(x1: float, x2: float, tau: float, beta: float) -> tuple[float, float]:
    """Budgets after a transfer: the sender loses |tau|, the recipient gains beta*|tau|."""
    if tau > 0.0:
        return x1 - tau, x2 + beta * tau
    return x1 + beta * abs(tau), x2 - abs(tau)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_monotone_flags(label: str, flags: list[bool]) -> int:
    """A flag along increasing beta may switch on once and never off; returns the switch index or -1."""
    first = flags.index(True) if True in flags else -1
    if first >= 0:
        require(all(flags[first:]), f"{label}: flag switches off again after index {first}")
    return first
