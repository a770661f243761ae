"""Exception types shared across the package."""


class PostlabError(Exception):
    """Base class for library errors."""


class BudgetExceededError(PostlabError):
    """An enumeration or brute-force operation would exceed its budget."""


class FragmentMismatchError(PostlabError):
    """A specialized solver or emitter was handed an instance outside its fragment."""


class UnknownCloneError(PostlabError, KeyError):
    """A clone label is not present in the catalog."""


class CatalogError(PostlabError):
    """The clone catalog failed its internal consistency validation."""


class RelationParseError(PostlabError, ValueError):
    """A relation, graph, or instance file could not be parsed."""


class MonotonePreconditionError(PostlabError, ValueError):
    """An operation requiring a monotone function received a non-monotone one.

    Carries a violating pair (lo, hi) with lo <= hi bitwise and f(lo) > f(hi).
    """

    def __init__(self, message: str, lo: int, hi: int):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class BudgetConfigError(PostlabError, ValueError):
    """POSTLAB_BUDGET names an unknown field or gives a non-integer value."""
