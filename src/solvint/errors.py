"""Exception types shared across the toolkit: one per error outcome of the
CLI, which prints each as one line and exits 2 or 3."""


class SolvintError(Exception):
    """Base class for all toolkit errors; nothing raises it itself."""


class SchemaError(SolvintError):
    """A group-spec document or command line does not match the expected
    schema (exit 2, `schema error:`)."""


class MalformedInput(SolvintError):
    """Inputs violate a structural or group-theoretic precondition: mixed
    moduli, bad shapes, a failed named invariant ("irreducibility: ..."), a
    group that must be solvable and is not, an intersection case that does
    not hold (exit 2, `invalid input:`)."""


class ResourceCapExceeded(SolvintError):
    """A configured size cap was exceeded; the message names the cap (exit 3)."""

    def __init__(self, message: str, cap: int):
        super().__init__(f"{message} (cap: {cap})")
