"""Exception vocabulary shared across the runtime."""


class BrainstemError(Exception):
    """Base class for every error raised by this package."""


# wire protocol

class CanonicalizationError(BrainstemError):
    """A document cannot be rendered to canonical bytes (e.g. non-finite numbers)."""


class ParseError(BrainstemError):
    """Wire bytes are not a well-formed message document."""


class ChecksumMismatch(BrainstemError):
    """Stored checksum disagrees with the recomputed one; message is corrupt."""


class SchemaViolation(BrainstemError):
    """A document does not satisfy the contract registered for its kind.

    Carries the full list of problems, one entry per missing/extra/mistyped
    field, so callers can report everything at once.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# message bus

class UnregisteredSender(BrainstemError):
    """Publish or subscription change attempted by an unknown agent id."""


# agent registry

class DuplicateId(BrainstemError):
    """Registration with an agent id that is already active."""


class NotFailed(BrainstemError):
    """Re-initialization requested for an agent that has not failed."""


# agents / numerics

class DimensionMismatch(BrainstemError):
    """Vector or matrix shapes do not conform to the declared interface."""


class BackendError(BrainstemError):
    """Completion backend failed (timeout, malformed reply, missing script entry)."""


class UnknownModality(BrainstemError):
    """An observation names a modality with no registered embedder."""


# planner

class CycleDetected(BrainstemError):
    """Dependency annotations induce a cycle; the plan admits no topological order."""


class UnknownAction(BrainstemError):
    """An action label is absent from the available-action vocabulary."""


class EmptyActionSet(BrainstemError):
    """Action selection requested but no transitions are available."""


# simulator

class UnknownTask(BrainstemError):
    """Scenario requested for a task id outside the benchmark suite."""


# harness

class ConfigError(BrainstemError, ValueError):
    """Benchmark configuration is incomplete or inconsistent."""


def require_positive_ints(**values) -> None:
    """Raise ConfigError unless each named value is an int >= 1."""
    for name, value in values.items():
        if type(value) is not int or value < 1:
            raise ConfigError(f"{name} must be an int >= 1, got {value!r}")


class EmptyInput(BrainstemError):
    """Aggregation requested over an empty value list."""


class AggregateOverflow(BrainstemError):
    """The mean or sample std of finite values is not a finite float."""


class IoError(BrainstemError):
    """A batch, report, trace or input file could not be read or written."""
