"""Exception hierarchy for geometric and flow failures."""


class CentroflowError(Exception):
    """Base class for all package errors.

    `time` is the flow time of a failure raised during a march, when known;
    both flows' evolve attach it to flow and geometry errors from a step.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NotStarShaped(CentroflowError):
    """[C, C_p] changes sign on the grid: the origin does not see the whole curve."""


class DegenerateMetric(CentroflowError):
    """The metric radicand or a curvature denominator is zero or negative, or a curve's
    spectrum or curvature mu is beyond the float range."""


class NonConstantSign(CentroflowError):
    """The orientation sign field varies over the grid."""


class FlowError(CentroflowError):
    """Base class for time-stepping failures; carries the failure time when known."""


class StabilityViolation(FlowError):
    """Requested dt exceeds the explicit diffusion stability bound."""


class BlowUp(FlowError):
    """A field or coordinate exceeded its configured ceiling."""


class ConfigError(CentroflowError):
    """Scenario configuration is malformed; message names the offending field."""


# inadmissible geometry, raised by the invariant pipeline on an initial curve or mid-march
GEOMETRY_ERRORS = (NotStarShaped, DegenerateMetric, NonConstantSign)
# what a march re-raises with its failure time attached
MARCH_ERRORS = (FlowError,) + GEOMETRY_ERRORS
