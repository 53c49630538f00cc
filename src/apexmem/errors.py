"""Exception hierarchy shared across the engine."""


class ApexMemError(Exception):
    """Base class for all engine errors."""


# --- ontology ---

class UnknownEntityType(ApexMemError):
    pass


class DTypeMismatch(ApexMemError):
    pass


# --- store ---

class SchemaMismatch(ApexMemError):
    pass


class IoFailure(ApexMemError):
    pass


class DanglingReference(ApexMemError):
    pass


class ValidationFailure(ApexMemError):
    pass


# --- resolution ---

class InvalidDecision(ApexMemError):
    pass


class ProviderFailure(ApexMemError):
    pass


class Unnormalizable(ApexMemError):
    pass


class ResolutionFailure(ApexMemError):
    pass


# --- extraction ---

class UnparseableTemporal(ApexMemError):
    pass


class ExtractorFailure(ApexMemError):
    pass


# --- index ---

class EmbedderFailure(ApexMemError):
    pass


class DimensionMismatch(ApexMemError):
    pass


class ZeroVector(ApexMemError):
    pass


class UnknownView(ApexMemError):
    pass


# --- cli ---

class ParseError(ApexMemError):
    pass
