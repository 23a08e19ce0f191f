"""Structured exception types shared across the toolkit.

Every error carries an ``exit_code`` used by the command line driver:
1 for usage problems, 2 for malformed or inconsistent input data and
3 for numeric failures.
"""


class OpdenseError(Exception):
    exit_code = 2


class UsageError(OpdenseError):
    exit_code = 1


class DataError(OpdenseError):
    exit_code = 2


class NumericError(OpdenseError):
    exit_code = 3


# --- instruction-count reports ------------------------------------------------

class MalformedLine(DataError):
    def __init__(self, line_no: int, line: str, reason: str = "does not match the report grammar"):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line


class DuplicateMnemonic(DataError):
    def __init__(self, name: str, line_no: int):
        super().__init__(f"mnemonic appears twice: {name!r} (line {line_no})")
        self.name = name


class EmptyReport(DataError):
    pass


class NoFilesFound(DataError):
    pass


class UnresolvedLabel(DataError):
    def __init__(self, sample_id: str, detail: str = "no label available"):
        super().__init__(f"{sample_id}: {detail}")
        self.sample_id = sample_id


# --- PE parsing / decoding ----------------------------------------------------

class NotPe(DataError):
    pass


class Truncated(DataError):
    def __init__(self, offset: int, what: str = "data"):
        super().__init__(f"file truncated: needed {what} at offset {offset}")
        self.offset = offset


class Not32Bit(DataError):
    def __init__(self, machine: int):
        super().__init__(f"not a 32-bit x86 image (COFF machine field 0x{machine:04x})")
        self.machine = machine


class NoExecutableSection(DataError):
    pass


class NoInstructionsDecoded(DataError):
    pass


# --- dataset ------------------------------------------------------------------

class UnknownMnemonic(DataError):
    def __init__(self, name: str):
        super().__init__(f"mnemonic not in the master attribute list: {name!r}")
        self.name = name


class TooFewInstances(DataError):
    pass


class EmptyResult(DataError):
    pass


class SchemaMismatch(DataError):
    pass


def decode_utf8(data: bytes, what: str) -> str:
    """``data`` as UTF-8 text: the one decoding of every text input file.
    One leading byte-order mark, as Windows tools write, is dropped."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{what} is not UTF-8 text: {exc}") from None


# --- SVM ----------------------------------------------------------------------

class DimensionMismatch(DataError):
    pass


class SingleClass(DataError):
    pass


class NormalizedPolyZeroNorm(NumericError):
    pass


class NonFiniteSolution(NumericError):
    pass


# --- feature selection --------------------------------------------------------

class ListTooLong(DataError):
    pass


class WrongListCount(DataError):
    pass


class UnknownAttribute(DataError):
    def __init__(self, name: str):
        super().__init__(f"attribute not present in the dataset: {name!r}")
        self.name = name


class DegenerateMatrix(NumericError):
    pass


# --- evaluation ---------------------------------------------------------------

class LengthMismatch(DataError):
    pass


class UnknownLabel(DataError):
    pass


class KTooLarge(DataError):
    pass


class EmptyTestSet(DataError):
    pass
