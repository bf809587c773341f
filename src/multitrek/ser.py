"""Canonical serialization, the one reader of input text and the one writer of files.

All JSON the package emits goes through canonical_json so that equal
values serialize to identical bytes: keys sorted, separators compact,
rationals rendered as "numerator/denominator" strings.  Input is read
here in that form, integers in text as str() writes them, floats in
text in ASCII as repr() writes them and ids in JSON arrays as JSON
integers; anything else is a SchemaError.  Every file the package
writes goes through write_output.
"""

from __future__ import annotations

import json
import os
import stat
from fractions import Fraction

from .errors import SchemaError


def read_json(text: str, path: str = "/") -> object:
    """The value a JSON document holds; SchemaError at ``path`` if it does not decode."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # or nested too deep to decode
        raise SchemaError(path, f"invalid JSON: {exc}") from exc


def canonical_int(text: object) -> int | None:
    """The int whose str() is exactly ``text`` (no "+", space, "_", 0-pad, non-ASCII digit), else None."""
    try:
        value = int(text)
    except (TypeError, ValueError, OverflowError):  # not even an int, or too many digits
        return None
    return value if str(value) == text else None


def strict_int(x: object, what: str = "vertex id") -> int:
    """``x`` itself when it is an int and no bool, else ValueError naming ``what``:
    2.0 and True equal ints but are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def checked_seed(value: object, what: str = "seed") -> int:
    """``value`` itself when it is an int >= 0 and no bool, else ValueError
    naming ``what``: the one rule of every seed and every work budget.
    random.Random seeds by absolute value, so a negative seed would replay
    a positive one's draws; a negative budget would refuse all work."""
    if strict_int(value, what) < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def read_int(text: object, path: str = "/", message: str = "must be an integer") -> int:
    """canonical_int(text), else SchemaError(path, message)."""
    value = canonical_int(text)
    if value is None:
        raise SchemaError(path, message)
    return value


def read_float(text: str, path: str = "/") -> float:
    """The float ``text`` spells in ASCII without "_" or whitespace (every
    repr(float) spelling reads back), else SchemaError at ``path``."""
    try:
        if text.isascii() and "_" not in text and text.strip() == text:
            return float(text)
    except ValueError:
        pass
    raise SchemaError(path, f"not a number: {text!r}")


def in_float_range(x: int | float | Fraction, path: str = "/") -> int | float | Fraction:
    """``x`` itself when float(x) does not overflow (inf and nan pass), else SchemaError at ``path``."""
    try:
        float(x)
    except OverflowError:  # a JSON integer or an "a/b" rational beyond the float range
        raise SchemaError(path, "too large for a float") from None
    return x


def read_edge(key: str, path: str) -> tuple[int, int]:
    u, _, v = key.partition("->")
    return read_int(u, path, "expected 'u->v' key"), read_int(v, path, "expected 'u->v' key")


def read_ints(x: object, path: str, depth: int = 1) -> object:
    """``x`` itself when it is a JSON integer (depth 0; booleans and floats are
    refused) or an array whose items pass at depth - 1."""
    if depth == 0:
        if type(x) is not int:
            raise SchemaError(path, "must be an integer")
        return x
    if not isinstance(x, list):
        raise SchemaError(path, "must be an array")
    for i, v in enumerate(x):
        if depth > 1 or type(v) is not int:  # the recursion raises for a non-int leaf
            read_ints(v, f"{path}/{i}", depth - 1)
    return x


def frac_to_str(x: Fraction) -> str:
    """Render a rational as "a/b" with b >= 1, e.g. Fraction(3) -> "3/1"."""
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: object, path: str = "/") -> Fraction:
    """Parse "a/b" (b > 0) or a plain integer, each part in canonical decimal."""
    if not isinstance(s, str):
        raise SchemaError(path, f"a rational must be an 'a/b' string, got {s!r}")
    num, slash, den = s.partition("/")
    numerator, denominator = canonical_int(num), canonical_int(den) if slash else 1
    if numerator is None or denominator is None or denominator <= 0:
        raise SchemaError(path, f"not a rational: {s!r}")
    return Fraction(numerator, denominator)


def as_rational(x: int | Fraction) -> int | Fraction:
    """A rational in normal form: an int when integral, else a Fraction.

    Integral values stay in int arithmetic, which needs no gcd per
    operation; Fraction is kept for the values that need it.
    """
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def canonical_json(obj: object) -> str:
    """Serialize to a single deterministic line (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_output(path: str | os.PathLike, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path``, in order, over what it held.

    The file is opened without O_TRUNC (mode 0o666 before the umask, as
    open() creates it), overwritten in place and, when it is a regular
    file, cut to the written length; a device such as /dev/null is only
    written.  ext4 flushes a file truncated at open when it is closed
    (auto_da_alloc), which costs far more than these writes.  The inode
    stays the same, so hard links and symlinks see the new bytes, and a
    failure raises the OSError open() would.  Like a truncating open(), it
    is not crash-atomic: there is no fsync and no rename.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        for chunk in chunks:
            view = memoryview(chunk)
            if not view.nbytes:  # cast() refuses a view with a zero in its shape
                continue
            view = view.cast("B")
            while view:  # os.write may write less than it is given
                n = os.write(fd, view)
                written += n
                view = view[n:]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)
