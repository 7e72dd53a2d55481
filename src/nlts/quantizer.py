"""Scaled-integer quantization of real samples under a max-absolute-error bound.

Samples become signed integers code = round(value * 10**d) with ties away
from zero, so every reconstruction code / 10**d sits within 0.5 * 10**-d of
the input -- strictly tighter than the advertised bound of 10**-d.

Quantization never goes through binary floating point: text tokens are
parsed digit for digit, and float inputs are converted to decimal.Decimal
exactly, which keeps the rounding decision deterministic across platforms.
Rendering codes back to text goes through float formatting only where that
is proven exact (see render_stream); every other code is rendered with
integer arithmetic.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import repeat
from operator import truediv

from .core import INT64_MAX, INT64_MIN
from .errors import NonFiniteSample, OverflowAtScale, TooManyDigits

ROUNDING = "rounding"
LOSSLESS = "lossless"

MAX_DIGITS = 6

# Exact decimal expansion of any double needs < 800 digits; a precision this
# large makes scaleb/to_integral exact for every input we accept.
_CTX = decimal.Context(prec=1000, rounding=decimal.ROUND_HALF_UP)

#: Header byte marking integer passthrough (lossless stream with no
#: fractional digits); ordinary streams carry their digit count 0..6.
SCALE_PASSTHROUGH = 255


@dataclass(frozen=True)
class QuantizerConfig:
    mode: str = ROUNDING
    decimal_digits: int = 3

    def __post_init__(self):
        if self.mode not in (ROUNDING, LOSSLESS):
            raise ValueError(f"unknown quantizer mode {self.mode!r}")
        if self.mode == ROUNDING and not 0 <= self.decimal_digits <= MAX_DIGITS:
            raise ValueError(
                f"decimal_digits must be 0..{MAX_DIGITS}, got {self.decimal_digits}"
            )

    @classmethod
    def lossless(cls) -> "QuantizerConfig":
        return cls(mode=LOSSLESS, decimal_digits=0)


def _to_decimal(value, index: int) -> Decimal:
    """Exact Decimal for a sample; floats convert at their binary value."""
    if isinstance(value, Decimal):
        d = value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteSample(index, value)
        d = Decimal(value)
    elif isinstance(value, int):
        d = Decimal(value)
    else:
        try:
            d = Decimal(str(value).strip())
        except decimal.InvalidOperation:
            raise NonFiniteSample(index, value) from None
    if not d.is_finite():
        raise NonFiniteSample(index, value)
    return d


def fractional_digits(value, index: int = 0) -> int:
    """Number of fractional digits a sample carries.

    Text tokens are counted as written ("1.500" has three); floats count the
    digits of their shortest round-trip representation.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteSample(index, value)
        dec = Decimal(repr(value)).normalize(context=_CTX)
    elif isinstance(value, int):
        return 0
    else:
        dec = _to_decimal(value, index)
    exp = dec.as_tuple().exponent
    return max(0, -exp)


def detect_digits(samples) -> int:
    """Scan a stream and return the scale lossless mode needs."""
    worst = 0
    for i, v in enumerate(samples):
        n = fractional_digits(v, i)
        if n > worst:
            worst = n
            if worst > MAX_DIGITS:
                raise TooManyDigits(
                    f"sample at index {i} carries {n} fractional digits; "
                    f"lossless mode supports at most {MAX_DIGITS}"
                )
    return worst


def _slow_sample_code(v, digits: int, index: int):
    """Decimal-exact quantization of one sample; returns (code, scaled error)."""
    d = _to_decimal(v, index)
    scaled = d.scaleb(digits, context=_CTX)
    q = scaled.to_integral_value(rounding=decimal.ROUND_HALF_UP)
    code = int(q)
    err = scaled - q
    return code, -err if err < 0 else err


def quantize_stream(samples, digits: int):
    """Quantize a whole stream at a fixed scale.

    Returns (codes, max_abs_error) with the error measured exactly in the
    decimal domain; lossless inputs therefore report exactly 0.

    Plain decimal tokens take a string-arithmetic fast path that reproduces
    the Decimal rounding exactly; anything else (floats, exponents, unusual
    spellings) falls back to Decimal.
    """
    codes = []
    append = codes.append
    # running maxima: fast-path errors as a fraction, slow-path as Decimal
    max_num = 0
    max_den = 1
    max_dec = Decimal(0)

    for i, tok in enumerate(samples):
        if type(tok) is str and tok.isascii():
            s = tok
            neg = False
            c0 = s[0] if s else ""
            if c0 == "-" or c0 == "+":
                neg = c0 == "-"
                s = s[1:]
            ip, dot, fp = s.partition(".")
            if (ip.isdigit() or not ip) and (fp.isdigit() or (not fp and ip)):
                flen = len(fp)
                if flen <= digits:
                    code = int(ip + fp) * 10 ** (digits - flen)
                else:
                    head = int((ip + fp[:digits]) or "0")
                    tail = fp[digits:]
                    rem = int(tail)
                    den = 10 ** len(tail)
                    if 2 * rem >= den:
                        head += 1
                        num = den - rem
                    else:
                        num = rem
                    if num * max_den > max_num * den:
                        max_num = num
                        max_den = den
                    code = head
                if neg:
                    code = -code
                if not INT64_MIN <= code <= INT64_MAX:
                    raise OverflowAtScale(i, tok, digits)
                append(code)
                continue
        code, err = _slow_sample_code(tok, digits, i)
        if not INT64_MIN <= code <= INT64_MAX:
            raise OverflowAtScale(i, tok, digits)
        if err > max_dec:
            max_dec = err
        append(code)

    frac_err = _CTX.divide(Decimal(max_num), Decimal(max_den))
    worst = frac_err if frac_err > max_dec else max_dec
    return codes, worst.scaleb(-digits, context=_CTX)


def render_code(code: int, scale_exp: int | None) -> str:
    """Exact decimal text of a code, with exactly scale_exp fractional digits."""
    if scale_exp is None or scale_exp == 0:
        return str(code)
    sign = "-" if code < 0 else ""
    whole, frac = divmod(abs(code), 10 ** scale_exp)
    return f"{sign}{whole}.{frac:0{scale_exp}d}"


def render_stream(codes, scale_exp: int | None) -> list[str]:
    """Exact decimal text of every code, as render_code gives it, in C-level passes.

    With d = scale_exp > 0 a code c reads as the float c / 10**d formatted
    with "%.<d>f".  That is exact while |c| < 2**52: c and 10**d (d <= 6)
    are exact doubles and int / int rounds correctly, so the quotient is off
    the true value x = c / 10**d by at most |x| * 2**-53 < 0.5 * 10**-d.
    x is a multiple of 10**-d, so the correctly rounded "%f" conversion
    lands back on x, never on a midpoint.  Only code 0 gives a zero
    quotient, and it is +0.0, so no "-0.000" appears.  A stream holding any
    code outside (-2**52, 2**52) goes through render_code for every code.
    """
    if scale_exp is None or scale_exp == 0:
        return list(map(str, codes))
    if not -(2**52) < min(codes) <= max(codes) < 2**52:
        return [render_code(c, scale_exp) for c in codes]
    fmt = f"%.{scale_exp}f".__mod__
    return list(map(fmt, map(truediv, codes, repeat(10**scale_exp))))
