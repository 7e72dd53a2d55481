"""Scaled-integer quantization of real samples under a max-absolute-error bound.

Samples become signed integers code = round(value * 10**d) with ties away
from zero, so every reconstruction code / 10**d sits within 0.5 * 10**-d of
the input -- strictly tighter than the advertised bound of 10**-d.

Quantization never goes through binary floating point: text tokens are
parsed digit for digit, and float inputs are converted to decimal.Decimal
exactly (lossless mode takes a float as its shortest repr), which keeps
the rounding decision deterministic across platforms.
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
from operator import floordiv, truediv

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


def _slow_sample_code(v, scale: int, index: int, lossless: bool):
    """Decimal-exact quantization of one sample.

    Returns (code, scaled error, fractional digits); the digits are counted
    in lossless mode only.  Floats convert at their binary value, except in
    lossless mode, which takes a float as its shortest repr so that the
    detected scale captures it exactly.
    """
    if isinstance(v, Decimal):
        d = v
    elif isinstance(v, float):
        if not math.isfinite(v):
            raise NonFiniteSample(index, v)
        d = Decimal(float.__repr__(v) if lossless else v)
    elif isinstance(v, int):
        d = Decimal(v)
    else:
        try:
            d = Decimal(str(v).strip())
        except decimal.InvalidOperation:
            raise NonFiniteSample(index, v) from None
    if not d.is_finite():
        raise NonFiniteSample(index, v)
    scaled = d.scaleb(scale, context=_CTX)
    q = scaled.to_integral_value(rounding=decimal.ROUND_HALF_UP)
    err = scaled - q
    n = max(0, -d.as_tuple().exponent) if lossless else 0
    return int(q), -err if err < 0 else err, n


def _checked_digits(n: int, lossless: bool, index: int) -> int:
    """n, the fractional digit count of sample index; lossless allows at most 6."""
    if lossless and n > MAX_DIGITS:
        raise TooManyDigits(
            f"sample at index {index} carries {n} fractional digits; "
            f"lossless mode supports at most {MAX_DIGITS}"
        )
    return n


def quantize_stream(samples, digits):
    """Quantize a sequence of samples; returns (codes, max_abs_error, scale).

    digits is a scale of 0..6, or LOSSLESS for the smallest scale that holds
    every sample exactly: the largest fractional digit count seen, text
    counted as written ("1.500" has three), floats by their shortest repr,
    ints as none.  Lossless mode quantizes at scale 6 while it counts and
    divides the codes down to the final scale after the pass.

    The error is measured exactly in the decimal domain; lossless inputs
    therefore report exactly 0.  Parse faults (NonFiniteSample,
    TooManyDigits) are raised at the first bad sample; the 64-bit range is
    checked once, after the pass, at the final scale (OverflowAtScale).

    Plain decimal tokens take a string-arithmetic fast path that reproduces
    the Decimal rounding exactly; anything else (floats, exponents, unusual
    spellings) falls back to Decimal.
    """
    lossless = digits == LOSSLESS
    scale = MAX_DIGITS if lossless else digits
    widest = 0
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
                if flen > widest:
                    widest = _checked_digits(flen, lossless, i)
                if flen <= scale:
                    code = int(ip + fp) * 10 ** (scale - flen)
                else:
                    head = int((ip + fp[:scale]) or "0")
                    tail = fp[scale:]
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
                append(-code if neg else code)
                continue
        code, err, flen = _slow_sample_code(tok, scale, i, lossless)
        if flen > widest:
            widest = _checked_digits(flen, lossless, i)
        if err > max_dec:
            max_dec = err
        append(code)

    if lossless:
        scale = widest
        if scale < MAX_DIGITS:
            codes = list(map(floordiv, codes, repeat(10 ** (MAX_DIGITS - scale))))
    if codes and not INT64_MIN <= min(codes) <= max(codes) <= INT64_MAX:
        i = next(i for i, c in enumerate(codes) if not INT64_MIN <= c <= INT64_MAX)
        raise OverflowAtScale(i, samples[i], scale)

    frac_err = _CTX.divide(Decimal(max_num), Decimal(max_den))
    worst = frac_err if frac_err > max_dec else max_dec
    return codes, worst.scaleb(-scale, context=_CTX), scale


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
