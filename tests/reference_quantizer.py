"""Test-only reference quantizer: one token at a time, as an oracle.

quantize_stream below is the per-token stream quantizer that nlts.quantizer
replaced with one column pass.  Plain decimal text tokens go through
string arithmetic that reproduces the Decimal rounding exactly (int() reads
them, so a token past its digit limit fails here); anything else (floats,
ints, Decimals, exponents, unusual spellings) through a per-sample Decimal
conversion and rounding.  nlts.quantizer instead spells every sample that
is not plain text as plain text and quantizes every column in the same
integer pass, so the two share no rounding or error code for any kind of
sample.  nlts.quantizer.quantize_stream must return the same codes, error
and scale, and raise the same error at the same index with the same
message.
"""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from itertools import repeat
from operator import floordiv

from nlts.core import INT64_MAX, INT64_MIN
from nlts.errors import NonFiniteSample, OverflowAtScale, TooManyDigits
from nlts.quantizer import LOSSLESS, MAX_DIGITS

_CTX = decimal.Context(prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_UP)


def _slow_sample_code(v, scale: int, index: int, lossless: bool):
    """Decimal-exact quantization of one sample: (code, scaled error, digits)."""
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
    n = max(0, -d.as_tuple().exponent) if lossless else 0
    if d.copy_abs() >= 10**19:
        # out of range at scale 0 and, after lossless division, at any scale
        return 10 ** (19 + MAX_DIGITS), Decimal(0), n
    scaled = d.scaleb(scale, context=_CTX)
    q = scaled.to_integral_value(rounding=decimal.ROUND_HALF_UP)
    return int(q), _CTX.subtract(scaled, q).copy_abs(), n


def _checked_digits(n: int, lossless: bool, index: int) -> int:
    if lossless and n > MAX_DIGITS:
        raise TooManyDigits(
            f"sample at index {index} carries {n} fractional digits; "
            f"lossless mode supports at most {MAX_DIGITS}"
        )
    return n


def quantize_stream(samples, digits):
    """(codes, max_abs_error, scale), one sample at a time."""
    lossless = digits == LOSSLESS
    scale = MAX_DIGITS if lossless else digits
    widest = 0
    codes = []
    append = codes.append
    # running maxima: string-path errors as a fraction, Decimal-path as Decimal
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
