"""Normative constants of the arithmetic coder's adaptive frequency model.

257 symbols (every byte value plus a terminator), all counts start at 1 and
grow by 1 per occurrence.  When the total reaches the rescale ceiling every
count is halved rounding up, which keeps counts >= 1 and the total inside
16 bits -- all three constants are normative for stream compatibility.

The model itself is inlined into the coding loops of arithmetic.py, which
keeps symbol 0's count apart from a Fenwick tree over the other 256 (a
layout of its own, not of the model); a plain class form lives with the
reference coders in the tests.
"""

NUM_SYMBOLS = 257
EOF_SYMBOL = 256
RESCALE_CEILING = 1 << 16
