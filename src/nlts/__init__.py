"""Near-lossless univariate time-series compression.

Two-stage codec: a per-block statistics/deviation transform (mode
subtraction or differencing, zeros dropped behind a bitmap) followed by an
entropy coder (static Huffman, adaptive Huffman, or adaptive arithmetic).
"""

from .container import (
    CodecConfig,
    RunMetrics,
    StreamHeader,
    compress_stream,
    decompress_stream,
    decompress_to_tokens,
)
from .entropy import ADAPTIVE_ARITHMETIC, ADAPTIVE_HUFFMAN, STATIC_HUFFMAN

__all__ = [
    "ADAPTIVE_ARITHMETIC",
    "ADAPTIVE_HUFFMAN",
    "STATIC_HUFFMAN",
    "CodecConfig",
    "RunMetrics",
    "StreamHeader",
    "compress_stream",
    "decompress_stream",
    "decompress_to_tokens",
]

__version__ = "0.1.0"
