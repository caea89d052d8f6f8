"""Bloom-filter substrate for the P2P-cache lookup directory (paper §4.2)."""

from .bloom import CountingBloomFilter, optimal_num_bits, optimal_num_hashes

__all__ = ["CountingBloomFilter", "optimal_num_bits", "optimal_num_hashes"]
