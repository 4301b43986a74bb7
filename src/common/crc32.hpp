#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), used by the
// checkpoint store and the buddy replica store to detect torn or corrupted
// snapshots.  Every checkpoint write and buddy replication CRCs the full grid
// payload on the sender and again on the reader, so this is a hot kernel.
//
// Two paths compute the same values:
//   - Carry-less-multiply folding (x86-64 with PCLMULQDQ and SSE4.1), after
//     Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//     PCLMULQDQ Instruction" (Intel, 2009): four 128-bit lanes fold 64 bytes
//     per iteration, then fold to one lane, 16 bytes at a time, and a Barrett
//     reduction leaves the 32-bit register.  It takes inputs of at least
//     64 bytes, the smallest that fills the four lanes, and stops at the
//     last whole 16-byte block.
//   - Slicing-by-8: eight derived 256-entry tables consume 8 bytes per
//     iteration.  It handles inputs under 64 bytes, the tail after the last
//     16-byte block, other architectures and CPUs without PCLMULQDQ, and is the
//     reference the tests hold the folding path to.
// The process picks the path once, from CPUID, the first time crc32 is
// called; nothing configures it.
//
// Not CRC-32C: SSE4.2's `crc32` instruction computes the Castagnoli
// polynomial (0x82F63B78), a different checksum, so using it would change
// every stored checkpoint and replica CRC.  Check value of this one:
// crc32("123456789") == 0xCBF43926 (zlib's CRC-32 check value).

#include <cstddef>
#include <cstdint>

#include "common/annotations.hpp"

namespace ftr {

/// Incremental CRC-32: pass the previous result as `seed` to chain buffers.
/// Inputs of 64 bytes or more take the folding path when the CPU has it.
FTR_HOT std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// The slicing-by-8 path alone, whatever the CPU: the same values as crc32.
FTR_HOT std::uint32_t crc32_portable(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace ftr
