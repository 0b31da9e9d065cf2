/**
 * @file
 * Shared command-line value parsing.
 *
 * Every byte-size knob (--dir-ram-budget, --trace-buffer) and every
 * count/interval knob (--series-interval, --procs, --refs, ...) across
 * the benches, the CLI and the tools accepts the same grammar: an
 * unsigned decimal number with an optional K/M/G (KiB/MiB/GiB —
 * binary, case insensitive) suffix.  The parser lives here, once, so a hardened corner case
 * (negative wrap, ERANGE clamp, post-multiply overflow) is fixed for
 * every consumer at the same time.
 */

#ifndef DIR2B_UTIL_PARSE_ARGS_HH
#define DIR2B_UTIL_PARSE_ARGS_HH

#include <cstdint>
#include <limits>

#include "util/logging.hh"

namespace dir2b
{

/**
 * Parse an unsigned count with an optional K/M/G (1024-based, case
 * insensitive) suffix — "256M", "1g", "4096".  Fatal (naming `flag`,
 * describing the value as `noun`) on anything else, including
 * negative values and counts that overflow size_t after the suffix
 * multiply.
 */
std::uint64_t parseScaledUint(const char *s, const char *flag,
                              const char *noun);

/** parseScaledUint for byte counts (--dir-ram-budget,
 *  --trace-buffer); zero is allowed (conventionally "unlimited"). */
std::uint64_t parseByteSize(const char *s, const char *flag);

/** parseScaledUint for sampling intervals (--series-interval):
 *  same grammar, but zero is rejected — a sampler cannot advance by
 *  zero references or ticks. */
std::uint64_t parseInterval(const char *s, const char *flag);

/** parseScaledUint for a count stored in T (--procs, --refs, ...):
 *  also fatal when the value does not fit T. */
template <typename T>
T
parseCount(const char *s, const char *flag)
{
    const std::uint64_t v = parseScaledUint(s, flag, "count");
    if (v > std::numeric_limits<T>::max())
        DIR2B_FATAL(flag, ": '", s, "' is too large");
    return static_cast<T>(v);
}

} // namespace dir2b

#endif // DIR2B_UTIL_PARSE_ARGS_HH
