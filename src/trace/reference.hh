/**
 * @file
 * Memory-reference records and the stream abstraction.
 *
 * A reference is the paper's LOAD(a,d)/STORE(a,d) with the displacement
 * dropped (coherence is block-granular).  Streams deliver the merged,
 * system-wide reference sequence the §4.2 model reasons about: "the
 * stream of memory references is the merging of a stream of references
 * to private or read-only shared blocks with a stream of references to
 * writeable shared blocks".
 */

#ifndef DIR2B_TRACE_REFERENCE_HH
#define DIR2B_TRACE_REFERENCE_HH

#include <cstddef>
#include <optional>
#include <string>

#include "util/types.hh"

namespace dir2b
{

/** One memory reference. */
struct MemRef
{
    ProcId proc = 0;
    Addr addr = 0;
    bool write = false;

    bool
    operator==(const MemRef &o) const
    {
        return proc == o.proc && addr == o.addr && write == o.write;
    }
};

/** Render "P3 W 0x2a" for traces and failure messages. */
std::string toString(const MemRef &r);

/** Abstract source of a merged reference stream. */
class RefStream
{
  public:
    virtual ~RefStream() = default;

    /** Next reference, or nullopt when the stream ends. */
    virtual std::optional<MemRef> next() = 0;

    /**
     * Write up to n next references to out and return how many were
     * written; fewer than n only when the stream ends.  Yields exactly
     * the references n next() calls would, so callers may mix the two.
     * The default loops next(); generators override it with one
     * non-virtual loop per block.
     */
    virtual std::size_t fill(MemRef *out, std::size_t n);
};

/** Base address of the shared-writeable region used by the synthetic
 *  generators (and by the software scheme's classification). */
constexpr Addr sharedRegionBase = 1ULL << 40;

/** Base address of processor p's private region. */
constexpr Addr
privateRegionBase(ProcId p)
{
    return (1ULL << 20) * (p + 1);
}

} // namespace dir2b

#endif // DIR2B_TRACE_REFERENCE_HH
