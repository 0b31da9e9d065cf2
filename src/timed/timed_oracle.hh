/**
 * @file
 * Coherence checker for the timed tier.
 *
 * With messages in flight, "the most recently written value" is only
 * defined up to the per-block write serialisation the directory
 * enforces.  The checker therefore verifies per-location coherence in
 * its standard formal sense (per-location sequential consistency):
 *
 *  1. every read returns a value that was actually written to that
 *     block (or its initial contents) — no fabrication, no
 *     cross-block leakage;
 *  2. per (processor, block), the sequence of observed versions is
 *     monotonically non-decreasing — a processor never sees a write
 *     and then travels back in time (this permits the paper's
 *     ack-free invalidation broadcasts, where a remote stale copy may
 *     be read for a few more cycles before the BROADINV lands, but
 *     forbids any ordering inversion);
 *  3. a processor's read after its own write observes a version at
 *     least as new as that write;
 *  4. at quiesce, the final contents of every block (memory, or the
 *     unique dirty copy) equal the newest version.
 *
 * Versions are assigned in completion order, which matches the
 * per-block grant order of the serialising controller.
 *
 * Storage is sized for the hot path: every write value comes from
 * freshValue(), which is an invertible function of a nonce, so a read
 * decodes its value back to the nonce and indexes a dense per-write
 * record {block, version} instead of hashing the value.  Records live
 * in fixed-size pages (no rehash, no per-write allocation, no
 * reallocation spike); the newest version per block and the last
 * version each processor saw per block live in FlatMaps.
 */

#ifndef DIR2B_TIMED_TIMED_ORACLE_HH
#define DIR2B_TIMED_TIMED_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dir2b
{

namespace detail
{

/** k^-1 mod 2^64 for odd k, by Newton's iteration: x = k is right to
 *  3 bits, and each step doubles the correct bits. */
constexpr std::uint64_t
inverseMod2to64(std::uint64_t k)
{
    std::uint64_t x = k;
    for (int i = 0; i < 5; ++i)
        x *= 2 - k * x;
    return x;
}

} // namespace detail

/** Per-location-SC checker fed by processor-visible completions.
 *
 *  Contract: every value passed to onWriteComplete must have been
 *  returned by this oracle's freshValue(), and complete at most once. */
class TimedOracle
{
  public:
    /** Produce a unique value for the next write. */
    Value
    freshValue()
    {
        const std::uint64_t n = ++nonce_;
        if ((n - 1) % pageRecs == 0)
            pages_.push_back(std::make_unique<Rec[]>(pageRecs));
        return n * nonceMul + 1;
    }

    /** A write of v to block a completed at processor p. */
    void
    onWriteComplete(ProcId p, Addr a, Value v)
    {
        const std::uint64_t n = nonceOf(v);
        DIR2B_ASSERT(issued(n), "write of block ", a, " completed with ",
                     v, ", which freshValue() never issued");
        Rec &r = rec(n);
        DIR2B_ASSERT(r.seq == 0, "write of ", v, " to block ", a,
                     " completed twice (first to block ", r.block, ")");
        const std::uint64_t seq = ++newest_[a];
        r = {a, seq};
        seenBy(p)[a] = seq;
        ++writes_;
    }

    /** A read of block a returning v completed at processor p. */
    void
    onReadComplete(ProcId p, Addr a, Value v)
    {
        ++reads_;
        const std::uint64_t seq = versionOf(a, v);
        auto &seen = seenBy(p)[a];
        if (seq < seen) {
            DIR2B_PANIC("per-location coherence violation: processor ",
                        p, " read version ", seq, " of block ", a,
                        " after having observed version ", seen);
        }
        seen = seq;
    }

    /** End-of-run check: the final value of block a is the newest. */
    void
    checkFinal(Addr a, Value v) const
    {
        auto it = newest_.find(a);
        const std::uint64_t last = it == newest_.end() ? 0 : it->second;
        const std::uint64_t seq = versionOf(a, v);
        if (seq != last) {
            DIR2B_PANIC("conservation violation: block ", a,
                        " finishes at version ", seq,
                        " but the newest write was version ", last);
        }
    }

    std::uint64_t readsChecked() const { return reads_; }
    std::uint64_t writesRecorded() const { return writes_; }

    /** Visit every block that has been written (for final checks). */
    void
    forEachWrittenBlock(const std::function<void(Addr)> &fn) const
    {
        for (const auto &[a, last] : newest_)
            fn(a);
    }

  private:
    /** What became of the write that carried one nonce: the block it
     *  completed to and the version it got there (0 = not completed). */
    struct Rec
    {
        Addr block = 0;
        std::uint64_t seq = 0;
    };

    /** Odd, so n -> n * nonceMul + 1 is a bijection on 64-bit words. */
    static constexpr std::uint64_t nonceMul = 0x9e3779b97f4a7c15ULL;

    static constexpr std::uint64_t nonceMulInv =
        detail::inverseMod2to64(nonceMul);
    static_assert(nonceMul * nonceMulInv == 1,
                  "nonce multiplier must be invertible mod 2^64");

    /** Records per page: 64 KiB pages. */
    static constexpr std::size_t pageRecs = 4096;

    static std::uint64_t nonceOf(Value v) { return (v - 1) * nonceMulInv; }

    /** Has freshValue() handed out nonce n?  (n = 0 wraps to false.) */
    bool issued(std::uint64_t n) const { return n - 1 < nonce_; }

    Rec &
    rec(std::uint64_t n)
    {
        return pages_[(n - 1) / pageRecs][(n - 1) % pageRecs];
    }

    const Rec &
    rec(std::uint64_t n) const
    {
        return pages_[(n - 1) / pageRecs][(n - 1) % pageRecs];
    }

    FlatMap<Addr, std::uint64_t> &
    seenBy(ProcId p)
    {
        if (p >= lastSeen_.size())
            lastSeen_.resize(std::size_t{p} + 1);
        return lastSeen_[p];
    }

    /** Version of block a that v is; panics if v was never written
     *  there.  Range-checks the nonce before touching any page. */
    std::uint64_t
    versionOf(Addr a, Value v) const
    {
        if (v == initialValue(a))
            return 0;
        const std::uint64_t n = nonceOf(v);
        if (issued(n)) {
            const Rec &r = rec(n);
            if (r.seq != 0 && r.block == a)
                return r.seq;
        }
        if (!newest_.contains(a))
            DIR2B_PANIC("read of block ", a, " returned ", v,
                        " which was never written (initial is ",
                        initialValue(a), ")");
        DIR2B_PANIC("read of block ", a, " returned ", v,
                    " which was never written to it");
    }

    /** Per-nonce records, pageRecs per page; nonce n is record n-1. */
    std::vector<std::unique_ptr<Rec[]>> pages_;
    /** Newest version per written block. */
    FlatMap<Addr, std::uint64_t> newest_;
    /** Per processor: the newest version of each block it observed. */
    std::vector<FlatMap<Addr, std::uint64_t>> lastSeen_;
    std::uint64_t nonce_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace dir2b

#endif // DIR2B_TIMED_TIMED_ORACLE_HH
