#include "check/invariants.hh"

#include <sstream>

#include "proto/table_engine.hh"

namespace dir2b
{
namespace
{

std::optional<Violation>
violation(const std::string &kind, const std::string &detail)
{
    return Violation{kind, detail};
}

/** Per-block census of cached copies. */
struct Copies
{
    std::size_t holders = 0;
    std::size_t modified = 0;
};

Copies
census(const Protocol &proto, Addr a)
{
    Copies c;
    for (ProcId p = 0; p < proto.numProcs(); ++p) {
        const CacheLine *l = proto.cache(p).peek(a);
        if (!l || !l->valid())
            continue;
        ++c.holders;
        if (l->dirty())
            ++c.modified;
    }
    return c;
}

} // namespace

std::optional<Violation>
checkProtocolState(const Protocol &proto, const CoherenceOracle &oracle,
                   const std::vector<Addr> &blocks)
{
    const auto *tab = dynamic_cast<const TableProtocol *>(&proto);

    for (const Addr a : blocks) {
        const Value want = oracle.expected(a);
        const Copies c = census(proto, a);

        if (c.modified > 1) {
            std::ostringstream os;
            os << "block " << a << " is modified in " << c.modified
               << " caches";
            return violation("multi-modified", os.str());
        }

        for (ProcId p = 0; p < proto.numProcs(); ++p) {
            const CacheLine *l = proto.cache(p).peek(a);
            if (!l || !l->valid() || l->value == want)
                continue;
            std::ostringstream os;
            os << "cache " << p << " holds " << toString(l->state)
               << " copy of block " << a << " with value " << l->value
               << " but the most recently written value is " << want;
            return violation("stale-copy", os.str());
        }

        if (c.modified == 0 && proto.memValue(a) != want) {
            std::ostringstream os;
            os << "no modified copy of block " << a
               << " exists but memory holds " << proto.memValue(a)
               << " instead of " << want;
            return violation("stale-memory", os.str());
        }

        if (tab) {
            const std::string why =
                tab->constraintViolation(a, c.holders, c.modified);
            if (!why.empty())
                return violation("map-mismatch", why);
        }
    }
    return std::nullopt;
}

bool
broadcastDeltaApplies(const Protocol &proto)
{
    // two_bit and two_bit_table run the same table, and the ablation
    // differs only in never reaching Present1.
    return (proto.name() == "two_bit" ||
            proto.name() == "two_bit_nop1" ||
            proto.name() == "two_bit_table") &&
           !proto.config().snoopFilter;
}

PreAccess
snapshotPreAccess(const Protocol &proto, const MemRef &ref)
{
    PreAccess pre;
    if (broadcastDeltaApplies(proto))
        // The two-bit tables' state indices are the GlobalState values.
        pre.global = static_cast<GlobalState>(
            dynamic_cast<const TableProtocol &>(proto)
                .dirStateOf(ref.addr));
    const CacheLine *l = proto.cache(ref.proc).peek(ref.addr);
    pre.hit = l && l->valid();
    pre.dirtyHit = pre.hit && l->dirty();
    const Copies c = census(proto, ref.addr);
    pre.otherHolders = c.holders - (pre.hit ? 1 : 0);
    return pre;
}

std::optional<Violation>
checkBroadcastDelta(const Protocol &proto, const PreAccess &pre,
                    const MemRef &ref, const AccessCounts &delta)
{
    const std::size_t n = proto.numProcs();
    std::uint64_t wantCmds = 0;
    std::uint64_t wantUseless = 0;
    const char *situation = "no broadcast";

    if (!ref.write) {
        if (!pre.hit && pre.global == GlobalState::PresentM) {
            // T_RM: BROADQUERY(read) reaches n-1 caches; only the
            // owner's check is useful.
            wantCmds = n - 1;
            wantUseless = n - 2;
            situation = "read miss on PresentM (T_RM)";
        }
    } else if (pre.hit && !pre.dirtyHit) {
        if (pre.global == GlobalState::PresentStar) {
            // T_WH: BROADINV reaches n-1 caches; the checks at actual
            // holders are useful.
            wantCmds = n - 1;
            wantUseless = (n - 1) - pre.otherHolders;
            situation = "clean write hit on Present* (T_WH)";
        }
        // Present1: MGRANTED with no broadcast (§3.2.4 case 1).
    } else if (!pre.hit) {
        if (pre.global == GlobalState::PresentM) {
            wantCmds = n - 1;
            wantUseless = n - 2;
            situation = "write miss on PresentM (T_WM)";
        } else if (isPresentClean(pre.global)) {
            wantCmds = n - 1;
            wantUseless = (n - 1) - pre.otherHolders;
            situation = "write miss on clean-present (T_WM)";
        }
    }

    if (delta.broadcastCmds != wantCmds ||
        delta.uselessCmds != wantUseless) {
        std::ostringstream os;
        os << toString(ref) << " [" << situation << ", prior state "
           << toString(pre.global) << ", " << pre.otherHolders
           << " other holder(s)]: expected " << wantCmds
           << " broadcast deliveries / " << wantUseless
           << " useless, measured " << delta.broadcastCmds << " / "
           << delta.uselessCmds;
        return violation("count-mismatch", os.str());
    }
    return std::nullopt;
}

} // namespace dir2b
