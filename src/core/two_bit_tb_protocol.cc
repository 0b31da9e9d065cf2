#include "core/two_bit_tb_protocol.hh"

#include <algorithm>

#include "proto/table_defs.hh"
#include "util/logging.hh"

namespace dir2b
{

TwoBitTbProtocol::TwoBitTbProtocol(const ProtoConfig &cfg)
    : TableProtocol(twoBitTable(), cfg, "two_bit_tb")
{
    tbs_.reserve(cfg.numModules);
    for (ModuleId m = 0; m < cfg.numModules; ++m)
        tbs_.emplace_back(cfg.tbCapacity);
}

double
TwoBitTbProtocol::tbHitRatio() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const auto &tb : tbs_) {
        hits += tb.hits();
        total += tb.hits() + tb.misses();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

void
TwoBitTbProtocol::sendRemoteInvalidate(Addr a, ProcId except)
{
    auto holders = tbFor(a).lookup(a);
    if (!holders) {
        ++counts_.tbMisses;
        TableProtocol::sendRemoteInvalidate(a, except);
        // The broadcast left exactly the requester holding the block
        // (or nobody, on a write miss): the set is exact again.
        std::vector<ProcId> fresh;
        if (caches_[except].peek(a))
            fresh.push_back(except);
        tbFor(a).installExact(a, std::move(fresh));
        return;
    }

    // Selective message handling, "just as with the n+1 bit approach".
    ++counts_.tbHits;
    for (ProcId p : *holders) {
        if (p == except)
            continue;
        ++counts_.directedCmds;
        ++counts_.netMessages;
        deliverCmd(p, true);
        const bool had = dropLine(p, a);
        DIR2B_ASSERT(had, "translation buffer listed cache ", p,
                     " for block ", a, " but it holds no copy");
        ++counts_.invalidations;
    }
    std::vector<ProcId> fresh;
    if (std::find(holders->begin(), holders->end(), except) !=
        holders->end()) {
        fresh.push_back(except);
    }
    tbFor(a).installExact(a, std::move(fresh));
}

Value
TwoBitTbProtocol::sendRemoteQuery(Addr a, ProcId requester, RW rw)
{
    auto holders = tbFor(a).lookup(a);
    if (!holders) {
        ++counts_.tbMisses;
        const Value v =
            TableProtocol::sendRemoteQuery(a, requester, rw);
        // After the query the holder set is exact: the old owner kept
        // a clean copy on a read query, or vanished on a write query.
        std::vector<ProcId> fresh;
        for (ProcId p = 0; p < cfg_.numProcs; ++p) {
            if (p != requester && caches_[p].peek(a))
                fresh.push_back(p);
        }
        tbFor(a).installExact(a, std::move(fresh));
        return v;
    }

    ++counts_.tbHits;
    DIR2B_ASSERT(holders->size() == 1,
                 "PresentM block ", a, " has a TB entry with ",
                 holders->size(), " holders");
    const ProcId owner = holders->front();
    CacheLine *l = caches_[owner].lookup(a, false);
    DIR2B_ASSERT(l && l->dirty(), "TB owner of ", a,
                 " has no dirty copy");

    // Directed PURGE(a, owner, rw).
    ++counts_.directedCmds;
    ++counts_.netMessages;
    deliverCmd(owner, true);
    ++counts_.purges;

    const Value data = l->value;
    ++counts_.dataTransfers;
    ++counts_.netMessages;
    mem_.write(a, data);
    ++counts_.memWrites;
    ++counts_.writebacks;

    std::vector<ProcId> fresh;
    if (rw == RW::Read) {
        l->state = LineState::Shared;
        fresh.push_back(owner);
    } else {
        dropLine(owner, a);
        ++counts_.invalidations;
    }
    tbFor(a).installExact(a, std::move(fresh));
    return data;
}

void
TwoBitTbProtocol::noteRow(ProcId k, Addr a, EventClass ev,
                          std::uint8_t before, std::uint8_t after)
{
    TranslationBuffer &tb = tbFor(a);
    const auto absent = static_cast<std::uint8_t>(GlobalState::Absent);
    switch (ev) {
      case EventClass::ReadMiss:
        if (before == absent) {
            // The holder set is unambiguous: exactly the requester.
            tb.installExact(a, {k});
        } else {
            // Keep a resident entry exact; a missing entry stays
            // unknown.
            tb.addHolder(a, k);
        }
        break;
      case EventClass::WriteMiss:
      case EventClass::WriteHitClean:
        // The requester is the sole holder after the grant.
        tb.installExact(a, {k});
        break;
      case EventClass::EvictClean:
      case EventClass::EvictDirty:
        if (after == absent)
            tb.drop(a);
        else
            tb.removeHolder(a, k);
        break;
      default:
        break;
    }
}

} // namespace dir2b
