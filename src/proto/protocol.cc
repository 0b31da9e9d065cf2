#include "proto/protocol.hh"

#include "util/logging.hh"

namespace dir2b
{

Protocol::Protocol(std::string name, const ProtoConfig &cfg)
    : cfg_(cfg),
      addrMap_(cfg.numModules),
      name_(std::move(name)),
      recvCmds_(cfg.numProcs, 0),
      recvUseless_(cfg.numProcs, 0),
      refsBy_(cfg.numProcs, 0)
{
    if (cfg_.numProcs < 1)
        DIR2B_FATAL("protocol '", name_, "' needs at least one processor");
    caches_.reserve(cfg_.numProcs);
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        CacheGeometry g = cfg_.cacheGeom;
        g.seed = g.seed * 0x9e3779b9ULL + p + 1;
        caches_.emplace_back(g);
    }
}

Value
Protocol::access(ProcId k, Addr a, bool write, Value wval)
{
    DIR2B_ASSERT(k < cfg_.numProcs, "access from unknown processor ", k);
    before_ = counts_;
    if (write)
        ++counts_.writes;
    else
        ++counts_.reads;
    ++refsBy_[k];

    return doAccess(k, a, write, wval);
}

void
Protocol::deliverCmd(ProcId p, bool useful, bool stealsCycle)
{
    if (stealsCycle)
        ++counts_.stolenCycles;
    else
        ++counts_.filteredCmds;
    ++recvCmds_[p];
    if (!useful) {
        ++counts_.uselessCmds;
        ++recvUseless_[p];
    }
}

void
Protocol::flushCache(ProcId)
{
    DIR2B_FATAL("protocol '", name_, "' does not implement flushCache");
}

std::vector<ProcId>
Protocol::holders(Addr a) const
{
    std::vector<ProcId> out;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        if (caches_[p].peek(a))
            out.push_back(p);
    }
    return out;
}

} // namespace dir2b
