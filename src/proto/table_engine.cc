#include "proto/table_engine.hh"

#include <sstream>
#include <unordered_map>

#include "util/logging.hh"

namespace dir2b
{

std::string
toString(EventClass e)
{
    switch (e) {
      case EventClass::ReadHit:
        return "ReadHit";
      case EventClass::WriteHitDirty:
        return "WriteHitDirty";
      case EventClass::WriteHitClean:
        return "WriteHitClean";
      case EventClass::ReadMiss:
        return "ReadMiss";
      case EventClass::WriteMiss:
        return "WriteMiss";
      case EventClass::EvictClean:
        return "EvictClean";
      case EventClass::EvictDirty:
        return "EvictDirty";
    }
    return "event#" + std::to_string(static_cast<unsigned>(e));
}

std::string
toString(TableGuard g)
{
    switch (g) {
      case TableGuard::Always:
        return "Always";
      case TableGuard::OtherHoldersNone:
        return "OtherHoldersNone";
      case TableGuard::OtherHoldersSome:
        return "OtherHoldersSome";
      case TableGuard::OtherHoldersOne:
        return "OtherHoldersOne";
      case TableGuard::OwnerDirty:
        return "OwnerDirty";
      case TableGuard::OwnerClean:
        return "OwnerClean";
    }
    return "guard#" + std::to_string(static_cast<unsigned>(g));
}

std::string
toString(ActionOp op)
{
    switch (op) {
      case ActionOp::Bump:
        return "Bump";
      case ActionOp::ReadMem:
        return "ReadMem";
      case ActionOp::WritebackLine:
        return "WritebackLine";
      case ActionOp::WriteThrough:
        return "WriteThrough";
      case ActionOp::FillLine:
        return "FillLine";
      case ActionOp::SetLine:
        return "SetLine";
      case ActionOp::WriteLine:
        return "WriteLine";
      case ActionOp::DropLine:
        return "DropLine";
      case ActionOp::SetDirState:
        return "SetDirState";
      case ActionOp::SendBroadInv:
        return "SendBroadInv";
      case ActionOp::SendBroadQueryRead:
        return "SendBroadQueryRead";
      case ActionOp::SendBroadQueryWrite:
        return "SendBroadQueryWrite";
      case ActionOp::SendInvHolders:
        return "SendInvHolders";
      case ActionOp::SendShareHolders:
        return "SendShareHolders";
      case ActionOp::SendPurgeRead:
        return "SendPurgeRead";
      case ActionOp::SendPurgeWrite:
        return "SendPurgeWrite";
      case ActionOp::SendDowngradeOwner:
        return "SendDowngradeOwner";
      case ActionOp::SendFetchInvOwner:
        return "SendFetchInvOwner";
    }
    return "op#" + std::to_string(static_cast<unsigned>(op));
}

namespace
{

std::string
stateName(const TransitionTable &t, std::uint8_t s)
{
    if (s == anyState)
        return "*";
    if (s < t.stateNames.size())
        return t.stateNames[s];
    return "#" + std::to_string(static_cast<unsigned>(s));
}

/** Highest LineState value (cache_types.hh). */
constexpr auto maxLineState =
    static_cast<std::uint8_t>(LineState::Owned);

bool
fillsLine(const TableRow &r)
{
    for (const TableAction &a : r.actions)
        if (a.op == ActionOp::FillLine)
            return true;
    return false;
}

} // namespace

std::string
describeRow(const TransitionTable &t, std::size_t i)
{
    if (i >= t.rows.size())
        return "row " + std::to_string(i) + " (out of range)";
    const TableRow &r = t.rows[i];
    std::ostringstream os;
    os << "(" << stateName(t, r.state) << ", " << toString(r.event)
       << ", " << toString(r.guard) << ") -> " << stateName(t, r.next);
    return os.str();
}

bool
TransitionTable::handlesEvict() const
{
    for (const TableRow &r : rows) {
        if (r.event == EventClass::EvictClean ||
            r.event == EventClass::EvictDirty)
            return true;
    }
    return false;
}

std::vector<std::string>
TransitionTable::validate() const
{
    std::vector<std::string> msgs;
    auto rowMsg = [&](std::size_t i, const std::string &what) {
        msgs.push_back("row " + std::to_string(i) + " " +
                       describeRow(*this, i) + ": " + what);
    };

    if (stateNames.empty() || stateNames.size() > 4) {
        msgs.push_back("table '" + name + "': " +
                       std::to_string(stateNames.size()) +
                       " states (a two-bit map holds 1..4)");
    }
    if (constraints.size() != stateNames.size()) {
        msgs.push_back("table '" + name + "': " +
                       std::to_string(constraints.size()) +
                       " state constraints for " +
                       std::to_string(stateNames.size()) + " states");
    }
    const auto nStates = static_cast<std::uint8_t>(stateNames.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const TableRow &r = rows[i];
        if (static_cast<unsigned>(r.event) >= numEventClasses)
            rowMsg(i, "unknown event class " +
                          std::to_string(static_cast<unsigned>(r.event)));
        if (r.guard > TableGuard::OwnerClean)
            rowMsg(i, "unknown guard " +
                          std::to_string(static_cast<unsigned>(r.guard)));
        const bool any = r.state == anyState;
        if (r.state >= nStates && !any)
            rowMsg(i, "undefined state " +
                          std::to_string(static_cast<unsigned>(r.state)));
        if (r.next >= nStates && !(any && r.next == anyState))
            rowMsg(i, "undefined next-state " +
                          std::to_string(static_cast<unsigned>(r.next)));

        for (std::size_t j = 0; j < i; ++j) {
            const TableRow &p = rows[j];
            if (p.event != r.event)
                continue;
            if ((p.state == anyState) != any) {
                rowMsg(i, "mixes any-state and per-state rows for " +
                              toString(r.event) + " (row " +
                              std::to_string(j) + ")");
                break;
            }
            // A miss evicts a victim only when its rows fill a line,
            // so the rows of one event must all fill or all not.
            if (fillsLine(p) != fillsLine(r)) {
                rowMsg(i, "disagrees with row " + std::to_string(j) +
                              " on whether " + toString(r.event) +
                              " fills a line");
                break;
            }
            if (p.state != r.state)
                continue;
            if (p.guard == r.guard) {
                rowMsg(i, "duplicate of row " + std::to_string(j));
                break;
            }
            if (p.guard == TableGuard::Always) {
                rowMsg(i, "unreachable: row " + std::to_string(j) +
                              " matches Always first");
                break;
            }
        }

        bool sawSetDir = false;
        std::uint8_t lastSetDir = 0;
        for (std::size_t j = 0; j < r.actions.size(); ++j) {
            const TableAction &a = r.actions[j];
            const std::string where =
                "action " + std::to_string(j) + " (" +
                toString(a.op) + ")";
            if (static_cast<unsigned>(a.op) >= numActionOps) {
                rowMsg(i, where + ": not in the action vocabulary");
                continue;
            }
            switch (a.op) {
              case ActionOp::Bump:
                if (a.arg >= numTableCounters)
                    rowMsg(i, where + ": unknown counter " +
                                  std::to_string(a.arg));
                break;
              case ActionOp::FillLine:
                if (a.arg > maxLineState)
                    rowMsg(i, where + ": unknown line state " +
                                  std::to_string(a.arg));
                else if (a.arg ==
                         static_cast<std::uint8_t>(LineState::Invalid))
                    rowMsg(i, where + ": FillLine(Invalid) — use "
                                      "DropLine to remove a copy");
                break;
              case ActionOp::SetLine:
                if (a.arg > maxLineState)
                    rowMsg(i, where + ": unknown line state " +
                                  std::to_string(a.arg));
                break;
              case ActionOp::SetDirState:
                if (any) {
                    rowMsg(i, where + ": an any-state row cannot "
                                      "write the directory");
                } else if (a.arg >= nStates) {
                    rowMsg(i, where + ": undefined target state " +
                                  std::to_string(a.arg));
                } else {
                    sawSetDir = true;
                    lastSetDir = a.arg;
                }
                break;
              default:
                break;
            }
        }

        // The declared next state must be the one the actions leave in
        // the directory: tables stay honest about their own effects.
        if (sawSetDir) {
            if (lastSetDir != r.next && r.next < nStates)
                rowMsg(i, "declares next state '" +
                              stateName(*this, r.next) +
                              "' but the last SetDirState writes '" +
                              stateName(*this, lastSetDir) + "'");
        } else if (r.next != r.state) {
            rowMsg(i, "changes state without a SetDirState action");
        }
    }
    return msgs;
}

CompiledTable::CompiledTable(TransitionTable table)
    : TransitionTable(std::move(table))
{
    const auto problems = validate();
    if (!problems.empty()) {
        std::ostringstream os;
        for (const std::string &m : problems)
            os << "\n  " << m;
        DIR2B_FATAL("transition table '", name, "' is invalid:",
                    os.str());
    }

    // Dense (state x event-class) index: each slot lists its candidate
    // rows in declaration order, so findRow() evaluates guards over
    // exactly the rows a linear scan would reach.  Any-state events
    // keep their rows in the state-0 slot.
    slots_.assign(stateNames.size() * numEventClasses, {});
    auto slotOf = [&](const TableRow &r) -> Slot & {
        const auto e = static_cast<std::size_t>(r.event);
        const bool any = r.state == anyState;
        anyState_[e] = any;
        return slots_[(any ? 0 : std::size_t{r.state}) *
                          numEventClasses + e];
    };
    for (const TableRow &r : rows) {
        ++slotOf(r).len;
        if (fillsLine(r))
            evicts_[static_cast<std::size_t>(r.event)] =
                r.event == EventClass::ReadMiss ||
                r.event == EventClass::WriteMiss;
    }
    std::uint32_t off = 0;
    for (Slot &slot : slots_) {
        slot.off = off;
        off += slot.len;
        slot.len = 0;
    }
    slotRows_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Slot &slot = slotOf(rows[i]);
        slotRows_[slot.off + slot.len++] = static_cast<std::uint16_t>(i);
    }
    for (std::size_t e = 0; e < numEventClasses; ++e) {
        const Slot &slot = slots_[e];
        if (anyState_[e] && slot.len > 0 &&
            rows[slotRows_[slot.off]].guard == TableGuard::Always) {
            const std::uint16_t id = slotRows_[slot.off];
            direct_[e] = {id, rows[id].actions.empty()};
        }
    }
}

TableProtocol::TableProtocol(const CompiledTable &table,
                             const ProtoConfig &cfg,
                             const std::string &name)
    : Protocol(name.empty() ? table.name : name, cfg),
      table_(&table),
      dirs_(makeTwoBitDirectories(cfg.numModules, cfg.dirRamBudget)),
      rowHits_(table.rows.size(), 0)
{
    if (cfg.snoopFilter)
        snoops_.resize(cfg.numProcs);
}

TableProtocol::TableProtocol(const TransitionTable &table,
                             const ProtoConfig &cfg)
    : Protocol(table.name, cfg),
      owned_(std::make_unique<const CompiledTable>(table)),
      table_(owned_.get()),
      dirs_(makeTwoBitDirectories(cfg.numModules, cfg.dirRamBudget)),
      rowHits_(table.rows.size(), 0)
{
    if (cfg.snoopFilter)
        snoops_.resize(cfg.numProcs);
}

DirStoreCounters
TableProtocol::dirStoreCounters() const
{
    DirStoreCounters c;
    for (const TwoBitDirectory &d : dirs_)
        c.add(d);
    return c;
}

std::size_t
TableProtocol::otherHolders(Addr a, ProcId k) const
{
    std::size_t n = 0;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        if (p == k)
            continue;
        const CacheLine *l = caches_[p].peek(a);
        if (l && l->valid())
            ++n;
    }
    return n;
}

ProcId
TableProtocol::remoteOwner(Addr a, ProcId k) const
{
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        if (p == k)
            continue;
        const CacheLine *l = caches_[p].peek(a);
        if (l && l->valid() && l->state != LineState::Shared)
            return p;
    }
    return invalidProc;
}

bool
TableProtocol::guardHolds(TableGuard g, Addr a, ProcId k) const
{
    switch (g) {
      case TableGuard::Always:
        return true;
      case TableGuard::OtherHoldersNone:
        return otherHolders(a, k) == 0;
      case TableGuard::OtherHoldersSome:
        return otherHolders(a, k) > 0;
      case TableGuard::OtherHoldersOne:
        return otherHolders(a, k) == 1;
      case TableGuard::OwnerDirty:
      case TableGuard::OwnerClean: {
        const ProcId p = remoteOwner(a, k);
        if (p == invalidProc)
            return false;
        const bool dirty = caches_[p].peek(a)->dirty();
        return g == TableGuard::OwnerDirty ? dirty : !dirty;
      }
    }
    return false;
}

const TableRow *
TableProtocol::findRow(std::uint8_t state, EventClass ev, Addr a,
                       ProcId k) const
{
    const auto [first, last] = table_->candidates(state, ev);
    for (const std::uint16_t *i = first; i != last; ++i) {
        const TableRow &r = table_->rows[*i];
        if (guardHolds(r.guard, a, k))
            return &r;
    }
    return nullptr;
}

CacheLine &
TableProtocol::fillLine(ProcId k, Addr a, LineState st, Value v)
{
    CacheLine &l = caches_[k].fill(a, st, v);
    if (!snoops_.empty())
        snoops_[k].insert(a);
    onCacheChange(k);
    return l;
}

bool
TableProtocol::dropLine(ProcId p, Addr a)
{
    const bool had = caches_[p].invalidate(a);
    if (had) {
        if (!snoops_.empty())
            snoops_[p].erase(a);
        onCacheChange(p);
    }
    return had;
}

bool
TableProtocol::snoopSteals(ProcId i, Addr a)
{
    if (snoops_.empty())
        return true;
    return snoops_[i].check(a);
}

void
TableProtocol::sendRemoteInvalidate(Addr a, ProcId except)
{
    ++counts_.broadcasts;
    for (ProcId i = 0; i < cfg_.numProcs; ++i) {
        if (i == except)
            continue;
        ++counts_.broadcastCmds;
        ++counts_.netMessages;
        CacheLine *l = caches_[i].lookup(a, false);
        deliverCmd(i, l != nullptr, snoopSteals(i, a));
        if (l) {
            DIR2B_ASSERT(!l->dirty(), "BROADINV found a dirty copy of ",
                         a, " in cache ", i,
                         " while the directory said clean");
            dropLine(i, a);
            ++counts_.invalidations;
        }
    }
}

Value
TableProtocol::sendRemoteQuery(Addr a, ProcId requester, RW rw)
{
    ++counts_.broadcasts;
    bool found = false;
    Value data = 0;
    for (ProcId i = 0; i < cfg_.numProcs; ++i) {
        if (i == requester)
            continue;
        ++counts_.broadcastCmds;
        ++counts_.netMessages;
        CacheLine *l = caches_[i].lookup(a, false);
        const bool owner = l && l->dirty();
        deliverCmd(i, owner, snoopSteals(i, a));
        if (!owner)
            continue;
        DIR2B_ASSERT(!found, "two owners of modified block ", a);
        found = true;
        data = l->value;
        ++counts_.purges;
        // put(b_i, a) back to the controller, which writes memory back
        // (§3.2.2 case 3 and §3.2.3 case 3).
        ++counts_.dataTransfers;
        ++counts_.netMessages;
        mem_.write(a, data);
        ++counts_.memWrites;
        ++counts_.writebacks;
        if (rw == RW::Read) {
            // The owner resets its modified bit, keeps a clean copy.
            l->state = LineState::Shared;
            onCacheChange(i);
        } else {
            dropLine(i, a);
            ++counts_.invalidations;
        }
    }
    DIR2B_ASSERT(found, "BROADQUERY(", a,
                 ") found no owner: directory/cache disagreement");
    return data;
}

namespace
{

/** The AccessCounts field each TableCounter bumps. */
constexpr std::uint64_t AccessCounts::*bumpField[numTableCounters] = {
    &AccessCounts::requests,      &AccessCounts::mrequests,
    &AccessCounts::ejects,        &AccessCounts::netMessages,
    &AccessCounts::dataTransfers, &AccessCounts::invalidations,
    &AccessCounts::purges,
};

} // namespace

void
TableProtocol::evictLine(ProcId k, CacheLine &victim)
{
    const Addr olda = victim.addr;
    const EventClass ev = victim.dirty() ? EventClass::EvictDirty
                                         : EventClass::EvictClean;
    dispatch(k, olda, false, 0, ev, &victim);
}

Value
TableProtocol::doAccess(ProcId k, Addr a, bool write, Value wval)
{
    // Reference classification is the interpreter's, not the table's:
    // every scheme counts hits and misses the same way.
    CacheLine *line = caches_[k].lookup(a, true);
    EventClass ev;
    if (line) {
        if (!write) {
            ev = EventClass::ReadHit;
            ++counts_.readHits;
        } else {
            ++counts_.writeHits;
            ev = EventClass::WriteHitDirty;
            if (!line->dirty()) {
                ev = EventClass::WriteHitClean;
                ++counts_.writeHitsClean;
            }
        }
    } else if (write) {
        ev = EventClass::WriteMiss;
        ++counts_.writeMisses;
    } else {
        ev = EventClass::ReadMiss;
        ++counts_.readMisses;
    }
    // Hits: no directory read, no guard, straight to the actions.
    if (const auto d = table_->directRow(ev); d.id >= 0) {
        const auto id = static_cast<std::size_t>(d.id);
        ++rowHits_[id];
        if (d.actionless && line)
            return write ? wval : line->value;
        return execute(table_->rows[id], k, a, write, wval, ev, line);
    }
    return dispatch(k, a, write, wval, ev, line);
}

Value
TableProtocol::dispatch(ProcId k, Addr a, bool write, Value wval,
                        EventClass ev, CacheLine *line)
{
    // Replacement precedes the miss transaction (§3.2.1): the victim
    // runs through the same eviction rows flushCache uses.  A miss
    // whose rows fill no line (no write-allocate) evicts nothing.
    if (table_->evictsVictim(ev)) {
        CacheLine &victim = caches_[k].victimFor(a);
        if (victim.valid())
            evictLine(k, victim);
    }

    // Any-state rows (hits) answer without reading the directory.
    const bool readsDir = !table_->anyStateEvent(ev);
    const std::uint8_t state = readsDir ? dirStateOf(a) : anyState;
    const TableRow *row = findRow(state, ev, a, k);
    if (!row) {
        DIR2B_FATAL("table '", table_->name, "' has no row for (",
                    stateName(*table_, state), ", ", toString(ev),
                    ") at block ", a, " from cache ", k,
                    ": directory/cache disagreement or incomplete "
                    "table");
    }
    ++rowHits_[static_cast<std::size_t>(row - table_->rows.data())];
    const Value result = execute(*row, k, a, write, wval, ev, line);
    if (readsDir)
        noteRow(k, a, ev, state, row->next);
    return result;
}

Value
TableProtocol::execute(const TableRow &row, ProcId k, Addr a, bool write,
                       Value wval, EventClass ev, CacheLine *line)
{
    // `line` becomes the filled line after FillLine; `data` is the
    // block in flight (ReadMem / owner supplies).
    Value data = 0;
    for (const TableAction &act : row.actions) {
        switch (act.op) {
          case ActionOp::Bump:
            ++(counts_.*bumpField[act.arg]);
            break;

          case ActionOp::ReadMem:
            data = mem_.read(a);
            ++counts_.memReads;
            break;

          case ActionOp::WritebackLine:
            DIR2B_ASSERT(line, "WritebackLine with no line");
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(a, line->value);
            ++counts_.memWrites;
            ++counts_.writebacks;
            break;

          case ActionOp::WriteThrough:
            mem_.write(a, wval);
            ++counts_.memWrites;
            ++counts_.wordWrites;
            ++counts_.netMessages;
            break;

          case ActionOp::FillLine:
            line = &fillLine(k, a, static_cast<LineState>(act.arg),
                                 write ? wval : data);
            break;

          case ActionOp::SetLine:
            DIR2B_ASSERT(line, "SetLine with no line");
            line->state = static_cast<LineState>(act.arg);
            onCacheChange(k);
            break;

          case ActionOp::WriteLine:
            DIR2B_ASSERT(line, "WriteLine with no line");
            line->value = wval;
            break;

          case ActionOp::DropLine:
            dropLine(k, a);
            line = nullptr;
            break;

          case ActionOp::SetDirState:
            dirFor(a).set(a, static_cast<GlobalState>(act.arg));
            ++counts_.setstates;
            break;

          case ActionOp::SendBroadInv:
            sendRemoteInvalidate(a, k);
            break;

          case ActionOp::SendBroadQueryRead:
            data = sendRemoteQuery(a, k, RW::Read);
            break;

          case ActionOp::SendBroadQueryWrite:
            data = sendRemoteQuery(a, k, RW::Write);
            break;

          case ActionOp::SendInvHolders:
          case ActionOp::SendShareHolders: {
            for (ProcId p = 0; p < cfg_.numProcs; ++p) {
                if (p == k)
                    continue;
                CacheLine *l = caches_[p].lookup(a, false);
                if (!l || l->dirty())
                    continue;
                ++counts_.directedCmds;
                ++counts_.netMessages;
                deliverCmd(p, true);
                if (act.op == ActionOp::SendShareHolders) {
                    l->state = LineState::Shared;
                    onCacheChange(p);
                } else {
                    dropLine(p, a);
                    ++counts_.invalidations;
                }
            }
            break;
          }

          case ActionOp::SendPurgeRead:
          case ActionOp::SendPurgeWrite: {
            const ProcId owner = remoteOwner(a, k);
            DIR2B_ASSERT(owner != invalidProc, "PURGE(", a,
                         ") found no owner");
            CacheLine *l = caches_[owner].lookup(a, false);
            DIR2B_ASSERT(l && l->dirty(), "owner of ", a,
                         " has no dirty copy");
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            ++counts_.purges;
            data = l->value;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            mem_.write(a, data);
            ++counts_.memWrites;
            ++counts_.writebacks;
            if (act.op == ActionOp::SendPurgeRead) {
                l->state = LineState::Shared;
                onCacheChange(owner);
            } else {
                dropLine(owner, a);
                ++counts_.invalidations;
            }
            break;
          }

          case ActionOp::SendDowngradeOwner: {
            const ProcId owner = remoteOwner(a, k);
            DIR2B_ASSERT(owner != invalidProc, "downgrade of ", a,
                         " found no owner");
            CacheLine *l = caches_[owner].lookup(a, false);
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            data = l->value;
            // Cache-to-cache supply: no write-back, memory stays as
            // it is — the point of the Owned state.
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            l->state = l->dirty() ? LineState::Owned
                                  : LineState::Shared;
            onCacheChange(owner);
            break;
          }

          case ActionOp::SendFetchInvOwner: {
            const ProcId owner = remoteOwner(a, k);
            DIR2B_ASSERT(owner != invalidProc, "fetch-inv of ", a,
                         " found no owner");
            CacheLine *l = caches_[owner].lookup(a, false);
            ++counts_.directedCmds;
            ++counts_.netMessages;
            deliverCmd(owner, true);
            ++counts_.purges;
            data = l->value;
            ++counts_.cacheTransfers;
            ++counts_.dataTransfers;
            ++counts_.netMessages;
            dropLine(owner, a);
            ++counts_.invalidations;
            break;
          }
        }
    }

    if (write)
        return wval;
    if (ev == EventClass::ReadHit) {
        DIR2B_ASSERT(line, "read hit lost its line");
        return line->value;
    }
    return data;
}

void
TableProtocol::flushCache(ProcId p)
{
    DIR2B_ASSERT(table_->handlesEvict(), "table '", table_->name,
                 "' has no eviction rows: flush unsupported");
    // Collect first: eviction mutates the array under iteration.
    std::vector<CacheLine> lines;
    caches_[p].forEachValid(
        [&](const CacheLine &l) { lines.push_back(l); });
    for (CacheLine &l : lines)
        evictLine(p, l);
}

std::string
TableProtocol::constraintViolation(Addr a, std::size_t holders,
                                   std::size_t modified) const
{
    const std::uint8_t st = dirStateOf(a);
    std::ostringstream os;
    if (st >= table_->stateNames.size()) {
        os << "block " << a << " has directory state " << unsigned{st}
           << " outside table '" << table_->name << "'";
    } else if (const StateConstraint &c = table_->constraints[st];
               holders < c.minHolders || holders > c.maxHolders ||
               modified < c.minModified || modified > c.maxModified) {
        os << "block " << a << " is " << table_->stateNames[st]
           << " but has " << holders << " holder(s), " << modified
           << " modified";
    }
    return os.str();
}

void
TableProtocol::checkInvariants() const
{
    // Census every cached block, then check the per-state bounds the
    // table declares and value coherence: every copy holds the same
    // value, which is memory's when no copy is modified.  An E or M
    // copy must be the only one.  This is the generic form of the
    // hand-written schemes' cross-checks.
    struct Census
    {
        std::size_t holders = 0;
        std::size_t modified = 0;
        std::size_t sole = 0;
        Value value = 0;
        bool agree = true;
    };
    std::unordered_map<Addr, Census> seen;
    for (ProcId p = 0; p < cfg_.numProcs; ++p) {
        caches_[p].forEachValid([&](const CacheLine &l) {
            Census &c = seen[l.addr];
            c.agree = c.agree && (c.holders == 0 || l.value == c.value);
            c.value = l.value;
            ++c.holders;
            if (l.dirty())
                ++c.modified;
            if (l.state == LineState::Exclusive ||
                l.state == LineState::Modified)
                ++c.sole;
        });
    }
    for (const auto &[a, c] : seen) {
        const std::string why = constraintViolation(a, c.holders,
                                                    c.modified);
        DIR2B_ASSERT(why.empty(), why);
        DIR2B_ASSERT(c.agree && (c.modified || c.value == mem_.peek(a)),
                     "block ", a, " has a stale copy");
        DIR2B_ASSERT(c.sole == 0 || c.holders == 1, "block ", a,
                     " has an exclusive copy and ", c.holders - 1,
                     " other(s)");
    }
}

} // namespace dir2b
