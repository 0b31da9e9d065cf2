/**
 * @file
 * Table-driven coherence protocol interpreter.
 *
 * Protocols as data, not code.  A TransitionTable is a list of rows
 * (state, event class, guard) -> (ordered action list, next state)
 * over a fixed action vocabulary, in the style of BlackParrot's
 * BedRock microcode engine (arXiv:2211.06390) and the Guarded Action
 * Language coherence models (arXiv:1803.10323).  TableProtocol is the
 * only interpreter of the paper's two-bit scheme, write-back and
 * write-through, and of the full map with and without Yen-Fu's local
 * state: "two_bit", "two_bit_wt", "full_map" and "full_map_local" run
 * their tables, the exhaustive explorer enumerates the rows directly,
 * and the §4.2 command accounting comes from the shared action
 * implementations instead of per-scheme code.
 *
 * The table's state is the per-block directory state, stored in the
 * TwoBitDirectory tiered store (at most four states, the economy
 * constraint of the title); holder sets and owners are derived from
 * the cache arrays, which is the functional tier's model of whatever
 * presence bits the scheme would keep in hardware
 * (dirBitsFixed/dirBitsPerProc report the true cost).
 *
 * Hit rows may be declared for any state ("*"): such an event is
 * answered without reading the directory, as in the paper, where a
 * hit never consults the home controller.  A shipped table is
 * validated and compiled into its dispatch index once (CompiledTable,
 * in its static accessor); every TableProtocol borrows it.  Variants
 * of a scheme (translation buffer, duplicated directories) subclass
 * TableProtocol and override its command and observation hooks.  The
 * pinned functional digests (tests/test_table_golden.cc) freeze the
 * behaviour, counter for counter.
 */

#ifndef DIR2B_PROTO_TABLE_ENGINE_HH
#define DIR2B_PROTO_TABLE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/snoop_filter.hh"
#include "net/message.hh"
#include "proto/protocol.hh"

namespace dir2b
{

/** How the interpreter classifies one transaction (or sub-event). */
enum class EventClass : std::uint8_t
{
    ReadHit,        ///< LOAD, requester holds a valid copy
    WriteHitDirty,  ///< STORE, requester's copy is already modified
    WriteHitClean,  ///< STORE, requester's copy is clean (§3.2.4)
    ReadMiss,       ///< LOAD, no copy (§3.2.2)
    WriteMiss,      ///< STORE, no copy (§3.2.3)
    EvictClean,     ///< replacement/flush of a clean victim (§3.2.1)
    EvictDirty,     ///< replacement/flush of a modified victim
};

constexpr unsigned numEventClasses = 7;

/** Row guard, evaluated against the block the event addresses.
 *  Rows matching (state, event) are tried in declaration order; the
 *  first whose guard holds fires. */
enum class TableGuard : std::uint8_t
{
    /** Matches unconditionally. */
    Always,
    /** No cache other than the requester holds a valid copy. */
    OtherHoldersNone,
    /** At least one other cache holds a valid copy. */
    OtherHoldersSome,
    /** Exactly one other cache holds a valid copy. */
    OtherHoldersOne,
    /** The (unique) remote owner copy is dirty (M/O). */
    OwnerDirty,
    /** The remote owner copy is clean (Exclusive). */
    OwnerClean,
};

/** §4.2 counters a row may bump explicitly (Bump action argument).
 *  Compound actions (ReadMem, WritebackLine, the Send* family) bump
 *  their own counters internally, exactly as the hand-written
 *  protocols do. */
enum class TableCounter : std::uint8_t
{
    Requests,       ///< REQUEST commands issued
    MRequests,      ///< MREQUEST commands issued
    Ejects,         ///< EJECT notifications issued
    NetMessages,    ///< point-to-point deliveries
    DataTransfers,  ///< get/put block movements
    Invalidations,  ///< cache copies invalidated
    Purges,         ///< owner downgrades/flushes
};

constexpr unsigned numTableCounters = 7;

/** The fixed action vocabulary. */
enum class ActionOp : std::uint8_t
{
    /** Bump one §4.2 counter (arg = TableCounter). */
    Bump,
    /** data := memory[a]; counts a memory read. */
    ReadMem,
    /** Write the current line's (victim's) dirty data back to memory:
     *  put + memory write (dataTransfers, netMessages, memWrites,
     *  writebacks). */
    WritebackLine,
    /** Write the store value through to memory: one word write
     *  (memWrites, wordWrites, netMessages). */
    WriteThrough,
    /** Fill the requester's cache with the block (arg = LineState);
     *  data for loads, the store value for writes.  Counts nothing —
     *  precede with Bump(DataTransfers)/Bump(NetMessages) for the
     *  get(k,a). */
    FillLine,
    /** Rewrite the current line's local state (arg = LineState). */
    SetLine,
    /** line.value := the store value (the paper's st(a,b_k)). */
    WriteLine,
    /** Invalidate the current block in the requester's cache. */
    DropLine,
    /** SETSTATE(a, arg): update the 2-bit map entry and count it. */
    SetDirState,
    /** BROADINV(a, k): broadcast to the n-1 other caches, invalidate
     *  every (clean) copy found; useless deliveries counted. */
    SendBroadInv,
    /** BROADQUERY(a, "read"): the dirty owner puts the block, memory
     *  is written back, the owner keeps a clean Shared copy. */
    SendBroadQueryRead,
    /** BROADQUERY(a, "write"): as above but the owner invalidates. */
    SendBroadQueryWrite,
    /** Directed INVALIDATE(a, p) to every other cache holding a clean
     *  copy (ascending p); always useful. */
    SendInvHolders,
    /** As SendInvHolders, but each holder keeps (or drops to) a
     *  Shared copy instead of invalidating; memory supplies the data
     *  (follow with ReadMem). */
    SendShareHolders,
    /** Directed PURGE(a, owner, "read"): owner puts + write-back,
     *  keeps a clean Shared copy. */
    SendPurgeRead,
    /** Directed PURGE(a, owner, "write"): owner puts + write-back,
     *  then invalidates. */
    SendPurgeWrite,
    /** Directed downgrade of the remote owner: cache-to-cache supply
     *  (no write-back); a dirty owner becomes Owned, a clean
     *  (Exclusive) owner becomes Shared. */
    SendDowngradeOwner,
    /** Directed fetch-and-invalidate of the remote owner:
     *  cache-to-cache supply (no write-back), owner drops its copy. */
    SendFetchInvOwner,
};

constexpr unsigned numActionOps = 18;

/** One action: opcode plus its immediate argument. */
struct TableAction
{
    ActionOp op = ActionOp::Bump;
    std::uint8_t arg = 0;
};

/** TableRow::state (and next) of a row that fires in every directory
 *  state: its event is answered without reading the directory.  Such
 *  a row writes no directory state, and an event class has either
 *  any-state rows or per-state rows, never both (validated). */
constexpr std::uint8_t anyState = 0xff;

/** One transition row. */
struct TableRow
{
    /** Directory state this row fires in (index into stateNames), or
     *  anyState. */
    std::uint8_t state = 0;
    EventClass event = EventClass::ReadHit;
    TableGuard guard = TableGuard::Always;
    /** Executed in order. */
    std::vector<TableAction> actions;
    /** Directory state after the row: must equal the argument of the
     *  row's last SetDirState action, or `state` when there is none
     *  (validated). */
    std::uint8_t next = 0;
};

/** Structural invariant bounds for one directory state, checked by
 *  TableProtocol::constraintViolation(). */
struct StateConstraint
{
    std::size_t minHolders = 0;
    std::size_t maxHolders = SIZE_MAX;
    std::size_t minModified = 0;
    std::size_t maxModified = 0;
};

/** A complete declarative protocol. */
struct TransitionTable
{
    /** Scheme name the factory registers ("two_bit_table", ...). */
    std::string name;
    /** Directory state names; at most 4 (the two-bit economy bound),
     *  index 0 is the initial (uncached) state. */
    std::vector<std::string> stateNames;
    /** Per-state structural bounds (same size as stateNames). */
    std::vector<StateConstraint> constraints;
    std::vector<TableRow> rows;
    /** Directory storage cost metadata: bits per block =
     *  dirBitsFixed + dirBitsPerProc * n. */
    unsigned dirBitsFixed = 2;
    unsigned dirBitsPerProc = 0;

    /** All structural problems, as "row N: ..." messages; empty means
     *  the table is executable. */
    std::vector<std::string> validate() const;

    /** Whether any row handles an eviction event — this is what makes
     *  replacement (and therefore flushCache) executable, so
     *  Protocol::supportsFlush() is answered from here. */
    bool handlesEvict() const;
};

/**
 * A validated TransitionTable plus its dense (state x event-class)
 * dispatch index.  Built once per shipped table (its static accessor)
 * and borrowed by every TableProtocol that runs it.
 */
class CompiledTable : public TransitionTable
{
  public:
    /** Fatals (with every validation message) on an invalid table. */
    explicit CompiledTable(TransitionTable table);

    /** Whether `ev` is answered by any-state rows, i.e. without
     *  reading the directory. */
    bool
    anyStateEvent(EventClass ev) const
    {
        return anyState_[static_cast<std::size_t>(ev)];
    }

    /** Candidate row ids for (state, ev) in declaration order; the
     *  state is ignored for an any-state event. */
    std::pair<const std::uint16_t *, const std::uint16_t *>
    candidates(std::uint8_t state, EventClass ev) const
    {
        const auto e = static_cast<std::size_t>(ev);
        const Slot s =
            slots_[(anyState_[e] ? 0 : std::size_t{state}) *
                       numEventClasses + e];
        const std::uint16_t *first = slotRows_.data() + s.off;
        return {first, first + s.len};
    }

    /** The row that answers an event without reading the directory
     *  or evaluating a guard: an any-state event whose first row is
     *  Always. */
    struct DirectRow
    {
        /** Row id, or -1 when the event needs a full dispatch. */
        int id = -1;
        /** The row has no actions (a read hit returns the line). */
        bool actionless = false;
    };

    DirectRow
    directRow(EventClass ev) const
    {
        return direct_[static_cast<std::size_t>(ev)];
    }

    /** Whether `ev` is a miss whose rows fill a line (all or none do,
     *  validated), so a victim is evicted before they run. */
    bool
    evictsVictim(EventClass ev) const
    {
        return evicts_[static_cast<std::size_t>(ev)];
    }

  private:
    struct Slot
    {
        std::uint32_t off = 0;
        std::uint32_t len = 0;
    };

    std::vector<Slot> slots_;
    std::vector<std::uint16_t> slotRows_;
    bool anyState_[numEventClasses] = {};
    bool evicts_[numEventClasses] = {};
    DirectRow direct_[numEventClasses];
};

/** Render row `i` of `t` as "(state, event, guard) -> next" for
 *  diagnostics and coverage reports ("*" for anyState). */
std::string describeRow(const TransitionTable &t, std::size_t i);

std::string toString(EventClass e);
std::string toString(TableGuard g);
std::string toString(ActionOp op);

/**
 * The interpreter: executes a validated table as a functional-tier
 * Protocol.  Directory state lives in per-module TwoBitDirectory
 * tiered stores, so table-driven schemes compose with
 * --dir-ram-budget and report dirStoreCounters() with zero
 * scheme-specific code.
 */
class TableProtocol : public Protocol
{
  public:
    /** Run a compiled (shipped) table, borrowed for the lifetime of
     *  this protocol, registered under `name` (the table's own name
     *  when empty). */
    TableProtocol(const CompiledTable &table, const ProtoConfig &cfg,
                  const std::string &name = {});

    /** Run a custom table: validated and compiled for this instance;
     *  fatals (with every validation message) on an invalid table. */
    TableProtocol(const TransitionTable &table, const ProtoConfig &cfg);

    unsigned
    directoryBitsPerBlock() const override
    {
        return table_->dirBitsFixed +
               table_->dirBitsPerProc * cfg_.numProcs;
    }

    DirStoreCounters dirStoreCounters() const override;

    /** Generic: every cached block meets its state's constraints,
     *  every copy equals the modified copy if any, else memory, and an
     *  Exclusive or Modified copy is the only one; panics on
     *  violation. */
    void checkInvariants() const override;

    /** Why `holders` copies of block a, `modified` of them dirty,
     *  break its directory state's bounds; empty when they do not. */
    std::string constraintViolation(Addr a, std::size_t holders,
                                    std::size_t modified) const;

    /** Executable whenever the table has eviction rows: each valid
     *  line is ejected through the same rows replacement uses. */
    void flushCache(ProcId p) override;
    bool
    supportsFlush() const override
    {
        return table_->handlesEvict();
    }

    /** Directory state of block a (index into table().stateNames). */
    std::uint8_t
    dirStateOf(Addr a) const
    {
        return static_cast<std::uint8_t>(dirFor(a).get(a));
    }

    const TransitionTable &table() const { return *table_; }

    /** Fire count per table row (row coverage; the explorer unions
     *  these to report unreachable rows). */
    const std::vector<std::uint64_t> &rowHits() const { return rowHits_; }

  protected:
    Value doAccess(ProcId k, Addr a, bool write, Value wval) override;

    /** SendBroadInv.  BROADINV(a,except): deliveries to the n-1
     *  other caches, every (clean) copy found is invalidated; useless
     *  deliveries counted. */
    virtual void sendRemoteInvalidate(Addr a, ProcId except);

    /**
     * SendBroadQuery{Read,Write}.  BROADQUERY(a,rw): deliveries to the
     * n-1 caches other than the requester; the owner puts its dirty
     * data, which is written back; rw selects downgrade (read) vs
     * invalidate (write).
     * @return the owner's data.
     */
    virtual Value sendRemoteQuery(Addr a, ProcId requester, RW rw);

    /** Fires after every row that read the directory (misses, clean
     *  write hits, evictions), with the state before and after it. */
    virtual void
    noteRow(ProcId, Addr, EventClass, std::uint8_t, std::uint8_t)
    {}

    /** Fires when cache p gained, lost or re-stated a line. */
    virtual void onCacheChange(ProcId) {}

    /** Invalidate block a in cache p, keeping the duplicate tag
     *  directory in sync.  @return true if a copy was dropped. */
    bool dropLine(ProcId p, Addr a);

  private:
    TwoBitDirectory &dirFor(Addr a) { return dirs_[addrMap_.home(a)]; }
    const TwoBitDirectory &
    dirFor(Addr a) const
    {
        return dirs_[addrMap_.home(a)];
    }

    /** Fill cache k with block a, keeping the duplicate tag directory
     *  (snoop filter) of §4.4 enhancement (a) in sync. */
    CacheLine &fillLine(ProcId k, Addr a, LineState st, Value v);

    /** Whether a broadcast delivery at cache i costs a cycle: with the
     *  duplicate directory enabled, only checks that find the block
     *  forward to the cache proper. */
    bool snoopSteals(ProcId i, Addr a);

    /** Holders of `a` other than `k` (ascending ProcId). */
    std::size_t otherHolders(Addr a, ProcId k) const;
    /** The remote owner of `a`: the unique other holder whose copy is
     *  not merely Shared (E/M/O), or invalidProc. */
    ProcId remoteOwner(Addr a, ProcId k) const;

    bool guardHolds(TableGuard g, Addr a, ProcId k) const;
    const TableRow *findRow(std::uint8_t state, EventClass ev, Addr a,
                            ProcId k) const;

    /** Dispatch one event; returns the transaction's result value. */
    Value dispatch(ProcId k, Addr a, bool write, Value wval,
                   EventClass ev, CacheLine *line);

    /** Run `row`'s actions; returns the transaction's result value.
     *  `line` is the requester's line (hits) or the victim. */
    Value execute(const TableRow &row, ProcId k, Addr a, bool write,
                  Value wval, EventClass ev, CacheLine *line);

    /** Run the eviction rows for a valid victim line. */
    void evictLine(ProcId k, CacheLine &victim);

    /** Set only when this instance compiled a custom table. */
    std::unique_ptr<const CompiledTable> owned_;
    const CompiledTable *table_;
    std::vector<TwoBitDirectory> dirs_;
    /** Duplicate-directory mirrors (empty when disabled). */
    std::vector<SnoopFilter> snoops_;
    std::vector<std::uint64_t> rowHits_;
};

} // namespace dir2b

#endif // DIR2B_PROTO_TABLE_ENGINE_HH
