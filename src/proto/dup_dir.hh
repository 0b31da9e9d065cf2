/**
 * @file
 * Cache directory duplication (Tang 1976; paper §2.4.1).
 *
 * A *central* memory controller holds a duplicate of every cache's tag
 * directory.  The information content equals the full map — the holder
 * set is always exactly known, so commands are directed and never
 * useless — but the organisation differs in two measurable ways:
 *
 *  1. every global-state query must search all n duplicate directories
 *     (counted as dirSearches; in hardware this is the processing-power
 *     problem the paper highlights);
 *  2. every cache directory change (fill, invalidation, eviction,
 *     state change) must be transmitted to the central controller to
 *     keep its duplicates current (counted as dirUpdates; this is the
 *     controller-bottleneck traffic).
 *
 * In the timed tier the central controller also serialises *all*
 * requests (no per-module distribution is possible), which is the
 * paper's expansibility objection.
 *
 * Functionally the scheme is the full-map table (proto/table_defs.hh)
 * run by the table engine, with both costs charged from its hooks.
 */

#ifndef DIR2B_PROTO_DUP_DIR_HH
#define DIR2B_PROTO_DUP_DIR_HH

#include "proto/table_defs.hh"
#include "proto/table_engine.hh"

namespace dir2b
{

/** Functional-tier Tang duplicated-directory protocol. */
class DupDirProtocol : public TableProtocol
{
  public:
    /**
     * The duplicates replicate each cache's tag store at the
     * controller.  Per memory block the map costs nothing — the cost
     * scales with total cache capacity instead — so the full-map
     * table's metadata reports the equivalent: one presence bit per
     * cache plus the modified bit, which is what the duplicates encode
     * per cached block.
     */
    explicit DupDirProtocol(const ProtoConfig &cfg)
        : TableProtocol(fullMapTable(), cfg, "dup_dir")
    {}

  protected:
    void
    noteRow(ProcId, Addr, EventClass, std::uint8_t,
            std::uint8_t) override
    {
        // Every consultation scans all n duplicate directories.
        counts_.dirSearches += cfg_.numProcs;
    }

    void
    onCacheChange(ProcId) override
    {
        // The change is mirrored into the central duplicate.
        ++counts_.dirUpdates;
        ++counts_.netMessages;
    }
};

} // namespace dir2b

#endif // DIR2B_PROTO_DUP_DIR_HH
