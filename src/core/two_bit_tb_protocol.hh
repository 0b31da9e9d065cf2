/**
 * @file
 * Two-bit directory + translation buffer (the §4.4 enhancement).
 *
 * The two-bit table (proto/table_defs.hh) run by the table engine,
 * except that each memory controller first consults its
 * TranslationBuffer before broadcasting: a hit yields the
 * exact holder set and the commands go out *directed*, "just as with
 * the n+1 bit approach"; a miss falls back to the broadcast, after
 * which the controller re-learns the holder set and installs it.
 *
 * The paper's claim under test (bench_enhancements / E4): with a
 * translation-buffer hit ratio of H, a fraction H of the broadcast
 * overhead is eliminated, so the scheme "can achieve any desired
 * approximation of the full bit map approach".
 */

#ifndef DIR2B_CORE_TWO_BIT_TB_PROTOCOL_HH
#define DIR2B_CORE_TWO_BIT_TB_PROTOCOL_HH

#include <vector>

#include "core/translation_buffer.hh"
#include "proto/table_engine.hh"

namespace dir2b
{

/** Two-bit scheme with per-module owner-identity caches. */
class TwoBitTbProtocol : public TableProtocol
{
  public:
    explicit TwoBitTbProtocol(const ProtoConfig &cfg);

    /** Aggregated hit ratio over all module buffers. */
    double tbHitRatio() const;

    const TranslationBuffer &buffer(ModuleId m) const
    {
        return tbs_.at(m);
    }

  protected:
    void sendRemoteInvalidate(Addr a, ProcId except) override;
    Value sendRemoteQuery(Addr a, ProcId requester, RW rw) override;

    /** The home controller sees every REQUEST, MREQUEST and EJECT for
     *  its blocks, which keeps the holder sets exact. */
    void noteRow(ProcId k, Addr a, EventClass ev, std::uint8_t before,
                 std::uint8_t after) override;

  private:
    TranslationBuffer &tbFor(Addr a) { return tbs_[addrMap_.home(a)]; }
    const TranslationBuffer &
    tbFor(Addr a) const
    {
        return tbs_[addrMap_.home(a)];
    }

    std::vector<TranslationBuffer> tbs_;
};

} // namespace dir2b

#endif // DIR2B_CORE_TWO_BIT_TB_PROTOCOL_HH
