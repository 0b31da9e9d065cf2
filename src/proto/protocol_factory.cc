#include "proto/protocol_factory.hh"

#include "core/two_bit_tb_protocol.hh"
#include "proto/classical.hh"
#include "proto/dup_dir.hh"
#include "proto/illinois.hh"
#include "proto/software.hh"
#include "proto/table_defs.hh"
#include "proto/table_engine.hh"
#include "proto/write_once.hh"
#include "util/logging.hh"

namespace dir2b
{

std::unique_ptr<Protocol>
makeProtocol(const std::string &name, const ProtoConfig &cfg)
{
    // The two-bit schemes, the full maps and their variants run on the
    // table engine; the shipped tables are compiled once and shared.
    if (name == "two_bit" || name == "two_bit_table")
        return std::make_unique<TableProtocol>(twoBitTable(), cfg, name);
    if (name == "two_bit_nop1")
        return std::make_unique<TableProtocol>(twoBitNoPresent1Table(),
                                               cfg);
    if (name == "two_bit_tb")
        return std::make_unique<TwoBitTbProtocol>(cfg);
    if (name == "two_bit_wt")
        return std::make_unique<TableProtocol>(twoBitWtTable(), cfg);
    if (name == "full_map" || name == "full_map_table")
        return std::make_unique<TableProtocol>(fullMapTable(), cfg, name);
    if (name == "full_map_local")
        return std::make_unique<TableProtocol>(fullMapLocalTable(), cfg);
    if (name == "dup_dir")
        return std::make_unique<DupDirProtocol>(cfg);
    if (name == "classical")
        return std::make_unique<ClassicalProtocol>(cfg);
    if (name == "write_once")
        return std::make_unique<WriteOnceProtocol>(cfg);
    if (name == "illinois")
        return std::make_unique<IllinoisProtocol>(cfg);
    if (name == "software")
        return std::make_unique<SoftwareProtocol>(cfg);
    if (name == "moesi")
        return std::make_unique<TableProtocol>(moesiTable(), cfg);
    DIR2B_FATAL("unknown protocol '", name, "'");
}

std::vector<std::string>
protocolNames()
{
    return {"two_bit",    "two_bit_tb", "two_bit_wt",
            "full_map",   "full_map_local", "dup_dir",
            "classical",  "write_once", "illinois", "software",
            "two_bit_table", "full_map_table", "moesi"};
}

} // namespace dir2b
