/**
 * @file
 * Construction of functional protocols by name.
 *
 * The eight schemes of the paper's spectrum (§2-§4.4), keyed by the
 * names used throughout the benches, tests and examples:
 *
 *   "two_bit"         the paper's contribution (§3)
 *   "two_bit_tb"      two-bit + translation buffer (§4.4)
 *   "two_bit_wt"      write-through two-bit variant (§2.4's other
 *                     branch: the map as an invalidation filter over
 *                     the classical scheme)
 *   "full_map"        Censier-Feautrier n+1-bit map (§2.4.2)
 *   "full_map_local"  Yen-Fu full map + exclusive-clean (§2.4.3)
 *   "dup_dir"         Tang duplicated cache directories (§2.4.1)
 *   "classical"       broadcast write-through (§2.3)
 *   "write_once"      Goodman bus scheme (§2.5)
 *   "illinois"        Papamarcos-Patel bus scheme (ref [5])
 *   "software"        static software-enforced scheme (§2.2)
 *
 * The two-bit scheme, its write-through variant, the full map, the
 * Yen-Fu full map and the variants built on them (two_bit_tb,
 * dup_dir, the "two_bit_nop1" ablation) run on the table engine
 * (proto/table_engine.hh); classical, write_once, illinois and
 * software are hand-written.  "two_bit_table" and "full_map_table"
 * name the same tables as "two_bit" and "full_map"; "moesi" exists
 * only as a table.
 */

#ifndef DIR2B_PROTO_PROTOCOL_FACTORY_HH
#define DIR2B_PROTO_PROTOCOL_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "proto/protocol.hh"

namespace dir2b
{

/** Instantiate a protocol by name; fatal on an unknown name. */
std::unique_ptr<Protocol> makeProtocol(const std::string &name,
                                       const ProtoConfig &cfg);

/** All registered protocol names, in the order listed above. */
std::vector<std::string> protocolNames();

} // namespace dir2b

#endif // DIR2B_PROTO_PROTOCOL_FACTORY_HH
