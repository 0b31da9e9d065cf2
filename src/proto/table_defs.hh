/**
 * @file
 * The shipped transition tables for the table-driven engine.
 *
 * Each accessor validates its table and compiles the dispatch index
 * once, on first use; every TableProtocol running it borrows the
 * result.
 *
 *   twoBitTable()          the paper's §3 two-bit broadcast scheme; the
 *                          factory runs it as "two_bit" and
 *                          "two_bit_table", and the translation-buffer
 *                          variant "two_bit_tb" on top of it;
 *   twoBitNoPresent1Table() the §3.2.1/§3.2.4 ablation without
 *                          Present1 ("two_bit_nop1");
 *   twoBitWtTable()        the write-through two-bit variant of §2.4
 *                          ("two_bit_wt"): no PresentM, no
 *                          write-allocate;
 *   fullMapTable()         the Censier-Feautrier full map ("full_map",
 *                          "full_map_table", and Tang's duplicated
 *                          directories "dup_dir" on top of it);
 *   fullMapLocalTable()    Yen and Fu's full map with an exclusive-clean
 *                          state, §2.4.3 ("full_map_local");
 *   moesiTable()           a directory MOESI with an Owned state and
 *                          cache-to-cache supply, a protocol that
 *                          exists only as data ("moesi").
 *
 * tests/test_table_golden.cc pins a functional digest per scheme.
 * See docs/TABLE_ENGINE.md for the row format and how to add another.
 */

#ifndef DIR2B_PROTO_TABLE_DEFS_HH
#define DIR2B_PROTO_TABLE_DEFS_HH

#include "proto/table_engine.hh"

namespace dir2b
{

/** The two-bit directory scheme ("two_bit", "two_bit_table"). */
const CompiledTable &twoBitTable();

/** The two-bit scheme without Present1 ("two_bit_nop1"). */
const CompiledTable &twoBitNoPresent1Table();

/** The write-through two-bit scheme ("two_bit_wt"). */
const CompiledTable &twoBitWtTable();

/** The full-map directory scheme ("full_map", "full_map_table"). */
const CompiledTable &fullMapTable();

/** Yen-Fu full map with an exclusive-clean state ("full_map_local"). */
const CompiledTable &fullMapLocalTable();

/** Directory MOESI, new protocol purely as data ("moesi"). */
const CompiledTable &moesiTable();

} // namespace dir2b

#endif // DIR2B_PROTO_TABLE_DEFS_HH
