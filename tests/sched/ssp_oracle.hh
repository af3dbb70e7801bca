/**
 * @file
 * Successive-shortest-paths reference solver for DifferenceLP,
 * used by the tests as a differential oracle for solveDifferenceLP().
 */

#ifndef LONGNAIL_TESTS_SCHED_SSP_ORACLE_HH
#define LONGNAIL_TESTS_SCHED_SSP_ORACLE_HH

#include "sched/lpsolver.hh"

namespace longnail {
namespace sched {
namespace oracle {

/** Solve @p lp by successive shortest paths (see ssp_oracle.cc). */
LPResult solveDifferenceLPBySsp(const DifferenceLP &lp,
                                uint64_t work_limit = 0);

} // namespace oracle
} // namespace sched
} // namespace longnail

#endif // LONGNAIL_TESTS_SCHED_SSP_ORACLE_HH
