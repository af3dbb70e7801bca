/**
 * @file
 * Tests for the difference-constraint LP solver, including a
 * brute-force cross-check on randomized small instances (the solver
 * must return the exact ILP optimum, standing in for CBC) and a
 * differential check against the successive-shortest-paths oracle on
 * schedule-shaped instances (the identical point, not only the
 * objective).
 */

#include <gtest/gtest.h>

#include <random>

#include "sched/lpsolver.hh"
#include "ssp_oracle.hh"

using namespace longnail::sched;

namespace {

/** Exhaustive reference solution over a bounded horizon. */
LPResult
bruteForce(const DifferenceLP &lp, int horizon)
{
    LPResult best;
    best.status = LPResult::Status::Infeasible;
    unsigned n = lp.numVars();
    std::vector<int> t(n, 0);
    std::function<void(unsigned)> recurse = [&](unsigned i) {
        if (i == n) {
            for (const auto &c : lp.constraints)
                if (t[c.j] - t[c.i] < c.c)
                    return;
            int64_t obj = 0;
            for (unsigned v = 0; v < n; ++v)
                obj += lp.weights[v] * t[v];
            if (best.status == LPResult::Status::Infeasible ||
                obj < best.objective) {
                best.status = LPResult::Status::Optimal;
                best.objective = obj;
                best.values = t;
            }
            return;
        }
        int hi = lp.upper[i] == DifferenceLP::unbounded ? horizon
                                                        : lp.upper[i];
        for (t[i] = lp.lower[i]; t[i] <= hi; ++t[i])
            recurse(i + 1);
    };
    recurse(0);
    return best;
}

} // namespace

TEST(LpSolver, SingleVariableBounds)
{
    DifferenceLP lp(1);
    lp.weights[0] = 1;
    lp.lower[0] = 3;
    lp.upper[0] = 7;
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 3);

    lp.weights[0] = -1; // prefer late
    r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 7);
}

TEST(LpSolver, SimpleChain)
{
    // t1 >= t0 + 2, t2 >= t1 + 3, minimize t0+t1+t2.
    DifferenceLP lp(3);
    lp.weights = {1, 1, 1};
    lp.addConstraint(0, 1, 2);
    lp.addConstraint(1, 2, 3);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 0);
    EXPECT_EQ(r.values[1], 2);
    EXPECT_EQ(r.values[2], 5);
    EXPECT_EQ(r.objective, 7);
}

TEST(LpSolver, NegativeWeightPullsLate)
{
    // A fan-out node with more consumers than weight prefers to start
    // late (shorter lifetimes), bounded by its consumers.
    DifferenceLP lp(3);
    lp.weights = {-1, 1, 1};   // node 0 has out-degree 2 in Fig. 7 terms
    lp.lower = {0, 4, 6};
    lp.addConstraint(0, 1, 1); // t1 >= t0 + 1
    lp.addConstraint(0, 2, 1);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    // t1=4, t2=6 at their bounds; t0 rises to min(t1,t2)-1 = 3.
    EXPECT_EQ(r.values[0], 3);
    EXPECT_EQ(r.values[1], 4);
    EXPECT_EQ(r.values[2], 6);
}

TEST(LpSolver, InfeasibleWindowDetected)
{
    // t1 >= t0 + 5 with t0 >= 3 and t1 <= 6 is contradictory.
    DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.lower = {3, 0};
    lp.upper = {DifferenceLP::unbounded, 6};
    lp.addConstraint(0, 1, 5);
    EXPECT_EQ(solveDifferenceLP(lp).status,
              LPResult::Status::Infeasible);
}

TEST(LpSolver, EqualityViaTwoInequalities)
{
    // t1 - t0 >= 4 and t0 - t1 >= -4 pin the distance to exactly 4.
    DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.addConstraint(0, 1, 4);
    lp.addConstraint(1, 0, -4);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[1] - r.values[0], 4);
}

class LpRandomProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LpRandomProperty, MatchesBruteForce)
{
    std::mt19937 rng(100 + GetParam());
    for (int instance = 0; instance < 60; ++instance) {
        unsigned n = 2 + rng() % 4; // 2..5 variables
        DifferenceLP lp(n);
        for (unsigned i = 0; i < n; ++i) {
            lp.weights[i] = int(rng() % 7) - 3; // -3..3
            lp.lower[i] = rng() % 3;
            lp.upper[i] = lp.lower[i] + 1 + rng() % 5;
        }
        // Random forward constraints (DAG-like: i < j).
        unsigned edges = rng() % (n * 2);
        for (unsigned e = 0; e < edges; ++e) {
            unsigned i = rng() % (n - 1);
            unsigned j = i + 1 + rng() % (n - 1 - i);
            lp.addConstraint(i, j, int(rng() % 4));
        }
        LPResult got = solveDifferenceLP(lp);
        LPResult want = bruteForce(lp, 10);
        if (want.status == LPResult::Status::Infeasible) {
            EXPECT_EQ(got.status, LPResult::Status::Infeasible)
                << "instance " << instance;
            continue;
        }
        ASSERT_EQ(got.status, LPResult::Status::Optimal)
            << "instance " << instance;
        EXPECT_EQ(got.objective, want.objective)
            << "instance " << instance;
        // The solution must also be feasible.
        for (const auto &c : lp.constraints)
            EXPECT_GE(got.values[c.j] - got.values[c.i], c.c);
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_GE(got.values[i], lp.lower[i]);
            EXPECT_LE(got.values[i], lp.upper[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

namespace {

/**
 * A random instance shaped like scheduleOptimal()'s LPs: forward
 * dependences with small latencies, +1 chain-breaker-style edges that
 * leave the weights alone, interface windows with occasional upper
 * bounds, and weights scaled w*1024-1. Most weights follow Fig. 7
 * (1 + indeg - outdeg); some instances draw them at random so that
 * unbounded LPs occur too.
 */
DifferenceLP
randomScheduleLP(std::mt19937 &rng, unsigned n)
{
    DifferenceLP lp(n);
    std::vector<int64_t> w(n, 1);
    for (unsigned i = 0; i < n; ++i)
        lp.lower[i] = rng() % 4 == 0 ? int(rng() % 4) : 0;
    unsigned edges = n + rng() % (2 * n);
    for (unsigned e = 0; e < edges; ++e) {
        unsigned j = 1 + rng() % (n - 1);
        unsigned i = rng() % j;
        int latency = rng() % 3 == 0 ? int(1 + rng() % 3) : 0;
        lp.addConstraint(i, j, latency);
        ++w[j];
        --w[i];
        if (rng() % 6 == 0)
            lp.addConstraint(i, j, latency + 1);
    }
    // Upper bounds a little above the earliest feasible time. In one
    // instance of six, one variable gets a bound one step too tight,
    // which makes the instance infeasible.
    std::vector<int> asap(lp.lower);
    for (unsigned round = 0; round < n; ++round)
        for (const auto &c : lp.constraints)
            asap[c.j] = std::max(asap[c.j], asap[c.i] + c.c);
    for (unsigned i = 0; i < n; ++i)
        if (rng() % 5 == 0)
            lp.upper[i] = asap[i] + int(rng() % 4);
    if (rng() % 6 == 0) {
        unsigned i = rng() % n;
        lp.upper[i] = asap[i] - 1;
    }
    bool random_weights = rng() % 4 == 0;
    for (unsigned i = 0; i < n; ++i) {
        int64_t wi = random_weights ? int64_t(rng() % 7) - 3 : w[i];
        lp.weights[i] = wi * 1024 - 1;
    }
    return lp;
}

} // namespace

class LpDifferential : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LpDifferential, MatchesSuccessiveShortestPaths)
{
    std::mt19937 rng(7000 + GetParam());
    unsigned seen[4] = {0, 0, 0, 0};
    for (int instance = 0; instance < 40; ++instance) {
        unsigned n = 2 + rng() % 199; // 2..200 variables
        DifferenceLP lp = randomScheduleLP(rng, n);
        LPResult want = oracle::solveDifferenceLPBySsp(lp);
        LPResult got = solveDifferenceLP(lp);
        ASSERT_EQ(got.status, want.status)
            << "instance " << instance << " (" << n << " vars)";
        ++seen[unsigned(got.status)];
        EXPECT_EQ(got.values, want.values)
            << "instance " << instance << " (" << n << " vars)";
        EXPECT_EQ(got.objective, want.objective)
            << "instance " << instance << " (" << n << " vars)";
    }
    // The generator must exercise the optimal and the infeasible path.
    EXPECT_GT(seen[unsigned(LPResult::Status::Optimal)], 10u);
    EXPECT_GT(seen[unsigned(LPResult::Status::Infeasible)], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpDifferential,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u,
                                           7u));

TEST(LpSolver, LongChainRoutesOneDeepPath)
{
    // Minimize t_last - t_0 over a 200k-variable chain: the only
    // augmenting path runs through every chain arc, so a DFS that
    // recursed once per arc would need 200k stack frames.
    constexpr unsigned n = 200000;
    DifferenceLP lp(n);
    for (unsigned i = 0; i + 1 < n; ++i)
        lp.addConstraint(i, i + 1, int(1 + i % 3));
    lp.weights[0] = -1;
    lp.weights[n - 1] = 1;
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.augmentations, 1u);
    // The recovered point is the least one: every variable at the
    // prefix sum of the latencies before it.
    int64_t prefix = 0;
    for (unsigned i = 0; i < n; ++i) {
        ASSERT_EQ(r.values[i], prefix) << "variable " << i;
        prefix += 1 + i % 3;
    }
    EXPECT_EQ(r.objective, r.values[n - 1]);
}
