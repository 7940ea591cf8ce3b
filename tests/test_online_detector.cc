/**
 * @file
 * Tests of the online phase-change detector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "phase/online_detector.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::phase;

namespace
{

Bbv
bbvAt(const workload::Workload &wl, std::uint64_t start)
{
    return Bbv::ofTrace(wl.generate(start, 3000));
}

} // namespace

TEST(OnlineDetector, FirstIntervalIsNewPhase)
{
    const auto wl = workload::specBenchmark("gzip", 100000);
    OnlinePhaseDetector det;
    const auto obs = det.observe(bbvAt(wl, 0));
    EXPECT_TRUE(obs.newPhase);
    EXPECT_TRUE(obs.phaseChanged);
    EXPECT_EQ(obs.phaseId, 0u);
}

TEST(OnlineDetector, StableBehaviourIsStablePhase)
{
    const auto wl = workload::specBenchmark("swim", 400000);
    OnlinePhaseDetector det;
    det.observe(bbvAt(wl, 0));
    // Consecutive windows inside the same long segment.
    for (int i = 1; i < 8; ++i) {
        const auto obs = det.observe(bbvAt(wl, i * 3000));
        EXPECT_FALSE(obs.newPhase) << i;
    }
    EXPECT_EQ(det.numPhases(), 1u);
}

TEST(OnlineDetector, DetectsKernelSwitch)
{
    // gap: compute kernel early, pointer-chase kernel later.
    const auto wl = workload::specBenchmark("gap", 400000);
    OnlinePhaseDetector det;
    det.observe(bbvAt(wl, 10000));
    const auto obs = det.observe(bbvAt(wl, 250000));
    EXPECT_TRUE(obs.newPhase);
    EXPECT_TRUE(obs.phaseChanged);
}

TEST(OnlineDetector, RecurringPhaseRecognised)
{
    const auto wl = workload::specBenchmark("gap", 400000);
    OnlinePhaseDetector det;
    const auto first = det.observe(bbvAt(wl, 10000));
    det.observe(bbvAt(wl, 250000));            // different phase
    const auto back = det.observe(bbvAt(wl, 14000));   // same as first
    EXPECT_FALSE(back.newPhase);
    EXPECT_EQ(back.phaseId, first.phaseId);
    EXPECT_TRUE(back.phaseChanged);   // changed relative to previous
}

TEST(OnlineDetector, TableCapacityFallsBackToNearest)
{
    OnlinePhaseDetector det(0.0001, 2);   // tiny threshold, 2 slots
    const auto wl = workload::specBenchmark("gcc", 400000);
    det.observe(bbvAt(wl, 0));
    det.observe(bbvAt(wl, 150000));
    // A third distinct behaviour cannot allocate: must reuse.
    const auto obs = det.observe(bbvAt(wl, 300000));
    EXPECT_FALSE(obs.newPhase);
    EXPECT_LT(obs.phaseId, 2u);
    EXPECT_EQ(det.numPhases(), 2u);
}

TEST(OnlineDetector, ExactCapacityBoundaryAt64)
{
    // Fill the default 64-slot table with synthetic one-hot
    // signatures: entry 64 must fall back to the nearest signature
    // (not allocate, not read out of bounds), and entry 63 — the
    // exact boundary — must still allocate.
    OnlinePhaseDetector det(0.0001, 64);
    std::vector<double> v(Bbv::dimension, 0.0);
    for (std::size_t i = 0; i < 64; ++i) {
        // Two-hot pattern: distinct for far more than 64 entries.
        std::fill(v.begin(), v.end(), 0.0);
        v[i % Bbv::dimension] = 0.75;
        v[(i / Bbv::dimension) % Bbv::dimension] += 0.25;
        const auto obs = det.observe(Bbv::fromValues(v, 100));
        EXPECT_TRUE(obs.newPhase) << i;
        EXPECT_EQ(obs.phaseId, i) << i;
    }
    EXPECT_EQ(det.numPhases(), 64u);

    std::fill(v.begin(), v.end(), 1.0 / Bbv::dimension);
    const auto overflow = det.observe(Bbv::fromValues(v, 100));
    EXPECT_FALSE(overflow.newPhase);
    EXPECT_LT(overflow.phaseId, 64u);
    EXPECT_EQ(det.numPhases(), 64u);
}

TEST(OnlineDetector, ZeroCapacityIsClampedToOne)
{
    // max_phases = 0 used to index observations_[~0] when the first
    // interval arrived with a full (empty) table; the capacity is now
    // clamped so the first observation always has a slot.
    OnlinePhaseDetector det(0.0001, 0);
    EXPECT_EQ(det.capacity(), 1u);
    const auto wl = workload::specBenchmark("gcc", 400000);
    const auto first = det.observe(bbvAt(wl, 0));
    EXPECT_TRUE(first.newPhase);
    EXPECT_EQ(first.phaseId, 0u);
    const auto second = det.observe(bbvAt(wl, 300000));
    EXPECT_FALSE(second.newPhase);
    EXPECT_EQ(second.phaseId, 0u);
    EXPECT_EQ(det.numPhases(), 1u);
}

TEST(OnlineDetector, BestMatchIsConstAndThresholdFree)
{
    const auto wl = workload::specBenchmark("gap", 400000);
    OnlinePhaseDetector det;
    EXPECT_FALSE(det.bestMatch(bbvAt(wl, 10000)).has_value());
    det.observe(bbvAt(wl, 10000));
    det.observe(bbvAt(wl, 250000));

    const auto &cdet = det;
    const std::string before = det.serialize();
    const auto m = cdet.bestMatch(bbvAt(wl, 14000));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->phaseId, 0u);
    EXPECT_LT(m->distance, cdet.threshold());
    // The query counts no observation and moves no current phase.
    EXPECT_EQ(det.serialize(), before);
}

TEST(OnlineDetector, SerializeRoundTripsBitExactly)
{
    const auto wl = workload::specBenchmark("gap", 400000);
    OnlinePhaseDetector det(0.4, 16);
    det.observe(bbvAt(wl, 10000));
    det.observe(bbvAt(wl, 250000));
    det.observe(bbvAt(wl, 14000));

    const std::string bytes = det.serialize();
    const auto back = OnlinePhaseDetector::deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->numPhases(), det.numPhases());
    EXPECT_EQ(back->threshold(), det.threshold());
    EXPECT_EQ(back->capacity(), det.capacity());
    for (std::size_t i = 0; i < det.numPhases(); ++i) {
        EXPECT_EQ(back->signature(i).values(),
                  det.signature(i).values());
        EXPECT_EQ(back->signature(i).opCount(),
                  det.signature(i).opCount());
    }
    // Round-trip serialization is byte-identical.
    EXPECT_EQ(back->serialize(), bytes);
}

TEST(OnlineDetector, DeserializeRejectsCorruptInput)
{
    OnlinePhaseDetector det(0.4, 16);
    std::vector<double> v(Bbv::dimension, 1.0 / Bbv::dimension);
    det.observe(Bbv::fromValues(v, 100));
    std::string bytes = det.serialize();

    EXPECT_FALSE(OnlinePhaseDetector::deserialize("").has_value());
    EXPECT_FALSE(OnlinePhaseDetector::deserialize(
                     std::string_view(bytes).substr(0, 20))
                     .has_value());
    std::string flipped = bytes;
    flipped[24] ^= 0x01;   // damage the body under the checksum
    EXPECT_FALSE(OnlinePhaseDetector::deserialize(flipped)
                     .has_value());
    std::string truncated = bytes;
    truncated.pop_back();
    EXPECT_FALSE(OnlinePhaseDetector::deserialize(truncated)
                     .has_value());
    EXPECT_TRUE(OnlinePhaseDetector::deserialize(bytes).has_value());
}

TEST(OnlineDetector, PhaseChangeRateIsModerate)
{
    // Over a whole program the controller should not thrash: the
    // paper reconfigures about once every 10 intervals.
    const auto wl = workload::specBenchmark("bzip2", 400000);
    OnlinePhaseDetector det;
    std::size_t changes = 0;
    const std::uint64_t interval = 5000;
    const std::uint64_t n = wl.totalInstructions() / interval;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto obs = det.observe(
            Bbv::ofTrace(wl.generate(i * interval, interval)));
        changes += obs.phaseChanged;
    }
    EXPECT_LT(double(changes) / double(n), 0.5);
    EXPECT_GE(changes, 2u);
}
