/**
 * @file
 * Tests of the disk-cached evaluation repository.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/rng.hh"
#include "common/serial.hh"
#include "counter_delta.hh"
#include "counters/counter_bank.hh"
#include "counters/feature_vector.hh"
#include "harness/gather.hh"
#include "harness/repository.hh"
#include "power/metrics.hh"
#include "scratch_dir.hh"
#include "sim/cycle_level_model.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"
#include "uarch/core.hh"
#include "workload/spec_suite.hh"

using namespace adaptsim;
using namespace adaptsim::harness;
using adaptsim::test::CounterDelta;

namespace
{

class RepositoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchDir("adaptsim_repo_test");
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    PhaseSpec
    spec() const
    {
        return PhaseSpec{"gzip", 60000, 20000, 2000, 1500};
    }

    std::string
    binPath() const
    {
        return dir_ + "/" + spec().key() + ".evc";
    }

    std::string dir_;
};

bool
bitIdentical(const EvalRecord &a, const EvalRecord &b)
{
    return std::memcmp(&a, &b, sizeof(EvalRecord)) == 0;
}

} // namespace

TEST_F(RepositoryTest, EvaluateProducesSaneMetrics)
{
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto r = repo.evaluate(spec(),
                                 paperBaselineConfig());
    EXPECT_EQ(r.instructions, 1500.0);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.watts, 0.1);
    EXPECT_GT(r.efficiency, 0.0);
    EXPECT_EQ(d("repo/miss"), 1u);
}

TEST_F(RepositoryTest, SecondEvaluateHitsCache)
{
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto a = repo.evaluate(spec(), paperBaselineConfig());
    const auto b = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 1u);
    EXPECT_EQ(d("repo/hit"), 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.efficiency, b.efficiency);
}

TEST_F(RepositoryTest, WarmDetailPairReplaysOnlyTheWarmOffset)
{
    // The warm window ends where the detail window starts, so the
    // detail miss resumes the warm-up's stream: the only µops
    // replayed are the warm start's offset into its segment.
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const PhaseSpec s = spec();
    (void)repo.evaluate(s, paperBaselineConfig());
    const auto wl = workload::specBenchmark(s.workload, 60000);
    const std::uint64_t warm_start = s.startInst - s.warmLength;
    std::uint64_t seg_start = 0;
    for (const auto &seg : wl.segments()) {
        if (seg_start + seg.length > warm_start)
            break;
        seg_start += seg.length;
    }
    ASSERT_GT(warm_start, seg_start);   // a real mid-segment reseek
    EXPECT_EQ(d("tracecache/misses"), 2u);
    EXPECT_EQ(d("tracecache/skipped"), warm_start - seg_start);
}

TEST_F(RepositoryTest, CacheSurvivesRestart)
{
    EvalRecord first;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        first = repo.evaluate(spec(), paperBaselineConfig());
        repo.flush();
    }
    {
        const CounterDelta d;
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        const auto again =
            repo.evaluate(spec(), paperBaselineConfig());
        EXPECT_EQ(d("repo/miss"), 0u);
        EXPECT_EQ(d("repo/hit"), 1u);
        EXPECT_NEAR(again.efficiency, first.efficiency,
                    first.efficiency * 1e-9);
    }
}

TEST_F(RepositoryTest, BatchMatchesIndividual)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 2);
    Rng rng(5);
    const auto configs = space::uniformRandomSet(rng, 6);
    const auto batch = repo.evaluateBatch(spec(), configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto single = repo.evaluate(spec(), configs[i]);
        EXPECT_EQ(single.cycles, batch[i].cycles);
    }
}

TEST_F(RepositoryTest, ProfileIsCachedInMemoryAndOnDisk)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto a = repo.profile(spec());
    EXPECT_FALSE(a.basic.empty());
    EXPECT_FALSE(a.advanced.empty());
    const CounterDelta memoised;
    const auto b = repo.profile(spec());
    EXPECT_EQ(memoised("repo/miss"), 0u);
    EXPECT_EQ(a.advanced, b.advanced);

    const CounterDelta from_disk;
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    const auto c = repo2.profile(spec());
    EXPECT_EQ(from_disk("repo/miss"), 0u);
    ASSERT_EQ(c.advanced.size(), a.advanced.size());
    for (std::size_t i = 0; i < c.advanced.size(); ++i)
        EXPECT_NEAR(c.advanced[i], a.advanced[i], 1e-6);
}

TEST_F(RepositoryTest, ProfileMatchesHandBuiltCounterBankRun)
{
    // A profile is one cycle-level run of the profiling
    // configuration: the phase's own wrong-path seed, the warm
    // window (through the reference warm-up, not a warm memo), then
    // the detail window observed by the counter bank.
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto got = repo.profile(spec());

    const PhaseSpec s = spec();
    const auto wl = workload::specBenchmark(s.workload, s.programLength);
    workload::WrongPathGenerator wp(wl.averageParams(),
                                    wl.seed() ^ 0x57a71cULL);
    const auto cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    uarch::Core core(cc, wp);
    core.warm(wl.generate(s.startInst - s.warmLength, s.warmLength));
    counters::CounterBank bank(cc);
    const auto result =
        core.run(wl.generate(s.startInst, s.detailLength), &bank);
    bank.finalise(result.events);

    EXPECT_EQ(got.basic, counters::assembleFeatures(
                             bank, counters::FeatureSet::Basic));
    EXPECT_EQ(got.advanced, counters::assembleFeatures(
                                bank, counters::FeatureSet::Advanced));
}

TEST_F(RepositoryTest, DistinctSpecsAreDistinctEntries)
{
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    auto other = spec();
    other.startInst = 30000;
    (void)repo.evaluate(spec(), paperBaselineConfig());
    (void)repo.evaluate(other, paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 2u);
}

TEST_F(RepositoryTest, CacheHitIsBitIdenticalToFreshSimulation)
{
    EvalRecord fresh;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        fresh = repo.evaluate(spec(), paperBaselineConfig());
    }   // destructor flushes
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto cached = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 0u);
    EXPECT_EQ(d("repo/hit"), 1u);
    EXPECT_TRUE(bitIdentical(fresh, cached));
}

TEST_F(RepositoryTest, IncrementalFlushPersistsBeforeShutdown)
{
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    repo.setFlushEvery(1);
    const auto fresh = repo.evaluate(spec(), paperBaselineConfig());

    // With the first repository still alive (never explicitly
    // flushed), a second one already sees the record on disk.
    const CounterDelta reread;
    EvalRepository other(workload::specSuite(60000), dir_, 0);
    const auto cached =
        other.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(reread("repo/miss"), 0u);
    EXPECT_TRUE(bitIdentical(fresh, cached));
    EXPECT_GE(d("repo/flushed"), 1u);
}

TEST_F(RepositoryTest, InterruptedFlushKeepsCompletedRecords)
{
    Rng rng(11);
    const auto configs = space::uniformRandomSet(rng, 3);
    std::vector<EvalRecord> fresh;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        for (const auto &cfg : configs)
            fresh.push_back(repo.evaluate(spec(), cfg));
        repo.flush();
    }

    // Simulate a gather killed mid-write: a full-size record of
    // garbage (checksum cannot match), a torn partial append, and
    // an orphaned temp file from an interrupted atomic rewrite.
    ASSERT_TRUE(appendFileSync(binPath(), std::string(88, '\xab')));
    ASSERT_TRUE(appendFileSync(binPath(), "torn-tail"));
    ASSERT_TRUE(atomicWriteFile(binPath() + ".orphan", "junk"));
    std::ofstream(binPath() + ".tmp") << "partial";

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto cached = repo.evaluate(spec(), configs[i]);
        EXPECT_TRUE(bitIdentical(fresh[i], cached));
    }
    EXPECT_EQ(d("repo/miss"), 0u);
    EXPECT_EQ(d("repo/loaded"), configs.size());
    EXPECT_EQ(d("repo/dropped"), 2u);   // corrupt record + torn tail
}

TEST_F(RepositoryTest, DamagedStoreIsRewrittenNotAppendedTo)
{
    Rng rng(19);
    const auto configs =
        space::dedupe(space::uniformRandomSet(rng, 4));
    ASSERT_EQ(configs.size(), 4u);
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        (void)repo.evaluate(spec(), configs[0]);
        (void)repo.evaluate(spec(), configs[1]);
    }
    ASSERT_TRUE(appendFileSync(binPath(), "torn"));

    // New records must not land behind the torn tail, where they
    // would be misaligned and lost on every later load.
    {
        const CounterDelta d;
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        for (const auto &cfg : configs)
            (void)repo.evaluate(spec(), cfg);
        EXPECT_EQ(d("repo/miss"), 2u);
        EXPECT_EQ(d("repo/dropped"), 1u);
    }
    EXPECT_EQ(std::filesystem::file_size(binPath()), 24u + 4u * 88u);

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    for (const auto &cfg : configs)
        (void)repo.evaluate(spec(), cfg);
    EXPECT_EQ(d("repo/miss"), 0u);
    EXPECT_EQ(d("repo/loaded"), 4u);
    EXPECT_EQ(d("repo/dropped"), 0u);
}

TEST_F(RepositoryTest, FlushEveryBatchesFirstWriteThenAppends)
{
    const auto &cycle = sim::perfModel("cycle");
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    repo.setFlushEvery(2);
    Rng rng(43);
    const auto configs =
        space::dedupe(space::uniformRandomSet(rng, 4));
    ASSERT_EQ(configs.size(), 4u);

    // One unsaved record stays buffered.
    (void)repo.evaluate(spec(), configs[0], &cycle);
    EXPECT_EQ(d("repo/flushed"), 0u);
    EXPECT_FALSE(std::filesystem::exists(binPath()));

    // The second reaches the threshold: the store file is created
    // atomically with both records.
    (void)repo.evaluate(spec(), configs[1], &cycle);
    EXPECT_EQ(d("repo/flushed"), 2u);
    EXPECT_TRUE(std::filesystem::exists(binPath()));

    // With the file in place, records 3-4 take the unlocked append
    // fast path, again only once the threshold is reached.
    (void)repo.evaluate(spec(), configs[2], &cycle);
    EXPECT_EQ(d("repo/flushed"), 2u);
    (void)repo.evaluate(spec(), configs[3], &cycle);
    EXPECT_EQ(d("repo/flushed"), 4u);
    EXPECT_EQ(std::filesystem::file_size(binPath()), 24u + 4u * 88u);

    const CounterDelta reread;
    EvalRepository reopened(workload::specSuite(60000), dir_, 0);
    for (const auto &cfg : configs)
        (void)reopened.evaluate(spec(), cfg, &cycle);
    EXPECT_EQ(reread("repo/miss"), 0u);
    EXPECT_EQ(reread("repo/loaded"), 4u);
}

TEST_F(RepositoryTest, CorruptHeaderRegeneratesCache)
{
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        (void)repo.evaluate(spec(), paperBaselineConfig());
    }
    {
        // Clobber the magic; the file must be ignored, not trusted.
        std::fstream f(binPath(),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.put('X');
    }
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto r = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 1u);
    EXPECT_GT(r.efficiency, 0.0);

    // The regenerated file is valid again after flush.
    repo.flush();
    const CounterDelta reread;
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    (void)repo2.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(reread("repo/miss"), 0u);
}

TEST_F(RepositoryTest, ConcurrentGathersShareOneRepository)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 2);
    repo.setFlushEvery(4);
    Rng rng(7);
    const auto configs = space::uniformRandomSet(rng, 8);
    auto other = spec();
    other.startInst = 30000;

    std::vector<EvalRecord> r1, r2;
    std::thread t1(
        [&] { r1 = repo.evaluateBatch(spec(), configs); });
    std::thread t2(
        [&] { r2 = repo.evaluateBatch(other, configs); });
    t1.join();
    t2.join();

    ASSERT_EQ(r1.size(), configs.size());
    ASSERT_EQ(r2.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_GT(r1[i].efficiency, 0.0);
        EXPECT_GT(r2[i].efficiency, 0.0);
    }

    // Re-running either batch is now pure cache hits, bit-exact.
    const CounterDelta rerun;
    const auto again = repo.evaluateBatch(spec(), configs);
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_TRUE(bitIdentical(again[i], r1[i]));
    EXPECT_EQ(rerun("repo/miss"), 0u);
    EXPECT_EQ(rerun("repo/hit"), configs.size());
}

TEST_F(RepositoryTest, ConcurrentInlineBatchesShareOneRepository)
{
    // With threads = 0 every batch runs inline on its caller's
    // thread, so two callers evaluate into one repository at once,
    // racing on the same phases.  Results must be bit-identical to
    // serial calls.
    Rng rng(11);
    const auto configs = space::uniformRandomSet(rng, 6);
    auto other = spec();
    other.startInst = 30000;

    std::vector<EvalRecord> serial_a, serial_b;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        serial_a = repo.evaluateBatch(spec(), configs);
        serial_b = repo.evaluateBatch(other, configs);
    }
    std::filesystem::remove_all(dir_);

    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    repo.setFlushEvery(2);
    std::vector<EvalRecord> a1, b1, a2, b2;
    std::thread t1([&] {
        a1 = repo.evaluateBatch(spec(), configs);
        b1 = repo.evaluateBatch(other, configs);
    });
    std::thread t2([&] {
        b2 = repo.evaluateBatch(other, configs);
        a2 = repo.evaluateBatch(spec(), configs);
    });
    t1.join();
    t2.join();

    ASSERT_EQ(a1.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_TRUE(bitIdentical(a1[i], serial_a[i])) << i;
        EXPECT_TRUE(bitIdentical(a2[i], serial_a[i])) << i;
        EXPECT_TRUE(bitIdentical(b1[i], serial_b[i])) << i;
        EXPECT_TRUE(bitIdentical(b2[i], serial_b[i])) << i;
    }
}

TEST_F(RepositoryTest, ConcurrentWarmsOfOnePhaseMatchSerialEvaluation)
{
    // Two threads evaluate disjoint configurations of one phase, so
    // they share, and race to build, that phase's warm memo.  Every
    // record must equal a serial evaluation bit for bit, on both
    // backends.
    Rng rng(17);
    const auto configs = space::uniformRandomSet(rng, 16);
    for (const char *name : {"cycle", "interval"}) {
        const auto &model = sim::perfModel(name);
        std::vector<EvalRecord> serial;
        {
            EvalRepository repo(workload::specSuite(60000), dir_, 0);
            for (const auto &cfg : configs)
                serial.push_back(repo.evaluate(spec(), cfg, &model));
        }
        std::filesystem::remove_all(dir_);

        {
            const CounterDelta d;
            EvalRepository repo(workload::specSuite(60000), dir_, 0);
            std::vector<EvalRecord> got(configs.size());
            const auto every_other = [&](std::size_t first) {
                for (std::size_t i = first; i < configs.size(); i += 2)
                    got[i] = repo.evaluate(spec(), configs[i], &model);
            };
            std::thread t1(every_other, 0);
            std::thread t2(every_other, 1);
            t1.join();
            t2.join();
            EXPECT_EQ(d("repo/miss"), configs.size()) << name;
            for (std::size_t i = 0; i < configs.size(); ++i) {
                EXPECT_TRUE(bitIdentical(got[i], serial[i]))
                    << name << ' ' << i;
            }
        }
        std::filesystem::remove_all(dir_);
    }
}

TEST_F(RepositoryTest, WarmMemoEvictionKeepsRecordsBitExact)
{
    // The repository keeps the warm memo of one phase: evaluating
    // other phases and then returning to the first rebuilds that
    // phase's memo, and its records must not change.
    Rng rng(19);
    const auto configs = space::uniformRandomSet(rng, 4);
    std::vector<PhaseSpec> phases;
    for (const std::uint64_t start : {20000, 26000, 32000, 38000}) {
        auto s = spec();
        s.startInst = start;
        phases.push_back(s);
    }

    std::vector<EvalRecord> reference;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        for (const auto &cfg : configs)
            reference.push_back(repo.evaluate(phases[0], cfg));
    }
    std::filesystem::remove_all(dir_);

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    std::vector<EvalRecord> got{repo.evaluate(phases[0], configs[0])};
    for (std::size_t p = 1; p < phases.size(); ++p)
        (void)repo.evaluate(phases[p], configs[0]);
    for (std::size_t i = 1; i < configs.size(); ++i)
        got.push_back(repo.evaluate(phases[0], configs[i]));
    // One memo per phase, then the first phase's once more.
    EXPECT_EQ(d("repo/warm_memo/builds"), phases.size() + 1);
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_TRUE(bitIdentical(got[i], reference[i])) << i;
}

TEST_F(RepositoryTest, TraceCacheReplayIsBitExact)
{
    // From the second configuration on, the warm and detail traces
    // replay from the repository's trace cache.  Each evaluation must
    // equal a hand-built cycle-level run on freshly generated traces:
    // the phase's wrong-path seed, the reference warm-up of the warm
    // window, then the detail window.
    Rng rng(13);
    const auto configs = space::uniformRandomSet(rng, 4);
    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);

    const PhaseSpec s = spec();
    const auto wl = workload::specBenchmark(s.workload, s.programLength);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto got = repo.evaluate(s, configs[i]);

        workload::WrongPathGenerator wp(wl.averageParams(),
                                        wl.seed() ^ 0x57a71cULL);
        const auto cc = uarch::CoreConfig::fromConfiguration(configs[i]);
        uarch::Core core(cc, wp);
        core.warm(wl.generate(s.startInst - s.warmLength, s.warmLength));
        const auto m = power::computeMetrics(
            cc, core.run(wl.generate(s.startInst, s.detailLength)).events);
        EvalRecord want;
        want.cycles = m.cycles;
        want.instructions = m.instructions;
        want.seconds = m.seconds;
        want.joules = m.joules;
        want.ipc = m.ipc;
        want.watts = m.watts;
        want.efficiency = m.efficiency;
        EXPECT_TRUE(bitIdentical(got, want)) << i;
    }
    // One generation per window; every later evaluation replayed.
    EXPECT_EQ(d("tracecache/misses"), 2u);
    EXPECT_EQ(d("tracecache/hits"), 2 * (configs.size() - 1));
}

TEST_F(RepositoryTest, TruncatedProfileIsReSimulated)
{
    ProfileRecord good;
    {
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        good = repo.profile(spec());
    }
    ASSERT_EQ(good.basic.size(), counters::featureDimension(
                                     counters::FeatureSet::Basic));
    ASSERT_EQ(good.advanced.size(),
              counters::featureDimension(
                  counters::FeatureSet::Advanced));

    // Truncate the advanced line: some doubles still parse, so the
    // old loader would have accepted a short vector and poisoned
    // every later feature assembly.
    const std::string path = dir_ + "/" + spec().key() + ".features";
    {
        std::ifstream in(path);
        std::string basic_line;
        ASSERT_TRUE(std::getline(in, basic_line));
        std::ofstream out(path, std::ios::trunc);
        out << basic_line << "\n1.0 2.0 3.0\n";
    }

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto again = repo.profile(spec());
    EXPECT_EQ(d("repo/miss"), 1u);   // fell back, re-simulated
    ASSERT_EQ(again.advanced.size(), good.advanced.size());
    for (std::size_t i = 0; i < good.advanced.size(); ++i)
        EXPECT_NEAR(again.advanced[i], good.advanced[i], 1e-6);

    // The re-simulation repaired the on-disk record.
    const CounterDelta reread;
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    (void)repo2.profile(spec());
    EXPECT_EQ(reread("repo/miss"), 0u);
}

TEST_F(RepositoryTest, UnknownWorkloadIsFatal)
{
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    PhaseSpec bad{"nonexistent", 60000, 0, 100, 100};
    EXPECT_EXIT((void)repo.evaluate(bad, paperBaselineConfig()),
                ::testing::ExitedWithCode(1), "unknown workload");
}

namespace
{

/** Hand-built format-1 cache image: 24-byte header (version 1) plus
 *  one 72-byte record without a backend tag. */
std::string
v1CacheImage(std::uint64_t code, const EvalRecord &r)
{
    std::string bytes("ADSIMEVC", 8);
    putU64(bytes, 1);
    putU64(bytes, fnv1a64(bytes.data(), 16));
    const std::size_t start = bytes.size();
    putU64(bytes, code);
    putDouble(bytes, r.cycles);
    putDouble(bytes, r.instructions);
    putDouble(bytes, r.seconds);
    putDouble(bytes, r.joules);
    putDouble(bytes, r.ipc);
    putDouble(bytes, r.watts);
    putDouble(bytes, r.efficiency);
    putU64(bytes, fnv1a64(bytes.data() + start, 64));
    return bytes;
}

/** Hand-built format-2 cache image: 24-byte header (version 2) plus
 *  one 80-byte record without the reserved word. */
std::string
v2CacheImage(std::uint64_t tag, std::uint64_t code,
             const EvalRecord &r)
{
    std::string bytes("ADSIMEVC", 8);
    putU64(bytes, 2);
    putU64(bytes, fnv1a64(bytes.data(), 16));
    const std::size_t start = bytes.size();
    putU64(bytes, code);
    putU64(bytes, tag);
    putDouble(bytes, r.cycles);
    putDouble(bytes, r.instructions);
    putDouble(bytes, r.seconds);
    putDouble(bytes, r.joules);
    putDouble(bytes, r.ipc);
    putDouble(bytes, r.watts);
    putDouble(bytes, r.efficiency);
    putU64(bytes, fnv1a64(bytes.data() + start, 72));
    return bytes;
}

/** Hand-built current-format (version-3) cache image: 24-byte
 *  header plus one 88-byte record, laid out byte by byte so the test
 *  pins the on-disk format independently of the writer. */
std::string
v3CacheImage(std::uint64_t tag, std::uint64_t code,
             const EvalRecord &r, std::uint64_t reserved = 0)
{
    std::string bytes("ADSIMEVC", 8);
    putU64(bytes, 3);
    putU64(bytes, fnv1a64(bytes.data(), 16));
    const std::size_t start = bytes.size();
    putU64(bytes, code);
    putU64(bytes, tag);
    putU64(bytes, reserved);
    putDouble(bytes, r.cycles);
    putDouble(bytes, r.instructions);
    putDouble(bytes, r.seconds);
    putDouble(bytes, r.joules);
    putDouble(bytes, r.ipc);
    putDouble(bytes, r.watts);
    putDouble(bytes, r.efficiency);
    putU64(bytes, fnv1a64(bytes.data() + start, 80));
    return bytes;
}

} // namespace

TEST_F(RepositoryTest, PreV3BinaryCacheIsRegenerated)
{
    // Version-1 and version-2 files are not read at all: the store
    // is a regenerable cache, so the record is re-simulated (never
    // half-read as the wrong layout), nothing counts as dropped, and
    // the flush replaces the file with a version-3 one.
    const EvalRecord fake{100.0, 1500.0, 0.5, 0.25, 1.5, 2.5, 42.0};
    const std::uint64_t code = paperBaselineConfig().encode();
    const std::string images[] = {
        v1CacheImage(code, fake),
        v2CacheImage(sim::CycleLevelModel::kCacheTag, code, fake)};
    for (const auto &image : images) {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        ASSERT_TRUE(atomicWriteFile(binPath(), image));
        {
            const CounterDelta d;
            EvalRepository repo(workload::specSuite(60000), dir_, 0);
            const auto r = repo.evaluate(spec(), paperBaselineConfig());
            EXPECT_EQ(d("repo/miss"), 1u);
            EXPECT_FALSE(bitIdentical(r, fake));
            EXPECT_EQ(r.instructions, 1500.0);
            EXPECT_EQ(d("repo/loaded"), 0u);
            EXPECT_EQ(d("repo/dropped"), 0u);
            repo.flush();
        }
        const auto bytes = readFile(binPath());
        ASSERT_EQ(bytes.size(), 24u + 88u);
        EXPECT_EQ(getU64(bytes.data() + 8), 3u);

        const CounterDelta reread;
        EvalRepository repo2(workload::specSuite(60000), dir_, 0);
        (void)repo2.evaluate(spec(), paperBaselineConfig());
        EXPECT_EQ(reread("repo/miss"), 0u);
        EXPECT_EQ(reread("repo/loaded"), 1u);
    }
}

TEST_F(RepositoryTest, V3BinaryCacheLoadsWithoutSimulation)
{
    // A store in today's format — hand-built, not written by this
    // repository — is served bit-exact with zero simulations.
    const EvalRecord fake{200.0, 1500.0, 0.4, 0.3, 1.2, 2.0, 37.0};
    const std::uint64_t code = paperBaselineConfig().encode();
    std::filesystem::create_directories(dir_);
    ASSERT_TRUE(atomicWriteFile(
        binPath(),
        v3CacheImage(sim::CycleLevelModel::kCacheTag, code, fake)));

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto served = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 0u);
    EXPECT_EQ(d("repo/hit"), 1u);
    EXPECT_EQ(d("repo/loaded"), 1u);
    EXPECT_TRUE(bitIdentical(served, fake));
}

TEST_F(RepositoryTest, NonzeroReservedSlotIsNeverServed)
{
    // The u64 after the backend tag is reserved and always written
    // as 0.  A record carrying anything else is no record this build
    // wrote: it is dropped and counted, the evaluation re-simulates,
    // and the next flush rewrites the file with the slot zeroed.
    const EvalRecord fake{200.0, 1500.0, 0.4, 0.3, 1.2, 2.0, 37.0};
    const std::uint64_t code = paperBaselineConfig().encode();
    std::filesystem::create_directories(dir_);
    ASSERT_TRUE(atomicWriteFile(
        binPath(), v3CacheImage(sim::CycleLevelModel::kCacheTag, code,
                                fake, 0xfeedULL)));

    const CounterDelta d;
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    const auto got = repo.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(d("repo/miss"), 1u);
    EXPECT_EQ(d("repo/hit"), 0u);
    EXPECT_EQ(d("repo/loaded"), 0u);
    EXPECT_EQ(d("repo/dropped"), 1u);
    EXPECT_FALSE(bitIdentical(got, fake));

    repo.flush();
    const auto bytes = readFile(binPath());
    ASSERT_EQ(bytes.size(), 24u + 88u);
    EXPECT_EQ(getU64(bytes.data() + 24), code);
    EXPECT_EQ(getU64(bytes.data() + 24 + 16), 0u);
}

TEST_F(RepositoryTest, BackendsNeverShareCacheEntries)
{
    // The same (phase, configuration) under different backends must
    // be two distinct cache entries, in memory and on disk.
    const auto &cycle = sim::perfModel("cycle");
    const auto &interval = sim::perfModel("interval");
    EvalRecord by_cycle, by_interval;
    {
        const CounterDelta d;
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        by_cycle =
            repo.evaluate(spec(), paperBaselineConfig(), &cycle);
        by_interval =
            repo.evaluate(spec(), paperBaselineConfig(), &interval);
        EXPECT_EQ(d("repo/miss"), 2u);
        EXPECT_EQ(d("repo/hit"), 0u);
        EXPECT_NE(by_cycle.cycles, by_interval.cycles);
        EXPECT_EQ(d("backend/cycle/evals"), 1u);
        EXPECT_EQ(d("backend/interval/evals"), 1u);
        repo.flush();
    }

    // Both records round-trip from disk to the right backend.
    const CounterDelta reread;
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    const auto cycle_again =
        repo2.evaluate(spec(), paperBaselineConfig(), &cycle);
    const auto interval_again =
        repo2.evaluate(spec(), paperBaselineConfig(), &interval);
    EXPECT_EQ(reread("repo/miss"), 0u);
    EXPECT_EQ(reread("repo/hit"), 2u);
    EXPECT_TRUE(bitIdentical(cycle_again, by_cycle));
    EXPECT_TRUE(bitIdentical(interval_again, by_interval));

    // A default-backend evaluate hits the cycle-tagged entry.
    const auto default_again =
        repo2.evaluate(spec(), paperBaselineConfig());
    EXPECT_EQ(reread("repo/miss"), 0u);
    EXPECT_TRUE(bitIdentical(default_again, by_cycle));
}

TEST_F(RepositoryTest, TwoBackendTagsNeverCollide)
{
    // cycle and interval evaluations of the same point are two
    // distinct entries; per-backend counts sum to the total
    // simulation count and each survives a disk round trip.
    const auto &cycle = sim::perfModel("cycle");
    const auto &interval = sim::perfModel("interval");

    EvalRecord by_cycle, by_interval;
    {
        const CounterDelta d;
        EvalRepository repo(workload::specSuite(60000), dir_, 0);
        by_cycle =
            repo.evaluate(spec(), paperBaselineConfig(), &cycle);
        by_interval =
            repo.evaluate(spec(), paperBaselineConfig(), &interval);
        EXPECT_EQ(d("repo/miss"), 2u);
        EXPECT_EQ(d("repo/hit"), 0u);
        EXPECT_EQ(d("backend/interval/evals"), 1u);
        EXPECT_EQ(d("backend/cycle/evals") +
                      d("backend/interval/evals"),
                  d("repo/miss"));
        repo.flush();
    }

    const CounterDelta reread;
    EvalRepository repo2(workload::specSuite(60000), dir_, 0);
    EXPECT_TRUE(bitIdentical(
        repo2.evaluate(spec(), paperBaselineConfig(), &cycle),
        by_cycle));
    EXPECT_TRUE(bitIdentical(
        repo2.evaluate(spec(), paperBaselineConfig(), &interval),
        by_interval));
    EXPECT_EQ(reread("repo/miss"), 0u);
    EXPECT_EQ(reread("repo/hit"), 2u);
}

TEST_F(RepositoryTest, ZeroLengthDetailWindowYieldsFiniteRecord)
{
    // Regression: a zero-instruction detail window (degenerate phase
    // boundary) must produce a well-defined all-finite record on
    // every backend, not NaNs from 0/0.
    EvalRepository repo(workload::specSuite(60000), dir_, 0);
    PhaseSpec empty_spec{"gzip", 60000, 20000, 2000, 0};
    for (const char *name : {"cycle", "interval"}) {
        const auto r = repo.evaluate(empty_spec, paperBaselineConfig(),
                                     &sim::perfModel(name));
        EXPECT_EQ(r.instructions, 0.0) << name;
        for (const double v :
             {r.cycles, r.seconds, r.joules, r.ipc, r.watts,
              r.efficiency}) {
            EXPECT_TRUE(std::isfinite(v)) << name;
            EXPECT_GE(v, 0.0) << name;
        }
    }
}
