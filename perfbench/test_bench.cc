/**
 * @file
 * Tests of the benchmark itself: operations are repeatable and match
 * their pins whatever the seed, paper_warm's set-up reaches the memo
 * fixed point, and every derived ratio is reported with its base.
 */

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench.hh"

using namespace adaptsim;
using namespace adaptsim::perfbench;

namespace
{

namespace fs = std::filesystem;

fs::path
workDir(const std::string &name)
{
    const auto p = fs::current_path() / "test_work" / name;
    fs::remove_all(p);
    return p;
}

double
counter(const obs::Snapshot &s, const std::string &name)
{
    for (const auto &[n, v] : s.counters) {
        if (n == name)
            return double(v);
    }
    return 0.0;
}

} // namespace

TEST(PerfBench, OperationRepeatsItsPinnedHash)
{
    for (const char *name : {"gather_interval", "control"}) {
        Tracer tracer;
        const auto dir = workDir(name);
        auto wl = makeWorkload(name, kDefaultSeed, dir);
        wl->setup(tracer);
        const auto first = wl->run(tracer);
        const auto second = wl->run(tracer);
        EXPECT_EQ(first.hash, second.hash) << name;
        EXPECT_EQ(first.hash, pinnedHash(name)) << name;
        EXPECT_EQ(first.modelVsStatic, second.modelVsStatic) << name;
        EXPECT_EQ(first.ipcMae, second.ipcMae) << name;
        wl.reset();
        fs::remove_all(dir);
    }
}

TEST(PerfBench, SeedPermutesOrderNotOutputs)
{
    Tracer tracer;
    std::vector<std::uint64_t> hashes;
    for (std::uint64_t seed : {1, 77}) {
        const auto dir = workDir("seed" + std::to_string(seed));
        auto wl = makeWorkload("gather_interval", seed, dir);
        wl->setup(tracer);
        hashes.push_back(wl->run(tracer).hash);
        wl.reset();
        fs::remove_all(dir);
    }
    EXPECT_EQ(hashes[0], hashes[1]);
    EXPECT_EQ(hashes[0], pinnedHash("gather_interval"));
}

TEST(PerfBench, PaperWarmSetupReachesMemoFixedPoint)
{
    Tracer tracer;
    const auto dir = workDir("paper_warm");
    auto wl = makeWorkload("paper_warm", 5, dir);
    wl->setup(tracer);
    const auto before = obs::Registry::global().snapshot();
    const auto r = wl->run(tracer);
    const auto after = obs::Registry::global().snapshot();
    EXPECT_EQ(counter(after, "repo/miss") - counter(before, "repo/miss"),
              0.0);
    for (const char *name : {"gather/memo/miss", "gather/memo/escalated"})
        EXPECT_EQ(counter(after, name) - counter(before, name), 0.0)
            << name;
    EXPECT_GT(counter(after, "gather/memo/hit") -
                  counter(before, "gather/memo/hit"),
              0.0);
    EXPECT_EQ(r.hash, pinnedHash("paper_warm"));
    wl.reset();
    fs::remove_all(dir);
}

TEST(PerfBench, DerivedRatiosComeWithTheirBases)
{
    obs::Snapshot before, after;
    after.counters = {{"gather/memo/escalated", 1},
                      {"gather/memo/hit", 6},
                      {"gather/memo/miss", 1},
                      {"pool/busy.micros", 3000000},
                      {"pool/capacity.micros", 4000000},
                      {"repo/hit", 30},
                      {"repo/miss", 10},
                      {"tracecache/hits", 9},
                      {"tracecache/misses", 1},
                      {"uarch/committed_ops", 500}};
    obs::HistogramStats run;
    run.sum = 2.0;
    after.histograms = {{"uarch/run.seconds", run}};

    const auto m = layerMetrics(before, after, {}, 0, -1, 1.0);
    EXPECT_DOUBLE_EQ(m.at("harness.repo.hit_ratio").value,
                     m.at("harness.repo.hit").value /
                         (m.at("harness.repo.hit").value +
                          m.at("harness.repo.miss").value));
    EXPECT_DOUBLE_EQ(m.at("harness.memo.hit_ratio").value, 0.75);
    EXPECT_DOUBLE_EQ(m.at("harness.pool.busy_ratio").value,
                     m.at("harness.pool.busy_s").value /
                         m.at("harness.pool.capacity_s").value);
    EXPECT_DOUBLE_EQ(m.at("workload.tracecache.hit_ratio").value, 0.9);
    EXPECT_DOUBLE_EQ(m.at("uarch.uops_per_s").value,
                     m.at("uarch.committed_ops").value /
                         m.at("uarch.run_s").value);

    // The end-to-end ratio model_vs_static has both its bases, and
    // the tracing overhead both of its walls.
    for (const char *base :
         {"result.model_eff", "result.static_eff", "result.cycle_ipc",
          "trace.traced_wall_s", "trace.untraced_wall_s"})
        EXPECT_TRUE(layerMetricTemplate().count(base)) << base;
}

TEST(PerfBench, SpansAttributeOperationTimeOrFallBackToSetup)
{
    std::vector<Span> spans = {
        {"ml.train", 0.0, 2.0, -1, -1},
        {"harness.gather", 10.0, 13.0, -1, 0},
        {"harness.evaluate", 11.0, 12.0, 1, 0},
        {"ml.loocv", 13.0, 14.5, -1, 0},
    };
    const obs::Snapshot empty;
    const auto m = layerMetrics(empty, empty, spans, 0, -1, 5.0);
    EXPECT_DOUBLE_EQ(m.at("harness.gather_s").value, 3.0);
    EXPECT_DOUBLE_EQ(m.at("harness.evaluate_s").value, 1.0);
    EXPECT_DOUBLE_EQ(m.at("ml.train_s").value, 2.0);
    // Only top-level spans count against the operation's wall time.
    EXPECT_DOUBLE_EQ(m.at("unattributed_s").value, 0.5);
}

TEST(PerfBench, BenchmarkJsonListsEveryLayerMetric)
{
    std::ifstream in(PERFBENCH_JSON);
    ASSERT_TRUE(in);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    const auto per_layer = json.substr(json.find("\"per_layer\""));
    std::set<std::string> listed;
    const std::regex name_re("\"name\": \"([^\"]+)\"");
    for (std::sregex_iterator it(per_layer.begin(), per_layer.end(),
                                 name_re),
         end;
         it != end; ++it)
        listed.insert((*it)[1]);
    std::set<std::string> emitted;
    for (const auto &[name, metric] : layerMetricTemplate())
        emitted.insert(name);
    EXPECT_EQ(listed, emitted);
}
