/**
 * @file
 * Tests of the obs subsystem: registry counters and timers,
 * concurrent increments (exercised under TSan by scripts/tier1.sh),
 * the exit-time JSON dump and summary table, and a golden-structure
 * check that the Chrome trace output is valid JSON made of complete
 * events.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/serial.hh"
#include "harness/gather.hh"
#include "ml/conjugate_gradient.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "scratch_dir.hh"
#include "uarch/chip.hh"
#include "workload/spec_suite.hh"

using adaptsim::obs::Histogram;
using adaptsim::obs::Registry;
using adaptsim::obs::TraceWriter;
using adaptsim::test::scratchDir;

TEST(Registry, CounterMergesAcrossThreads)
{
    Registry reg;
    auto &c = reg.counter("test/hits");
    c.add(5);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 1000; ++i)
                c.add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    // Writer threads have exited; their adds outlive them.
    EXPECT_EQ(c.value(), 4005u);
}

TEST(Registry, ConcurrentIncrementsWithConcurrentReads)
{
    Registry reg;
    auto &c = reg.counter("test/contended");

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        std::uint64_t last = 0;
        while (!stop.load()) {
            const std::uint64_t now = c.value();
            EXPECT_GE(now, last);   // monotone under writers
            last = now;
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < 8; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < 10000; ++i)
                c.add(1);
        });
    }
    for (auto &t : writers)
        t.join();
    stop.store(true);
    reader.join();

    EXPECT_EQ(c.value(), 80000u);
}

TEST(Registry, HistogramCountSumMinMax)
{
    Registry reg;
    auto &h = reg.histogram("test/lat");

    // An empty timer reads all zeros, not ±infinity.
    auto st = h.stats();
    EXPECT_EQ(st.count, 0u);
    EXPECT_EQ(st.sum, 0.0);
    EXPECT_EQ(st.min, 0.0);
    EXPECT_EQ(st.max, 0.0);
    EXPECT_EQ(st.mean(), 0.0);

    // Not in ascending order, so min and max are not first and last.
    for (const double v : {1.0001, 0.5, 4.0, 1.0, 5.0, 2.0})
        h.record(v);

    st = h.stats();
    EXPECT_EQ(st.count, 6u);
    EXPECT_DOUBLE_EQ(st.min, 0.5);
    EXPECT_DOUBLE_EQ(st.max, 5.0);
    EXPECT_NEAR(st.sum, 0.5 + 1.0 + 1.0001 + 2.0 + 4.0 + 5.0, 1e-9);
    EXPECT_NEAR(st.mean(), st.sum / 6.0, 1e-12);
}

TEST(Registry, HistogramMergesAcrossThreads)
{
    Registry reg;
    auto &h = reg.histogram("test/merge");

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 250; ++i)
                h.record(double(t + 1));
        });
    }
    for (auto &t : threads)
        t.join();

    const auto st = h.stats();
    EXPECT_EQ(st.count, 1000u);
    EXPECT_DOUBLE_EQ(st.min, 1.0);
    EXPECT_DOUBLE_EQ(st.max, 4.0);
    EXPECT_NEAR(st.sum, 250.0 * (1 + 2 + 3 + 4), 1e-9);
    EXPECT_NEAR(st.mean(), 2.5, 1e-9);
}

TEST(Registry, SameNameReturnsSameHandle)
{
    Registry reg;
    EXPECT_EQ(&reg.counter("dup"), &reg.counter("dup"));
    EXPECT_EQ(&reg.histogram("duph"), &reg.histogram("duph"));
}

TEST(Registry, NameOfTheOtherKindPanics)
{
    Registry reg;
    reg.counter("taken/c");
    reg.histogram("taken/h");
    EXPECT_DEATH(reg.histogram("taken/c"),
                 "already registered as a counter");
    EXPECT_DEATH(reg.counter("taken/h"),
                 "already registered as a histogram");
}

TEST(Registry, SnapshotSortedByName)
{
    Registry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.histogram("h").record(0.5);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "a");
    EXPECT_EQ(snap.counters[0].second, 1u);
    EXPECT_EQ(snap.counters[1].first, "b");
    EXPECT_EQ(snap.counters[1].second, 2u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

namespace
{

/**
 * Minimal recursive-descent JSON validator (no external deps).
 * Returns true iff the whole input is one valid JSON value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string_view text) : s_(text) {}

    bool valid() { return value() && (ws(), pos_ == s_.size()); }

  private:
    void ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool lit(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_;   // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}')
            return ++pos_, true;
        for (;;) {
            ws();
            if (!string())
                return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_++] != ':')
                return false;
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') { ++pos_; continue; }
            return s_[pos_++] == '}';
        }
    }

    bool array()
    {
        ++pos_;   // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']')
            return ++pos_, true;
        for (;;) {
            if (!value())
                return false;
            ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') { ++pos_; continue; }
            return s_[pos_++] == ']';
        }
    }

    bool string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;   // raw control char: bad escape
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_++])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
        }
        return false;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

/** All `"ph":"?"` phase letters appearing in a trace JSON. */
std::vector<char>
phases(const std::string &json)
{
    std::vector<char> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
        pos += 6;
        if (pos < json.size())
            out.push_back(json[pos]);
    }
    return out;
}

} // namespace

TEST(Trace, JsonEscape)
{
    EXPECT_EQ(adaptsim::obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(adaptsim::obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(adaptsim::obs::jsonEscape(std::string(1, '\x01')),
              "\\u0001");
}

TEST(Trace, ChromeTraceIsValidJsonOfCompleteEvents)
{
    const std::string dir = scratchDir("adaptsim_obs_test");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace.json";
    std::filesystem::remove(path);

    {
        TraceWriter writer(path);
        writer.nameCurrentThread("main");

        const auto t0 = TraceWriter::Clock::now();
        writer.completeEvent(
            "outer", t0, t0 + std::chrono::microseconds(300));
        writer.completeEvent(
            "inner \"quoted\"", t0 + std::chrono::microseconds(10),
            t0 + std::chrono::microseconds(20));

        std::thread other([&] {
            writer.nameCurrentThread("worker");
            const auto s = TraceWriter::Clock::now();
            writer.completeEvent(
                "job", s, s + std::chrono::microseconds(50));
        });
        other.join();

        EXPECT_TRUE(writer.finish());
    }

    const std::string json = adaptsim::readFile(path);
    ASSERT_FALSE(json.empty());

    // Structurally valid JSON with the Chrome trace envelope.
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Every event is either complete ('X') or metadata ('M') —
    // nothing needs B/E matching — and both threads appear.
    const auto ph = phases(json);
    ASSERT_EQ(ph.size(), 5u);
    int x = 0, m = 0;
    for (const char p : ph) {
        EXPECT_TRUE(p == 'X' || p == 'M') << p;
        (p == 'X' ? x : m)++;
    }
    EXPECT_EQ(x, 3);
    EXPECT_EQ(m, 2);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("worker"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Trace, FinishFirstCallWins)
{
    const std::string dir = scratchDir("adaptsim_obs_test");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/trace_twice.json";

    TraceWriter writer(path);
    const auto t0 = TraceWriter::Clock::now();
    writer.completeEvent("only", t0,
                         t0 + std::chrono::microseconds(5));
    EXPECT_TRUE(writer.finish());
    const auto first = adaptsim::readFile(path);

    // Later events and finishes are ignored.
    writer.completeEvent("late", t0,
                         t0 + std::chrono::microseconds(5));
    writer.finish();
    EXPECT_EQ(adaptsim::readFile(path), first);
    std::filesystem::remove_all(dir);
}

TEST(Metrics, JsonCarriesEveryCounterAndTimer)
{
    auto &reg = Registry::global();
    reg.counter("test/json \"quoted\"").add(7);
    auto &busy = reg.histogram("test/json.busy.seconds");
    for (const double v : {1.5, 0.5, 2.25})
        busy.record(v);
    reg.histogram("test/json.idle.seconds");   // never recorded

    const std::string json = adaptsim::obs::metricsJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_EQ(json.find("\"gauges\""), std::string::npos);
    EXPECT_EQ(json.find("\"bounds\""), std::string::npos);
    EXPECT_EQ(json.find("\"counts\""), std::string::npos);

    const auto key = [](const std::string &name) {
        return '"' + adaptsim::obs::jsonEscape(name) + "\":";
    };
    const auto snap = reg.snapshot();
    ASSERT_FALSE(snap.counters.empty());
    ASSERT_FALSE(snap.histograms.empty());
    for (const auto &[name, value] : snap.counters) {
        EXPECT_NE(json.find(key(name) + std::to_string(value)),
                  std::string::npos)
            << name;
    }
    for (const auto &[name, st] : snap.histograms) {
        std::ostringstream os;
        os.precision(17);
        os << key(name) << "{\"count\":" << st.count
           << ",\"sum\":" << st.sum << ",\"min\":" << st.min
           << ",\"max\":" << st.max << '}';
        EXPECT_NE(json.find(os.str()), std::string::npos) << os.str();
    }

    // The values this test wrote, spelled out.
    EXPECT_NE(json.find("\"test/json \\\"quoted\\\"\":7"),
              std::string::npos);
    EXPECT_NE(json.find("\"test/json.busy.seconds\":{\"count\":3,"
                        "\"sum\":4.25,\"min\":0.5,\"max\":2.25}"),
              std::string::npos);
    EXPECT_NE(json.find("\"test/json.idle.seconds\":{\"count\":0,"
                        "\"sum\":0,\"min\":0,\"max\":0}"),
              std::string::npos);
}

TEST(Metrics, ReportTimerColumns)
{
    Registry::global().histogram("test/report.seconds").record(0.25);

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    adaptsim::obs::report(out);
    std::rewind(out);
    std::string text;
    char buf[4096];
    while (const std::size_t n = std::fread(buf, 1, sizeof buf, out))
        text.append(buf, n);
    std::fclose(out);

    const auto nl = text.find("\ntimer");
    ASSERT_NE(nl, std::string::npos) << text;
    const std::string line =
        text.substr(nl + 1, text.find('\n', nl + 1) - (nl + 1));
    for (const char *col : {"count", "total", "mean", "min", "max"})
        EXPECT_NE(line.find(col), std::string::npos) << line;
    EXPECT_EQ(line.find("p50"), std::string::npos) << line;
    EXPECT_NE(text.find("test/report.seconds"), std::string::npos);
}

TEST(Span, RecordsIntoGlobalRegistryAndTrace)
{
    const std::string dir = scratchDir("adaptsim_obs_test");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/span_trace.json";

    TraceWriter writer(path);
    TraceWriter::setActive(&writer);
    {
        OBS_SPAN("test/span");
        OBS_COUNTER("test/span.visits").add(1);
    }
    TraceWriter::setActive(nullptr);

    EXPECT_GE(
        Registry::global().histogram("test/span.seconds").stats().count,
        1u);
    EXPECT_GE(
        Registry::global().counter("test/span.visits").value(), 1u);

    ASSERT_TRUE(writer.finish());
    const std::string json = adaptsim::readFile(path);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("test/span"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Registry, PerCoreLabelledCountersMergeAcrossThreads)
{
    // One `chip/core/<i>/...` label per worker thread, the way the
    // chip loop emits them: the merge must keep the labels distinct
    // and lose nothing when the writer threads retire.
    Registry reg;
    constexpr int kCores = 4;
    std::vector<std::thread> threads;
    for (int c = 0; c < kCores; ++c) {
        threads.emplace_back([&reg, c] {
            auto &ctr = reg.counter("chip/core/" +
                                    std::to_string(c) + "/quanta");
            for (int i = 0; i < 250 * (c + 1); ++i)
                ctr.add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int c = 0; c < kCores; ++c) {
        EXPECT_EQ(reg.counter("chip/core/" + std::to_string(c) +
                              "/quanta")
                      .value(),
                  std::uint64_t(250 * (c + 1)))
            << c;
    }
    EXPECT_EQ(reg.snapshot().counters.size(), std::size_t(kCores));
}

namespace
{

/** Timed 2-core co-run; returns the per-core committed-op counts. */
std::vector<std::uint64_t>
runTwoCoreChip()
{
    using namespace adaptsim;
    const auto a = workload::specBenchmark("gzip", 100000);
    const auto b = workload::specBenchmark("gap", 100000);
    workload::WrongPathGenerator wa(a.averageParams(),
                                    a.seed() ^ 0x57a71cULL);
    workload::WrongPathGenerator wb(b.averageParams(),
                                    b.seed() ^ 0x57a71cULL);
    uarch::Chip chip(uarch::ChipConfig::homogeneous(
                         harness::paperBaselineConfig(), 2),
                     {&wa, &wb});
    const auto ta = a.generate(0, 5000);
    const auto tb = b.generate(0, 5000);
    const auto res = chip.run({ta, tb});
    return {res.cores[0].events.committedOps,
            res.cores[1].events.committedOps};
}

} // namespace

TEST(ChipObs, ChipRunEmitsPerCoreLabelledCounters)
{
    auto &reg = Registry::global();
    std::vector<std::uint64_t> ops_before, quanta_before;
    for (int c = 0; c < 2; ++c) {
        const std::string base = "chip/core/" + std::to_string(c);
        ops_before.push_back(
            reg.counter(base + "/committed_ops").value());
        quanta_before.push_back(
            reg.counter(base + "/quanta").value());
    }

    const auto committed = runTwoCoreChip();

    for (int c = 0; c < 2; ++c) {
        const std::string base = "chip/core/" + std::to_string(c);
        EXPECT_EQ(reg.counter(base + "/committed_ops").value() -
                      ops_before[c],
                  committed[c])
            << c;
        // 5000 µops at the 2000-µop Chip::quantum: 3 slices.
        EXPECT_EQ(reg.counter(base + "/quanta").value() -
                      quanta_before[c],
                  3u)
            << c;
    }
}

namespace
{

/** f(w) = (w - 3)²: from 0, CG rejects the unit step, lands on the
 *  minimum at half of it, and converges on its second iteration. */
class ShiftedSquare : public adaptsim::ml::Objective
{
  public:
    double value(const std::vector<double> &w) override
    {
        at_ = w[0];
        return (at_ - 3.0) * (at_ - 3.0);
    }

    void gradient(std::vector<double> &grad) override
    {
        grad.assign(1, 2.0 * (at_ - 3.0));
    }

  private:
    double at_ = 0.0;
};

/** One CG run on ShiftedSquare from 0. */
void
minimiseShiftedSquare()
{
    ShiftedSquare f;
    std::vector<double> w = {0.0};
    adaptsim::ml::minimiseCg(f, w);
}

const char *const kCgCounters[] = {
    "ml/cg/runs", "ml/cg/iterations", "ml/cg/value_evals",
    "ml/cg/gradient_evals", "ml/cg/converged"};

} // namespace

TEST(CgObs, CountsOneRunOnAKnownQuadratic)
{
    auto &reg = Registry::global();
    std::vector<std::uint64_t> before;
    for (const char *name : kCgCounters)
        before.push_back(reg.counter(name).value());

    minimiseShiftedSquare();

    // 1 run; 2 iterations; values at 0, 6 (rejected) and 3;
    // gradients at 0 and 3; converged.
    const std::uint64_t expect[] = {1, 2, 3, 2, 1};
    for (std::size_t i = 0; i < std::size(kCgCounters); ++i) {
        EXPECT_EQ(reg.counter(kCgCounters[i]).value() - before[i],
                  expect[i])
            << kCgCounters[i];
    }
}
