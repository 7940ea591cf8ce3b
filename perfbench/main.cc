/**
 * @file
 * adaptbench: run one benchmark workload and print its metrics.
 *
 *   adaptbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * Set-up runs before any timing (several times, so set-up time is a
 * median too); then whole operations run one at a time until
 * --seconds have been measured, and at least kMinOps of them.  Every
 * operation's output hash is checked against its pin.  The last line
 * of standard output is one JSON object: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1 (operations then
 * alternate untraced/traced, so the tracing overhead is measured in
 * the same process).  Run from the repository root; all files go
 * under ./.bench_work and are removed at exit, except the span dump
 * a traced run leaves there.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hh"

extern char **environ;

using namespace adaptsim;
using namespace adaptsim::perfbench;

namespace
{

namespace fs = std::filesystem;

constexpr int kMinOps = 2;
constexpr int kMaxOps = 200;

/** Set-up repetitions per run, fewer for the set-ups that gather.
 *  paper_warm's set-up (two pipeline passes, ~19 s) runs once so a
 *  run stays inside the benchmark's time budget. */
int
setupRepeats(const std::string &workload)
{
    if (workload == "paper_warm")
        return 1;
    return workload == "control" ? 2 : 3;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is KiB
}

/** Every ADAPTSIM_* knob changes the work done; refuse them all. */
std::vector<std::string>
adaptsimEnv()
{
    std::vector<std::string> set;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "ADAPTSIM_", 9) == 0)
            set.emplace_back(*e, std::strcspn(*e, "="));
    }
    return set;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace" && (v == "0" || v == "1")) {
            a.trace = v == "1";
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    const auto &names = workloadNames();
    return argc % 2 == 1 && a.seconds > 0.0 &&
           std::find(names.begin(), names.end(), a.workload) !=
               names.end();
}

void
printJsonMetrics(const Metrics &m)
{
    std::printf("\"metrics\": {");
    const char *sep = "";
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), metric.value, metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}");
}

void
writeSpans(const fs::path &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %d, \"op\": %d}%s\n",
                      i, s.name.c_str(), s.start, s.end, s.parent, s.op,
                      i + 1 < spans.size() ? "," : "");
        out << line;
    }
    out << "]\n";
}

int
runBench(const Args &args, std::chrono::steady_clock::time_point start)
{
    const fs::path root = fs::current_path() / ".bench_work";
    const FreshDir work(root / (args.workload + "-" +
                                  std::to_string(long(getpid()))));

    Tracer tracer;
    tracer.setEnabled(args.trace);

    std::vector<double> setup_s;
    std::unique_ptr<Workload> wl;
    const int setups = setupRepeats(args.workload);
    for (int rep = 0; rep < setups; ++rep) {
        const auto t0 =
            rep == 0 ? start : std::chrono::steady_clock::now();
        wl.reset();
        tracer.setOp(-1 - rep);
        wl = makeWorkload(args.workload, args.seed,
                          work.path() / ("setup" + std::to_string(rep)));
        wl->setup(tracer);
        setup_s.push_back(secondsSince(t0));
        std::printf("setup %d: %.3f s\n", rep, setup_s.back());
    }

    const std::uint64_t pin = pinnedHash(args.workload);
    std::vector<double> untraced_wall, traced_wall;
    std::vector<Metrics> layers;
    OpResult last;
    int attempted = 0, failed = 0;
    double measured = 0.0;
    while ((attempted < kMinOps || measured < args.seconds) &&
           attempted < kMaxOps) {
        const int op = attempted++;
        const bool traced = args.trace && op % 2 == 1;
        tracer.setEnabled(traced);
        tracer.setOp(op);
        obs::Snapshot before;
        if (traced)
            before = obs::Registry::global().snapshot();

        const auto t0 = std::chrono::steady_clock::now();
        bool ok = false;
        try {
            last = wl->run(tracer);
            ok = last.hash == pin;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "op %d failed: %s\n", op, e.what());
        }
        const double wall = secondsSince(t0);
        measured += wall;
        failed += ok ? 0 : 1;
        std::printf("op %d: %.3f s, hash 0x%016llx (%s)%s\n", op, wall,
                    (unsigned long long)last.hash,
                    ok ? "ok" : "MISMATCH", traced ? " traced" : "");

        (traced ? traced_wall : untraced_wall).push_back(wall);
        if (traced) {
            layers.push_back(layerMetrics(
                before, obs::Registry::global().snapshot(),
                tracer.spans(), op, -setups, wall));
        }
    }

    Metrics out;
    if (args.trace) {
        for (const auto &[name, tmpl] : layerMetricTemplate()) {
            std::vector<double> v;
            for (const auto &m : layers)
                v.push_back(m.at(name).value);
            out[name] = {median(v), tmpl.unit};
        }
        out["trace.traced_wall_s"].value = median(traced_wall);
        out["trace.untraced_wall_s"].value = median(untraced_wall);
        out["trace_overhead_s"].value =
            median(traced_wall) - median(untraced_wall);
        out["result.model_eff"].value = last.modelEff;
        out["result.static_eff"].value = last.staticEff;
        out["result.cycle_ipc"].value = last.cycleIpc;
        writeSpans(root / ("spans-" + args.workload + ".json"),
                   tracer.spans());
    } else {
        out["wall_s"] = {median(untraced_wall), "s"};
        out["setup_s"] = {median(setup_s), "s"};
        out["peak_rss_mb"] = {peakRssMib(), "MiB"};
        out["model_vs_static"] = {last.modelVsStatic, "x"};
        out["ipc_mae"] = {last.ipcMae, "IPC"};
    }

    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, ",
                failed == 0 ? "true" : "false", attempted, failed);
    printJsonMetrics(out);
    std::printf("}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = std::chrono::steady_clock::now();
    // One malloc arena: with per-thread arenas, peak RSS depends on
    // which pool worker allocated what and varied by 25% run to run.
    mallopt(M_ARENA_MAX, 1);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: adaptbench --workload NAME [--seed N] "
                     "[--seconds S] [--trace 0|1]\n");
        return 2;
    }
    if (const auto env = adaptsimEnv(); !env.empty()) {
        std::fprintf(stderr,
                     "adaptbench: refusing to run with %s set; every "
                     "ADAPTSIM_* variable changes the work measured\n",
                     env.front().c_str());
        return 2;
    }
    try {
        return runBench(args, start);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "adaptbench: %s\n", e.what());
        return 1;
    }
}
