/**
 * @file
 * The repository benchmark: four workloads over the public adaptsim
 * API, the benchmark's own span tracer, and the per-layer metrics it
 * derives from those spans and from obs registry snapshots.
 *
 * See README.md in this directory for why each workload exists and
 * which layers it loads.
 */

#ifndef ADAPTSIM_PERFBENCH_BENCH_HH
#define ADAPTSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace adaptsim::perfbench
{

/** Seed used when none is given. */
constexpr std::uint64_t kDefaultSeed = 2010;

/** Names of the workloads, in the order `run.py` runs them. */
const std::vector<std::string> &workloadNames();

/** One span the benchmark recorded around a public call. */
struct Span
{
    std::string name;
    double start = 0.0;   ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;      ///< index into Tracer::spans(), -1 = top
    int op = -1;          ///< operation id; -1 = set-up
};

/**
 * In-memory span recorder for the benchmark's own calls into the
 * library.  Single-threaded: every call the benchmark times is made
 * from its main thread.  When disabled, scopes record nothing.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Operation id stamped on subsequent spans (-1 = set-up). */
    void setOp(int op) { op_ = op; }

    double now() const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    int op_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

/** What one operation produced. */
struct OpResult
{
    /** FNV-1a over the operation's outputs in canonical order. */
    std::uint64_t hash = 0;
    double modelVsStatic = 0.0;   ///< x; see README.md per workload
    double ipcMae = 0.0;          ///< IPC
    double modelEff = 0.0;        ///< numerator of modelVsStatic
    double staticEff = 0.0;       ///< denominator of modelVsStatic
    double cycleIpc = 0.0;        ///< mean reference IPC of ipcMae
};

/** One benchmark workload: set-up once, then repeatable operations. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything that must happen before timing starts. */
    virtual void setup(Tracer &tracer) = 0;

    /** One full pass of the workload's work; identical every call. */
    virtual OpResult run(Tracer &tracer) = 0;
};

/**
 * Build workload @p name.  @p seed permutes the order in which the
 * work items are presented (see README.md); @p dir is a directory
 * the workload owns and may fill.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::filesystem::path &dir);

/** Pinned output hash of @p name's operation (any seed). */
std::uint64_t pinnedHash(const std::string &name);

/** A fresh directory, removed again when the object is destroyed. */
class FreshDir
{
  public:
    explicit FreshDir(std::filesystem::path p);
    ~FreshDir();
    FreshDir(const FreshDir &) = delete;
    FreshDir &operator=(const FreshDir &) = delete;

    const std::filesystem::path &path() const { return path_; }

  private:
    std::filesystem::path path_;
};

/** A per-layer metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/**
 * Per-layer metrics of one traced operation: the library's obs
 * counters and span histograms as differences @p after − @p before,
 * plus the benchmark's own spans of operation @p op.  A span name
 * that operation @p op never records (work done only in set-up, such
 * as ml.train on control) is reported from the set-up whose spans
 * carry id @p setup_op instead.
 */
Metrics layerMetrics(const obs::Snapshot &before,
                     const obs::Snapshot &after,
                     const std::vector<Span> &spans, int op,
                     int setup_op, double op_wall_s);

/** Names and units of every per-layer metric layerMetrics() emits. */
const Metrics &layerMetricTemplate();

} // namespace adaptsim::perfbench

#endif // ADAPTSIM_PERFBENCH_BENCH_HH
