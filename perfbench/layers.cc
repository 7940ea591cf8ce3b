#include <algorithm>

#include "bench.hh"

namespace adaptsim::perfbench
{

namespace
{

/** The benchmark's own spans, by span name → metric name. */
const std::vector<std::pair<std::string, std::string>> kSpanMetrics = {
    {"phase.extract", "phase.extract_s"},
    {"harness.gather", "harness.gather_s"},
    {"harness.evaluate", "harness.evaluate_s"},
    {"ml.loocv", "ml.loocv_s"},
    {"ml.train", "ml.train_s"},
    {"control.static", "control.static_s"},
    {"control.adaptive", "control.adaptive_s"},
    {"control.chip_static", "control.chip_static_s"},
    {"control.chip_adaptive", "control.chip_adaptive_s"},
};

double
counterOf(const obs::Snapshot &s, const std::string &name)
{
    for (const auto &[n, v] : s.counters) {
        if (n == name)
            return double(v);
    }
    return 0.0;
}

double
histogramSumOf(const obs::Snapshot &s, const std::string &name)
{
    for (const auto &[n, h] : s.histograms) {
        if (n == name)
            return h.sum;
    }
    return 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

const Metrics &
layerMetricTemplate()
{
    static const Metrics all = [] {
        Metrics m;
        for (const auto &[span, metric] : kSpanMetrics)
            m[metric] = {0.0, "s"};
        for (const char *n :
             {"harness.repo.hit", "harness.repo.miss",
              "harness.repo.loaded", "harness.repo.flushed",
              "harness.memo.hit", "harness.memo.miss",
              "harness.memo.escalated", "workload.tracecache.hits",
              "workload.tracecache.misses", "sim.cycle.evals",
              "sim.interval.evals", "uarch.committed_ops",
              "uarch.cycles", "control.reconfigurations"})
            m[n] = {0.0, "count"};
        for (const char *n :
             {"harness.repo.simulate_s", "harness.repo.profile_s",
              "harness.pool.busy_s", "harness.pool.capacity_s",
              "harness.pool.queue_wait_s", "sim.cycle.run_s",
              "sim.interval.run_s", "uarch.run_s", "uarch.warm_s",
              "uarch.chip_run_s", "control.profile_s",
              "control.predict_s", "unattributed_s",
              "trace_overhead_s", "trace.traced_wall_s",
              "trace.untraced_wall_s"})
            m[n] = {0.0, "s"};
        for (const char *n :
             {"harness.repo.hit_ratio", "harness.memo.hit_ratio",
              "harness.pool.busy_ratio",
              "workload.tracecache.hit_ratio"})
            m[n] = {0.0, "ratio"};
        m["uarch.uops_per_s"] = {0.0, "uops/s"};
        m["result.model_eff"] = {0.0, "ips3/W"};
        m["result.static_eff"] = {0.0, "ips3/W"};
        m["result.cycle_ipc"] = {0.0, "IPC"};
        return m;
    }();
    return all;
}

Metrics
layerMetrics(const obs::Snapshot &before, const obs::Snapshot &after,
             const std::vector<Span> &spans, int op, int setup_op,
             double op_wall_s)
{
    Metrics m = layerMetricTemplate();
    const auto count = [&](const std::string &obs_name) {
        return counterOf(after, obs_name) - counterOf(before, obs_name);
    };
    const auto secs = [&](const std::string &obs_name) {
        return histogramSumOf(after, obs_name + ".seconds") -
               histogramSumOf(before, obs_name + ".seconds");
    };

    const auto span_total = [&](const std::string &name, int id) {
        double total = 0.0;
        for (const auto &s : spans) {
            if (s.op == id && s.name == name)
                total += s.end - s.start;
        }
        return total;
    };
    const auto has_span = [&](const std::string &name, int id) {
        return std::any_of(spans.begin(), spans.end(), [&](const Span &s) {
            return s.op == id && s.name == name;
        });
    };
    for (const auto &[span, metric] : kSpanMetrics) {
        m[metric].value = span_total(span, has_span(span, op) ? op
                                                              : setup_op);
    }
    double top_level = 0.0;
    for (const auto &s : spans) {
        if (s.op == op && s.parent < 0)
            top_level += s.end - s.start;
    }
    m["unattributed_s"].value = op_wall_s - top_level;

    const double hit = count("repo/hit"), miss = count("repo/miss");
    m["harness.repo.hit"].value = hit;
    m["harness.repo.miss"].value = miss;
    m["harness.repo.loaded"].value = count("repo/loaded");
    m["harness.repo.flushed"].value = count("repo/flushed");
    m["harness.repo.hit_ratio"].value = ratio(hit, hit + miss);
    m["harness.repo.simulate_s"].value = secs("repo/simulate");
    m["harness.repo.profile_s"].value = secs("repo/profile");

    const double mhit = count("gather/memo/hit");
    const double mmiss = count("gather/memo/miss");
    const double mesc = count("gather/memo/escalated");
    m["harness.memo.hit"].value = mhit;
    m["harness.memo.miss"].value = mmiss;
    m["harness.memo.escalated"].value = mesc;
    m["harness.memo.hit_ratio"].value = ratio(mhit, mhit + mmiss + mesc);

    const double busy = count("pool/busy.micros") * 1e-6;
    const double capacity = count("pool/capacity.micros") * 1e-6;
    m["harness.pool.busy_s"].value = busy;
    m["harness.pool.capacity_s"].value = capacity;
    m["harness.pool.busy_ratio"].value = ratio(busy, capacity);
    m["harness.pool.queue_wait_s"].value = secs("pool/queue_wait");

    const double thit = count("tracecache/hits");
    const double tmiss = count("tracecache/misses");
    m["workload.tracecache.hits"].value = thit;
    m["workload.tracecache.misses"].value = tmiss;
    m["workload.tracecache.hit_ratio"].value = ratio(thit, thit + tmiss);

    m["sim.cycle.evals"].value = count("backend/cycle/evals");
    m["sim.cycle.run_s"].value = secs("sim/run/cycle");
    m["sim.interval.evals"].value = count("backend/interval/evals");
    m["sim.interval.run_s"].value = secs("sim/run/interval");

    const double ops = count("uarch/committed_ops");
    const double run_s = secs("uarch/run");
    m["uarch.committed_ops"].value = ops;
    m["uarch.cycles"].value = count("uarch/cycles");
    m["uarch.run_s"].value = run_s;
    m["uarch.warm_s"].value = secs("uarch/warm");
    m["uarch.uops_per_s"].value = ratio(ops, run_s);
    m["uarch.chip_run_s"].value = secs("uarch/chip_run");

    m["control.profile_s"].value =
        secs("control/profile") + secs("control/chip_profile");
    m["control.predict_s"].value = secs("control/predict");
    m["control.reconfigurations"].value =
        count("control/reconfigurations") +
        count("control/chip_reconfigurations");
    return m;
}

} // namespace adaptsim::perfbench
