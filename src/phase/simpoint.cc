#include "phase/simpoint.hh"

#include <algorithm>
#include <limits>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "phase/kmeans.hh"

namespace adaptsim::phase
{

std::vector<Bbv>
intervalBbvs(const workload::Workload &wl,
             std::uint64_t interval_length)
{
    const std::uint64_t total = wl.totalInstructions();
    const std::uint64_t num_intervals = total / interval_length;
    if (num_intervals == 0)
        fatal("workload ", wl.name(), " shorter than one interval");
    const std::uint64_t end = num_intervals * interval_length;

    // A segment's stream restarts at the segment start, so every
    // segment overlapping [0, end) is one job: job j walks
    // [bounds[j], bounds[j + 1]) from its start with its own cursor.
    std::vector<std::uint64_t> bounds{0};
    for (const auto &seg : wl.segments()) {
        if (bounds.back() == end)
            break;
        bounds.push_back(std::min(end, bounds.back() + seg.length));
    }
    const std::size_t jobs = bounds.size() - 1;
    const auto first_interval = [&](std::size_t j) {
        return bounds[j] / interval_length;
    };

    // Job j counts blocks into unnormalised partials of the intervals
    // it touches, in chunks that end at interval boundaries.
    std::vector<std::vector<Bbv>> partials(jobs);
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(numThreads(), jobs)));
    pool.parallelFor(jobs, [&](std::size_t j) {
        const std::uint64_t first = first_interval(j);
        auto &mine = partials[j];
        mine.resize((bounds[j + 1] - 1) / interval_length - first + 1);
        workload::Workload::Cursor cursor;
        for (std::uint64_t pos = bounds[j]; pos < bounds[j + 1];) {
            const std::uint64_t i = pos / interval_length;
            const std::uint64_t stop =
                std::min(bounds[j + 1], (i + 1) * interval_length);
            Bbv &bbv = mine[i - first];
            for (const auto &op : wl.generate(pos, stop - pos, cursor))
                bbv.addOp(op);
            pos = stop;
        }
    });

    // An interval straddling segment ends sums its partials in
    // segment order.  The counts are whole numbers, so each sum is
    // exact and every BBV equals Bbv::ofTrace of its interval.
    std::vector<Bbv> bbvs(num_intervals);
    for (std::size_t j = 0; j < jobs; ++j) {
        for (std::size_t k = 0; k < partials[j].size(); ++k)
            bbvs[first_interval(j) + k] += partials[j][k];
    }
    for (auto &bbv : bbvs)
        bbv.normalise();
    return bbvs;
}

std::vector<Phase>
extractPhases(const workload::Workload &wl,
              const SimPointOptions &options)
{
    const auto bbvs = intervalBbvs(wl, options.intervalLength);

    std::vector<std::vector<double>> points;
    points.reserve(bbvs.size());
    for (const auto &bbv : bbvs)
        points.push_back(bbv.values());

    Rng rng(options.seed ^
            std::hash<std::string>{}(wl.name()));
    const auto clusters =
        kmeans(points, options.maxPhases, rng);

    const std::size_t k = clusters.centroids.size();
    // Representative = interval closest to its cluster centroid.
    std::vector<std::size_t> rep(k, ~std::size_t(0));
    std::vector<double> rep_d(
        k, std::numeric_limits<double>::max());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::size_t c = clusters.assignment[i];
        double d = 0.0;
        for (std::size_t j = 0; j < points[i].size(); ++j) {
            const double diff =
                points[i][j] - clusters.centroids[c][j];
            d += diff * diff;
        }
        if (d < rep_d[c]) {
            rep_d[c] = d;
            rep[c] = i;
        }
    }

    std::vector<Phase> phases;
    for (std::size_t c = 0; c < k; ++c) {
        if (rep[c] == ~std::size_t(0))
            continue;   // empty cluster
        Phase p;
        p.workload = wl.name();
        p.startInst = rep[c] * options.intervalLength;
        p.lengthInsts = options.intervalLength;
        p.weight = double(clusters.clusterSizes[c]) /
                   double(points.size());
        p.signature = bbvs[rep[c]];
        phases.push_back(std::move(p));
    }
    // Order by position and index them.
    std::sort(phases.begin(), phases.end(),
              [](const Phase &a, const Phase &b) {
                  return a.startInst < b.startInst;
              });
    for (std::size_t i = 0; i < phases.size(); ++i)
        phases[i].index = i;
    return phases;
}

} // namespace adaptsim::phase
