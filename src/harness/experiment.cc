#include "harness/experiment.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "workload/spec_suite.hh"

namespace adaptsim::harness
{

namespace
{

/**
 * The LOOCV prediction cache file for @p data, keyed by everything
 * the predictions depend on: the training data itself (which carries
 * the backend, gather seed, sweep and phase set through its evals
 * and features) and every trainer knob.
 */
std::string
loocvCachePath(const std::string &dir, counters::FeatureSet set,
               const std::vector<ml::PhaseData> &data,
               const ml::TrainerOptions &t)
{
    std::string bytes;
    for (const auto &d : data) {
        putString(bytes, d.workload);
        putU64(bytes, d.phaseIndex);
        putDouble(bytes, d.weight);
        putU64(bytes, d.features.size());
        for (double f : d.features)
            putDouble(bytes, f);
        putU64(bytes, d.evals.size());
        for (const auto &e : d.evals) {
            putU64(bytes, e.config.encode());
            putDouble(bytes, e.efficiency);
        }
    }
    putDouble(bytes, t.lambda);
    putDouble(bytes, t.goodThreshold);
    putU64(bytes, t.cg.maxIterations);

    std::ostringstream os;
    os << dir << "/loocv_" << counters::featureSetName(set)
       << '_' << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a64(bytes.data(), bytes.size()) << ".csv";
    return os.str();
}

} // namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opt;
    const double scale = experimentScale();
    opt.programLength = static_cast<std::uint64_t>(
        opt.programLength * scale);
    opt.intervalLength = static_cast<std::uint64_t>(
        opt.intervalLength * scale);
    opt.warmLength = static_cast<std::uint64_t>(
        opt.warmLength * scale);
    opt.gather.sharedRandomConfigs = static_cast<std::size_t>(
        opt.gather.sharedRandomConfigs * scale);
    opt.gather.localNeighbours = static_cast<std::size_t>(
        opt.gather.localNeighbours * scale);
    opt.dataDir = adaptsim::dataDir();
    opt.threads = numThreads();
    return opt;
}

Experiment::Experiment(ExperimentOptions options)
    : opt_(std::move(options))
{
    if (opt_.dataDir.empty())
        opt_.dataDir = adaptsim::dataDir();
    repo_ = std::make_unique<EvalRepository>(
        workload::specSuite(opt_.programLength), opt_.dataDir,
        opt_.threads);
}

void
Experiment::prepare()
{
    if (prepared_)
        return;
    prepared_ = true;

    sharedPool_ = sharedConfigPool(opt_.gather);

    // Extract SimPoint phases for every program.
    std::vector<phase::Phase> all_phases;
    phase::SimPointOptions sp;
    sp.intervalLength = opt_.intervalLength;
    sp.maxPhases = opt_.phasesPerProgram;
    for (const auto &name : workload::specNames()) {
        const auto &wl = repo_->workload(name);
        auto ph = phase::extractPhases(wl, sp);
        all_phases.insert(all_phases.end(), ph.begin(), ph.end());
    }
    inform("experiment: extracted ", all_phases.size(),
           " phases; gathering training data (cached in ",
           opt_.dataDir, ")");

    phases_ = gatherTrainingData(*repo_, all_phases,
                                 opt_.programLength,
                                 opt_.warmLength, opt_.gather);

    for (std::size_t i = 0; i < phases_.size(); ++i)
        byProgram_[phases_[i].phase.workload].push_back(i);

    inform("experiment: gather complete (", phases_.size(),
           " phases)");
}

const std::vector<GatheredPhase> &
Experiment::phases()
{
    prepare();
    return phases_;
}

const std::vector<space::Configuration> &
Experiment::sharedPool()
{
    prepare();
    return sharedPool_;
}

const space::Configuration &
Experiment::baselineConfig()
{
    prepare();
    if (!baseline_)
        baseline_ = bestStaticConfig(phases_, sharedPool_);
    return *baseline_;
}

double
Experiment::baselineEfficiency(std::size_t idx)
{
    return efficiencyOn(phases()[idx], baselineConfig());
}

const std::map<std::string, std::vector<std::size_t>> &
Experiment::phasesByProgram()
{
    prepare();
    return byProgram_;
}

std::vector<ModelResult>
Experiment::computeModelResults(counters::FeatureSet set)
{
    prepare();

    std::vector<ml::PhaseData> data;
    data.reserve(phases_.size());
    for (const auto &g : phases_)
        data.push_back(g.toPhaseData(set));
    const std::string path =
        loocvCachePath(opt_.dataDir, set, data, opt_.trainer);

    std::vector<ModelResult> results(phases_.size());
    bool loaded = false;

    // Try the prediction cache first: LOOCV retrains the model once
    // per held-out program, and a cached run skips every one of those
    // trainings.
    {
        std::ifstream in(path);
        if (in) {
            // Served only if every line is exactly `index,code` and
            // every phase index has one: decode() accepts any code,
            // so a damaged line would be served as a prediction, and
            // a missing phase would keep a default configuration.
            std::vector<bool> seen(results.size(), false);
            std::size_t count = 0;
            bool damaged = false;
            std::string line;
            while (std::getline(in, line)) {
                std::istringstream ls(line);
                std::size_t idx;
                std::uint64_t code;
                char comma;
                if (!(ls >> std::noskipws >> idx >> comma >> code) ||
                    comma != ',' || !ls.eof() ||
                    idx >= results.size()) {
                    damaged = true;
                    break;
                }
                results[idx].config = space::Configuration::decode(code);
                if (!seen[idx]) {
                    seen[idx] = true;
                    ++count;
                }
            }
            loaded = !damaged && count == results.size();
        }
    }

    if (!loaded) {
        inform("experiment: training LOOCV models (",
               counters::featureSetName(set), " counters)");
        const auto predictions =
            ml::leaveOneProgramOut(data, opt_.trainer);
        for (const auto &p : predictions)
            results[p.phaseIdx].config = p.predicted;

        std::ostringstream os;
        for (std::size_t i = 0; i < results.size(); ++i)
            os << i << ',' << results[i].config.encode() << '\n';
        if (!atomicWriteFile(path, os.str()))
            warn("cannot persist LOOCV predictions to ", path);
    }

    // Evaluate every prediction on its phase (cached simulations),
    // on the backend the training data was gathered on.
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].efficiency =
            repo_->evaluate(phases_[i].spec, results[i].config,
                            opt_.gather.backend)
                .efficiency;
    }
    repo_->flush();
    return results;
}

const std::vector<ModelResult> &
Experiment::modelResults(counters::FeatureSet set)
{
    auto &slot = set == counters::FeatureSet::Advanced ?
        advancedResults_ : basicResults_;
    if (!slot)
        slot = computeModelResults(set);
    return *slot;
}

double
Experiment::relativeEfficiency(
    const std::vector<std::size_t> &idxs,
    const std::function<double(std::size_t)> &efficiency_of)
{
    prepare();
    double log_sum = 0.0;
    double weight_sum = 0.0;
    for (std::size_t idx : idxs) {
        const double base = baselineEfficiency(idx);
        const double eff = efficiency_of(idx);
        if (base <= 0.0 || eff <= 0.0)
            continue;
        const double w = phases_[idx].phase.weight > 0.0 ?
            phases_[idx].phase.weight : 1.0;
        log_sum += w * std::log(eff / base);
        weight_sum += w;
    }
    return weight_sum > 0.0 ? std::exp(log_sum / weight_sum) : 0.0;
}

} // namespace adaptsim::harness
