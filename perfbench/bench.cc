#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "common/rng.hh"
#include "control/chip_controller.hh"
#include "harness/baselines.hh"
#include "harness/gather.hh"
#include "ml/cross_validation.hh"
#include "ml/trainer.hh"
#include "sim/perf_model.hh"
#include "space/sampling.hh"
#include "workload/spec_suite.hh"
#include "workload/trace_cache.hh"

namespace adaptsim::perfbench
{

namespace
{

namespace fs = std::filesystem;

// Geometry shared by every workload (fixed here, never from the env).
constexpr std::uint64_t kProgramLength = 400000;
constexpr std::uint64_t kDetail = 6000;
constexpr std::uint64_t kWarm = 12000;
constexpr std::size_t kPhasesPerProgram = 4;
constexpr unsigned kThreads = 2;
constexpr std::size_t kTraceCacheCapacity = 48;

// Held-out configurations for gather_interval's ipc_mae.
constexpr std::uint64_t kHeldOutSeed = 0x4e1d07;
constexpr std::size_t kHeldOutConfigs = 6;

// control: donors train the model, unseen programs are controlled.
constexpr std::uint64_t kControlInterval = 5000;
constexpr std::size_t kControlPhases = 3;
constexpr std::uint64_t kControlRun = 120000;
constexpr std::uint64_t kChipRun = 60000;

const std::vector<std::string> kPaperPrograms = {
    "gcc", "mcf", "swim", "crafty", "art", "parser"};
const std::vector<std::string> kDonors = {"swim", "crafty", "mcf",
                                          "mesa"};
const std::vector<std::string> kUnseen = {"gap", "equake", "gzip",
                                          "vortex"};
const std::vector<std::string> kChipMix = {"mcf", "gcc"};

/** FNV-1a over the bit patterns of everything added. */
class Hasher
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::vector<workload::Workload>
suiteOf(const std::vector<std::string> &names)
{
    std::vector<workload::Workload> suite;
    for (const auto &n : names)
        suite.push_back(workload::specBenchmark(n, kProgramLength));
    return suite;
}

/** The seed's work order: a permutation of [0, n). */
template <typename T>
std::vector<T>
permuted(std::vector<T> items, std::uint64_t seed, std::uint64_t salt)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBounded(i)]);
    return items;
}

/** Per-program phase-weighted geomean of ratio(i), then the geomean
 *  across programs — the Fig. 4 aggregation. */
double
programGeomean(const std::vector<harness::GatheredPhase> &phases,
               const std::function<double(std::size_t)> &value)
{
    std::map<std::string, std::pair<double, double>> per_program;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const double v = value(i);
        if (!(v > 0.0))
            throw std::runtime_error("non-positive efficiency");
        const double w = phases[i].phase.weight > 0.0 ?
            phases[i].phase.weight : 1.0;
        auto &[log_sum, weight] = per_program[phases[i].phase.workload];
        log_sum += w * std::log(v);
        weight += w;
    }
    double log_sum = 0.0;
    for (const auto &[name, acc] : per_program)
        log_sum += acc.first / acc.second;
    return std::exp(log_sum / double(per_program.size()));
}

/** SimPoint phases of @p programs, extracted in @p order. */
std::vector<phase::Phase>
extractAll(Tracer &tracer, harness::EvalRepository &repo,
           const std::vector<std::string> &order,
           std::uint64_t interval, std::size_t max_phases)
{
    phase::SimPointOptions sp;
    sp.intervalLength = interval;
    sp.maxPhases = max_phases;
    std::vector<phase::Phase> all;
    for (const auto &name : order) {
        Tracer::Scope s(tracer, "phase.extract");
        auto ph = phase::extractPhases(repo.workload(name), sp);
        all.insert(all.end(), ph.begin(), ph.end());
    }
    return all;
}

/** Put gathered phases back in (program list, phase index) order so
 *  everything downstream is independent of the seed's work order. */
void
canonicalise(std::vector<harness::GatheredPhase> &phases,
             const std::vector<std::string> &programs)
{
    const auto rank = [&](const std::string &w) {
        return std::find(programs.begin(), programs.end(), w) -
               programs.begin();
    };
    std::sort(phases.begin(), phases.end(),
              [&](const auto &a, const auto &b) {
                  const auto ra = rank(a.phase.workload);
                  const auto rb = rank(b.phase.workload);
                  return ra != rb ? ra < rb
                                  : a.phase.index < b.phase.index;
              });
}

void
hashGathered(Hasher &h, const std::vector<harness::GatheredPhase> &g)
{
    for (const auto &p : g) {
        h.add(p.phase.workload);
        h.add(p.phase.startInst);
        h.add(p.phase.weight);
        h.add(std::uint64_t(p.evals.size()));
        for (const auto &e : p.evals) {
            h.add(e.config.encode());
            h.add(e.efficiency);
        }
        for (double f : p.features.basic)
            h.add(f);
        for (double f : p.features.advanced)
            h.add(f);
    }
}

/**
 * Mean |interval IPC − cycle IPC| of @p configs over @p phases; the
 * cycle records are already in @p repo (gathered), the interval ones
 * are evaluated (and stored) here.  Hashes both IPC vectors.
 */
void
intervalVsCycle(Tracer &tracer, harness::EvalRepository &repo,
                const std::vector<harness::GatheredPhase> &phases,
                const std::vector<space::Configuration> &configs,
                Hasher &h, double &mae, double &cycle_mean)
{
    Tracer::Scope s(tracer, "harness.evaluate");
    const auto &cycle = sim::perfModel("cycle");
    const auto &interval = sim::perfModel("interval");
    double err = 0.0, ref = 0.0;
    std::size_t n = 0;
    for (const auto &p : phases) {
        const auto c = repo.evaluateBatch(p.spec, configs, &cycle);
        const auto i = repo.evaluateBatch(p.spec, configs, &interval);
        for (std::size_t k = 0; k < configs.size(); ++k) {
            h.add(c[k].ipc);
            h.add(i[k].ipc);
            err += std::abs(i[k].ipc - c[k].ipc);
            ref += c[k].ipc;
            ++n;
        }
    }
    repo.flush();
    mae = err / double(n);
    cycle_mean = ref / double(n);
}

harness::GatherOptions
paperGatherOptions()
{
    harness::GatherOptions g;
    g.sharedRandomConfigs = 16;
    g.localNeighbours = 4;
    g.oneAtATimeSweep = true;
    g.progress = false;
    g.backend = &sim::perfModel("cycle");
    g.profileFeatures = true;
    return g;
}

/**
 * SimPoint phases of @p programs, extracted and then gathered (Sec.
 * V-C) in the seed's order, returned in canonical order.
 */
std::vector<harness::GatheredPhase>
gatherPrograms(Tracer &tracer, harness::EvalRepository &repo,
               const std::vector<std::string> &programs,
               std::uint64_t interval, std::size_t phases_per_program,
               std::uint64_t seed)
{
    const auto phases =
        extractAll(tracer, repo, permuted(programs, seed, 1), interval,
                   phases_per_program);
    std::vector<harness::GatheredPhase> gathered;
    {
        Tracer::Scope s(tracer, "harness.gather");
        gathered = harness::gatherTrainingData(
            repo, permuted(phases, seed, 2), kProgramLength, kWarm,
            paperGatherOptions());
    }
    canonicalise(gathered, programs);
    return gathered;
}

/**
 * The paper pipeline over the store in @p dir: SimPoint extraction,
 * the Sec. V-C gather, leave-one-program-out training on advanced
 * counters, evaluation of the predictions, and the Fig. 4 ratio
 * against the best static configuration of the shared pool.
 */
OpResult
paperPass(Tracer &tracer, const fs::path &dir, std::uint64_t seed)
{
    harness::EvalRepository repo(suiteOf(kPaperPrograms), dir.string(),
                                 kThreads);
    const auto gopt = paperGatherOptions();
    const auto gathered = gatherPrograms(
        tracer, repo, kPaperPrograms, kDetail, kPhasesPerProgram, seed);

    std::vector<ml::CvPrediction> predictions;
    {
        Tracer::Scope s(tracer, "ml.loocv");
        std::vector<ml::PhaseData> data;
        for (const auto &g : gathered)
            data.push_back(g.toPhaseData(counters::FeatureSet::Advanced));
        predictions = ml::leaveOneProgramOut(data);
    }

    std::vector<double> model_eff(gathered.size());
    {
        Tracer::Scope s(tracer, "harness.evaluate");
        for (const auto &p : predictions) {
            model_eff[p.phaseIdx] =
                repo.evaluate(gathered[p.phaseIdx].spec, p.predicted,
                              gopt.backend)
                    .efficiency;
        }
        repo.flush();
    }

    OpResult r;
    Hasher h;
    hashGathered(h, gathered);
    for (const auto &p : predictions)
        h.add(p.predicted.encode());
    for (double e : model_eff)
        h.add(e);

    const auto pool = harness::sharedConfigPool(gopt);
    const auto baseline = harness::bestStaticConfig(gathered, pool);
    h.add(baseline.encode());
    r.modelEff = programGeomean(
        gathered, [&](std::size_t i) { return model_eff[i]; });
    r.staticEff = programGeomean(gathered, [&](std::size_t i) {
        return harness::efficiencyOn(gathered[i], baseline);
    });
    r.modelVsStatic = r.modelEff / r.staticEff;
    intervalVsCycle(tracer, repo, gathered, pool, h, r.ipcMae,
                    r.cycleIpc);
    h.add(r.modelVsStatic);
    r.hash = h.value();
    return r;
}

/** paper_cold: the whole pipeline from an empty store, every op. */
class PaperCold : public Workload
{
  public:
    PaperCold(std::uint64_t seed, fs::path dir)
        : seed_(seed), dir_(std::move(dir))
    {
    }

    /** Warm the process (backend registry, obs handles, allocator)
     *  with the pipeline's first stages on one phase of one program,
     *  in a store of its own, so the first operation is not also
     *  the process's first simulation. */
    void
    setup(Tracer &tracer) override
    {
        FreshDir store(dir_ / "warmup");
        harness::EvalRepository repo(suiteOf({"gcc"}),
                                     store.path().string(), kThreads);
        gatherPrograms(tracer, repo, {"gcc"}, kDetail, 1, seed_);
    }

    OpResult
    run(Tracer &tracer) override
    {
        FreshDir store(dir_ / "store");
        return paperPass(tracer, store.path(), seed_);
    }

  private:
    std::uint64_t seed_;
    fs::path dir_;
};

/** paper_warm: the pipeline over a store at its memo fixed point. */
class PaperWarm : public Workload
{
  public:
    PaperWarm(std::uint64_t seed, fs::path dir)
        : seed_(seed), store_(dir / "store")
    {
    }

    /** A cold gather fills the store and memo index; the first
     *  memo-warm pass re-simulates what the memo's sweeps add and
     *  stores the predictions' evaluations.  After it, a pass
     *  simulates nothing (see README.md). */
    void
    setup(Tracer &tracer) override
    {
        {
            harness::EvalRepository repo(suiteOf(kPaperPrograms),
                                         store_.path().string(),
                                         kThreads);
            gatherPrograms(tracer, repo, kPaperPrograms, kDetail,
                           kPhasesPerProgram, seed_);
        }
        paperPass(tracer, store_.path(), seed_);
    }

    OpResult
    run(Tracer &tracer) override
    {
        return paperPass(tracer, store_.path(), seed_);
    }

  private:
    std::uint64_t seed_;
    FreshDir store_;
};

/** gather_interval: a cold analytical-backend gather, every op. */
class GatherInterval : public Workload
{
  public:
    GatherInterval(std::uint64_t seed, fs::path dir)
        : seed_(seed), dir_(std::move(dir))
    {
    }

    void
    setup(Tracer &tracer) override
    {
        FreshDir truth_dir(dir_ / "truth");
        harness::EvalRepository repo(suiteOf(kPaperPrograms),
                                     truth_dir.path().string(),
                                     kThreads);
        phases_ = extractAll(tracer, repo,
                             permuted(kPaperPrograms, seed_, 1),
                             kDetail, kPhasesPerProgram);

        // Held-out configurations: outside the gather's shared pool.
        Rng rng(kHeldOutSeed);
        const auto pool = harness::sharedConfigPool(options());
        for (const auto &c :
             space::uniformRandomSet(rng, 2 * kHeldOutConfigs)) {
            if (heldOut_.size() < kHeldOutConfigs &&
                std::find(pool.begin(), pool.end(), c) == pool.end())
                heldOut_.push_back(c);
        }

        Tracer::Scope s(tracer, "harness.evaluate");
        for (const auto &ph : phases_) {
            const harness::PhaseSpec spec{ph.workload, kProgramLength,
                                          ph.startInst, kWarm,
                                          ph.lengthInsts};
            for (const auto &rec : repo.evaluateBatch(
                     spec, heldOut_, &sim::perfModel("cycle")))
                truth_[key(ph)].push_back(rec.ipc);
        }
        phases_ = permuted(std::move(phases_), seed_, 2);
    }

    OpResult
    run(Tracer &tracer) override
    {
        FreshDir store(dir_ / "store");
        harness::EvalRepository repo(suiteOf(kPaperPrograms),
                                     store.path().string(), kThreads);
        const auto opt = options();
        std::vector<harness::GatheredPhase> gathered;
        {
            Tracer::Scope s(tracer, "harness.gather");
            gathered = harness::gatherTrainingData(
                repo, phases_, kProgramLength, kWarm, opt);
        }
        canonicalise(gathered, kPaperPrograms);

        OpResult r;
        Hasher h;
        hashGathered(h, gathered);
        {
            Tracer::Scope s(tracer, "harness.evaluate");
            double err = 0.0, ref = 0.0;
            std::size_t n = 0;
            for (const auto &g : gathered) {
                const auto recs =
                    repo.evaluateBatch(g.spec, heldOut_, opt.backend);
                const auto &cycle = truth_.at(key(g.phase));
                for (std::size_t k = 0; k < recs.size(); ++k) {
                    h.add(recs[k].ipc);
                    err += std::abs(recs[k].ipc - cycle[k]);
                    ref += cycle[k];
                    ++n;
                }
            }
            repo.flush();
            r.ipcMae = err / double(n);
            r.cycleIpc = ref / double(n);
        }

        // No model is trained here (profiling is off), so the
        // per-phase best of the gather — the Fig. 6 oracle — stands
        // in for the model.
        const auto baseline = harness::bestStaticConfig(
            gathered, harness::sharedConfigPool(opt));
        h.add(baseline.encode());
        r.modelEff = programGeomean(gathered, [&](std::size_t i) {
            return harness::bestDynamic(gathered[i]).efficiency;
        });
        r.staticEff = programGeomean(gathered, [&](std::size_t i) {
            return harness::efficiencyOn(gathered[i], baseline);
        });
        r.modelVsStatic = r.modelEff / r.staticEff;
        h.add(r.modelVsStatic);
        r.hash = h.value();
        return r;
    }

  private:
    static harness::GatherOptions
    options()
    {
        harness::GatherOptions g;
        g.sharedRandomConfigs = 192;
        g.localNeighbours = 48;
        g.oneAtATimeSweep = false;
        g.progress = false;
        g.backend = &sim::perfModel("interval");
        g.profileFeatures = false;
        return g;
    }

    static std::pair<std::string, std::uint64_t>
    key(const phase::Phase &p)
    {
        return {p.workload, p.startInst};
    }

    std::uint64_t seed_;
    fs::path dir_;
    std::vector<phase::Phase> phases_;
    std::vector<space::Configuration> heldOut_;
    std::map<std::pair<std::string, std::uint64_t>, std::vector<double>>
        truth_;
};

/** control: the Fig. 2 runtime loop on unseen programs and a mix. */
class Control : public Workload
{
  public:
    Control(std::uint64_t seed, fs::path dir)
        : seed_(seed), dir_(std::move(dir))
    {
        for (const auto &n : kUnseen)
            unseen_.push_back(
                workload::specBenchmark(n, kProgramLength));
        for (const auto &n : kChipMix)
            mix_.push_back(workload::specBenchmark(n, kProgramLength));
    }

    void
    setup(Tracer &tracer) override
    {
        FreshDir train_dir(dir_ / "train");
        harness::EvalRepository repo(suiteOf(kDonors),
                                     train_dir.path().string(),
                                     kThreads);
        const auto gathered =
            gatherPrograms(tracer, repo, kDonors, kControlInterval,
                           kControlPhases, seed_);
        {
            Tracer::Scope s(tracer, "ml.train");
            std::vector<ml::PhaseData> data;
            for (const auto &g : gathered)
                data.push_back(
                    g.toPhaseData(counters::FeatureSet::Advanced));
            model_ = ml::trainModel(data);
        }
        Hasher h;
        hashGathered(h, gathered);
        intervalVsCycle(tracer, repo, gathered,
                        harness::sharedConfigPool(paperGatherOptions()),
                        h, ipcMae_, cycleIpc_);
        trainHash_ = h.value();
    }

    OpResult
    run(Tracer &tracer) override
    {
        const auto &cycle = sim::perfModel("cycle");
        const auto base = harness::paperBaselineConfig();
        workload::TraceCache cache(kTraceCacheCapacity);

        // Single-core runs: the chip controller at one core.
        std::vector<std::size_t> order(unseen_.size());
        std::iota(order.begin(), order.end(), 0);
        std::vector<std::pair<control::ChipRunStats,
                              control::ChipRunStats>>
            runs(unseen_.size() + 1);
        for (std::size_t i : permuted(order, seed_, 3)) {
            const std::vector<const workload::Workload *> wl = {
                &unseen_[i]};
            const auto chip = uarch::ChipConfig::homogeneous(base, 1);
            {
                Tracer::Scope s(tracer, "control.static");
                runs[i].first = control::runStaticChip(
                    wl, base, chip, kControlRun, kControlInterval,
                    &cache, &cycle);
            }
            Tracer::Scope s(tracer, "control.adaptive");
            control::ChipController ctl(wl, model_,
                                        controllerOptions(chip, cache));
            runs[i].second = ctl.run(kControlRun);
        }

        // The contended 2-core mix.
        std::vector<const workload::Workload *> wl;
        for (const auto &w : mix_)
            wl.push_back(&w);
        auto chip = uarch::ChipConfig::homogeneous(base, wl.size());
        chip.llcBytes = 256 * 1024;
        chip.llcBanks = 4;
        chip.llcMshrsPerBank = 4;
        auto &mix_run = runs.back();
        {
            Tracer::Scope s(tracer, "control.chip_static");
            mix_run.first = control::runStaticChip(
                wl, base, chip, kChipRun, kControlInterval, &cache,
                &cycle);
        }
        {
            Tracer::Scope s(tracer, "control.chip_adaptive");
            control::ChipController ctl(wl, model_,
                                        controllerOptions(chip, cache));
            mix_run.second = ctl.run(kChipRun);
        }

        OpResult r;
        Hasher h;
        h.add(trainHash_);
        double log_adaptive = 0.0, log_static = 0.0;
        for (const auto &[st, ad] : runs) {
            for (const auto *stats : {&st, &ad}) {
                for (const auto &c : stats->cores) {
                    h.add(c.intervals);
                    h.add(c.instructions);
                    h.add(c.phaseChanges);
                    h.add(c.profilingIntervals);
                    h.add(c.reconfigurations);
                    h.add(std::uint64_t(c.reconfigCycles));
                    h.add(c.seconds);
                    h.add(c.joules);
                }
            }
            if (!(st.meanEfficiency() > 0.0 &&
                  ad.meanEfficiency() > 0.0))
                throw std::runtime_error("non-positive efficiency");
            log_static += std::log(st.meanEfficiency());
            log_adaptive += std::log(ad.meanEfficiency());
        }
        const double n = double(runs.size());
        r.modelEff = std::exp(log_adaptive / n);
        r.staticEff = std::exp(log_static / n);
        r.modelVsStatic = r.modelEff / r.staticEff;
        r.ipcMae = ipcMae_;
        r.cycleIpc = cycleIpc_;
        h.add(r.modelVsStatic);
        r.hash = h.value();
        return r;
    }

  private:
    control::ChipControllerOptions
    controllerOptions(const uarch::ChipConfig &chip,
                      workload::TraceCache &cache) const
    {
        control::ChipControllerOptions o;
        o.intervalLength = kControlInterval;
        o.initialConfig = harness::paperBaselineConfig();
        o.chip = chip;
        o.traceCache = &cache;
        o.backend = &sim::perfModel("cycle");
        return o;
    }

    std::uint64_t seed_;
    fs::path dir_;
    std::vector<workload::Workload> unseen_;
    std::vector<workload::Workload> mix_;
    ml::AdaptivityModel model_;
    double ipcMae_ = 0.0;
    double cycleIpc_ = 0.0;
    std::uint64_t trainHash_ = 0;
};

} // namespace

FreshDir::FreshDir(std::filesystem::path p) : path_(std::move(p))
{
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

FreshDir::~FreshDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

Tracer::Scope::Scope(Tracer &tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    index_ = int(tracer_.spans_.size());
    Span s;
    s.name = name;
    s.start = tracer_.now();
    s.parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
    s.op = tracer_.op_;
    tracer_.spans_.push_back(std::move(s));
    tracer_.stack_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    tracer_.spans_[std::size_t(index_)].end = tracer_.now();
    tracer_.stack_.pop_back();
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_cold", "paper_warm", "control", "gather_interval"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::filesystem::path &dir)
{
    if (name == "paper_cold")
        return std::make_unique<PaperCold>(seed, dir);
    if (name == "paper_warm")
        return std::make_unique<PaperWarm>(seed, dir);
    if (name == "control")
        return std::make_unique<Control>(seed, dir);
    if (name == "gather_interval")
        return std::make_unique<GatherInterval>(seed, dir);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t
pinnedHash(const std::string &name)
{
    // Operation output hashes; any seed gives the same value.
    static const std::map<std::string, std::uint64_t> pins = {
        {"paper_cold", 0xf38070652a046616ULL},
        {"paper_warm", 0xc70e41de17e079e6ULL},
        {"control", 0xe45a5027d4fd831aULL},
        {"gather_interval", 0x677588c95b6c56e0ULL},
    };
    return pins.at(name);
}

} // namespace adaptsim::perfbench
