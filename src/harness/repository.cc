#include "harness/repository.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/serial.hh"
#include "obs/obs.hh"
#include "power/metrics.hh"
#include "sim/perf_model.hh"
#include "uarch/warm.hh"

namespace adaptsim::harness
{

namespace fs = std::filesystem;

namespace
{

// On-disk cache format: 24-byte header + fixed 88-byte records
// (config code, backend tag, reserved 0, seven doubles, checksum),
// everything little-endian and checksummed (see repository.hh).
constexpr char kMagic[8] = {'A', 'D', 'S', 'I', 'M', 'E', 'V', 'C'};
constexpr std::uint64_t kVersion = 3;
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kRecordSize = 88;
constexpr std::size_t kRecordPayload = kRecordSize - 8;

std::string
encodeHeader()
{
    std::string bytes(kMagic, sizeof(kMagic));
    putU64(bytes, kVersion);
    putU64(bytes, fnv1a64(bytes.data(), 16));
    return bytes;
}

void
encodeRecord(std::string &out, const EvalKey &key,
             const EvalRecord &r)
{
    const std::size_t start = out.size();
    putU64(out, key.code);
    putU64(out, key.backendTag);
    putU64(out, 0);   // reserved
    putDouble(out, r.cycles);
    putDouble(out, r.instructions);
    putDouble(out, r.seconds);
    putDouble(out, r.joules);
    putDouble(out, r.ipc);
    putDouble(out, r.watts);
    putDouble(out, r.efficiency);
    putU64(out, fnv1a64(out.data() + start, kRecordPayload));
}

EvalRecord
decodeDoubles(const char *p)
{
    EvalRecord r;
    r.cycles = getDouble(p);
    r.instructions = getDouble(p + 8);
    r.seconds = getDouble(p + 16);
    r.joules = getDouble(p + 24);
    r.ipc = getDouble(p + 32);
    r.watts = getDouble(p + 40);
    r.efficiency = getDouble(p + 48);
    return r;
}

bool
hasMagic(const std::string &bytes)
{
    return bytes.size() >= sizeof(kMagic) &&
           std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

/** The registry counters of repository activity, the one record of
 *  it, resolved together on first use so the exit report lists every
 *  one (zeros included) once the repository has done anything. */
struct RepoMetrics
{
    obs::Counter &hit = obs::Registry::global().counter("repo/hit");
    obs::Counter &miss =
        obs::Registry::global().counter("repo/miss");
    obs::Counter &loaded =
        obs::Registry::global().counter("repo/loaded");
    obs::Counter &flushed =
        obs::Registry::global().counter("repo/flushed");
    obs::Counter &dropped =
        obs::Registry::global().counter("repo/dropped");
    obs::Counter &warmMemoHits =
        obs::Registry::global().counter("repo/warm_memo/hits");
    obs::Counter &warmMemoBuilds =
        obs::Registry::global().counter("repo/warm_memo/builds");
};

RepoMetrics &
repoMetrics()
{
    static RepoMetrics metrics;
    return metrics;
}

} // namespace

std::string
PhaseSpec::key() const
{
    std::ostringstream os;
    os << workload << "_L" << programLength << "_s" << startInst
       << "_w" << warmLength << "_d" << detailLength;
    return os.str();
}

EvalRepository::EvalRepository(std::vector<workload::Workload> suite,
                               std::string data_dir, unsigned threads)
    : suite_(std::move(suite)), dataDir_(std::move(data_dir)),
      pool_(threads)
{
    std::error_code ec;
    fs::create_directories(dataDir_, ec);
    if (ec)
        fatal("cannot create data directory ", dataDir_, ": ",
              ec.message());
}

EvalRepository::~EvalRepository()
{
    flush();
}

const workload::Workload &
EvalRepository::workload(const std::string &name) const
{
    for (const auto &wl : suite_) {
        if (wl.name() == name)
            return wl;
    }
    fatal("unknown workload in repository: ", name);
}

std::string
EvalRepository::storePath(const std::string &spec_key) const
{
    return dataDir_ + "/" + spec_key + ".evc";
}

std::string
EvalRepository::profilePath(const std::string &spec_key) const
{
    return dataDir_ + "/" + spec_key + ".features";
}

bool
EvalRepository::loadBinaryCache(const std::string &path,
                                const std::string &bytes,
                                PhaseCache &cache)
{
    if (bytes.empty())
        return false;
    if (!hasMagic(bytes) || bytes.size() < kHeaderSize) {
        warn("cache ", path,
             ": unrecognised header; ignoring file (records will "
             "be re-simulated)");
        return false;
    }
    if (getU64(bytes.data() + 16) != fnv1a64(bytes.data(), 16)) {
        warn("cache ", path,
             ": corrupt header checksum; regenerating");
        return false;
    }
    const std::uint64_t version = getU64(bytes.data() + 8);
    if (version != kVersion) {
        // Any other version — older or newer — is discarded; the
        // store is a cache, and the next flush replaces the file.
        warn("cache ", path, ": format version ", version,
             " (expected ", kVersion, "); regenerating");
        return false;
    }

    std::size_t off = kHeaderSize;
    std::size_t bad = 0;
    std::size_t count = 0;
    while (off + kRecordSize <= bytes.size()) {
        const char *p = bytes.data() + off;
        off += kRecordSize;
        // A nonzero reserved slot is no record this build wrote.
        if (getU64(p + kRecordPayload) !=
                fnv1a64(p, kRecordPayload) ||
            getU64(p + 16) != 0) {
            ++bad;
            continue;
        }
        const EvalKey key{getU64(p + 8), getU64(p)};
        if (cache.records.emplace(key, decodeDoubles(p + 24)).second)
            ++count;
    }
    const std::size_t tail = bytes.size() - off;
    if (bad > 0 || tail > 0) {
        warn("cache ", path, ": dropped ", bad,
             " corrupt record(s) and ", tail,
             " torn tail byte(s); they will be re-simulated");
        repoMetrics().dropped.add(bad + (tail > 0 ? 1 : 0));
    }
    repoMetrics().loaded.add(count);
    // A damaged file is not appended to: records written after a torn
    // tail would sit misaligned and fail their checksums on every
    // later load.  The next flush rewrites it atomically instead.
    return bad == 0 && tail == 0;
}

EvalRepository::PhaseCache &
EvalRepository::cacheFor(const std::string &spec_key)
{
    auto &cache = caches_[spec_key];
    if (!cache.loaded) {
        cache.loaded = true;
        const std::string path = storePath(spec_key);
        cache.haveBinaryFile =
            loadBinaryCache(path, readFile(path), cache);
    }
    return cache;
}

std::shared_ptr<uarch::WarmMemo>
EvalRepository::warmMemo(const workload::Workload &wl,
                         std::uint64_t start, std::uint64_t length,
                         workload::TracePtr warm)
{
    const workload::TraceKey key{wl.uid(), start, length};
    MutexLock lock(memoMutex_);
    if (warmMemo_ && warmKey_ == key) {
        repoMetrics().warmMemoHits.add(1);
        return warmMemo_;
    }
    // Sessions still warming from the old memo keep it alive.
    warmKey_ = key;
    warmMemo_ = std::make_shared<uarch::WarmMemo>(std::move(warm));
    repoMetrics().warmMemoBuilds.add(1);
    return warmMemo_;
}

uarch::SimResult
EvalRepository::simulate(const PhaseSpec &spec,
                         const uarch::CoreConfig &cc,
                         const sim::PerfModel &backend,
                         uarch::SimObserver *observer)
{
    const auto &wl = workload(spec.workload);
    // Each simulation gets its own wrong-path stream (the generator
    // is stateful); seeding is canonical so results are reproducible.
    std::optional<workload::WrongPathGenerator> wrong_path;
    std::unique_ptr<sim::CoreSession> session;
    {
        OBS_SPAN("repo/session");
        wrong_path.emplace(wl.averageParams(), wl.seed() ^ 0x57a71cULL);
        session = backend.makeSession(cc, *wrong_path);
    }

    const std::uint64_t warm_start =
        spec.startInst >= spec.warmLength ?
            spec.startInst - spec.warmLength :
            0;
    if (spec.warmLength > 0) {
        auto warm = traceCache_.get(wl, warm_start, spec.warmLength);
        OBS_SPAN("repo/warm");
        session->warm(*warmMemo(wl, warm_start, spec.warmLength,
                                std::move(warm)));
    }
    const auto trace =
        traceCache_.get(wl, spec.startInst, spec.detailLength);
    const auto result = backend.run(*session, *trace, observer);
    repoMetrics().miss.add(1);
    return result;
}

EvalRecord
EvalRepository::evaluate(const PhaseSpec &spec,
                         const space::Configuration &config,
                         const sim::PerfModel *backend)
{
    const sim::PerfModel &model = sim::resolvePerfModel(backend);
    const EvalKey key{model.cacheTag(), config.encode()};
    const std::string spec_key = spec.key();
    {
        MutexLock lock(mutex_);
        auto &cache = cacheFor(spec_key);
        const auto it = cache.records.find(key);
        if (it != cache.records.end()) {
            repoMetrics().hit.add(1);
            return it->second;
        }
    }

    EvalRecord r;
    {
        OBS_SPAN("repo/simulate");
        const auto cc = uarch::CoreConfig::fromConfiguration(config);
        const auto result = simulate(spec, cc, model);
        OBS_SPAN("repo/metrics");
        const power::Metrics m =
            power::computeMetrics(cc, result.events);
        r.cycles = m.cycles;
        r.instructions = m.instructions;
        r.seconds = m.seconds;
        r.joules = m.joules;
        r.ipc = m.ipc;
        r.watts = m.watts;
        r.efficiency = m.efficiency;
    }

    MutexLock lock(mutex_);
    auto &cache = cacheFor(spec_key);
    // Two threads may race to simulate the same config (simulation
    // is deterministic, so both results are identical); only the
    // first insert is queued for persistence.
    const auto [it, inserted] = cache.records.emplace(key, r);
    const EvalRecord stored = it->second;
    if (!inserted)
        return stored;

    cache.unsaved.emplace_back(key, r);
    if (cache.unsaved.size() < flushEvery_)
        return stored;

    if (!cache.haveBinaryFile) {
        // The store file must be written whole first (first write,
        // discarded file): take the slow path.
        flushLocked();
        return stored;
    }

    // Fast path: the phase has a valid file, so its batch can be
    // appended without the global lock.  Swap the batch out under
    // mutex_, do the I/O under the phase's file mutex only, then
    // relock to requeue a failed batch.  Other phase caches keep
    // evaluating meanwhile.  Once valid, the file is only ever
    // appended to, so no atomic rewrite can rename it away
    // underneath this append.
    std::vector<std::pair<EvalKey, EvalRecord>> batch;
    batch.swap(cache.unsaved);
    Mutex &file_mutex = cache.fileMutex;
    const std::string path = storePath(spec_key);
    lock.unlock();

    std::string bytes;
    for (const auto &[ek, rec] : batch)
        encodeRecord(bytes, ek, rec);
    bool ok;
    {
        MutexLock file_lock(file_mutex);
        ok = appendFileSync(path, bytes);
    }

    lock.lock();
    if (ok) {
        repoMetrics().flushed.add(batch.size());
    } else {
        warn("cannot persist cache ", path);
        // Re-queue so a later flush (or the destructor) retries.
        cache.unsaved.insert(cache.unsaved.end(), batch.begin(),
                             batch.end());
    }
    return stored;
}

std::vector<EvalRecord>
EvalRepository::evaluateBatch(
    const PhaseSpec &spec,
    const std::vector<space::Configuration> &configs,
    const sim::PerfModel *backend)
{
    // Concurrent gathers may share one repository: the pool runs one
    // batch at a time and queues other callers, and an inline batch
    // only calls the thread-safe evaluate().
    const sim::PerfModel &model = sim::resolvePerfModel(backend);
    std::vector<EvalRecord> out(configs.size());
    pool_.parallelFor(configs.size(), [&](std::size_t i) {
        out[i] = evaluate(spec, configs[i], &model);
    });
    return out;
}

ProfileRecord
EvalRepository::profile(const PhaseSpec &spec)
{
    // The counter bank is fed by per-cycle observer callbacks, which
    // only the cycle-level model drives, so profile caches carry no
    // backend tag.
    const std::string spec_key = spec.key();
    {
        MutexLock lock(mutex_);
        const auto it = profiles_.find(spec_key);
        if (it != profiles_.end()) {
            repoMetrics().hit.add(1);
            return it->second;
        }
    }

    // Try the disk cache.  A truncated or stale file (torn write,
    // feature-set change) must not be accepted just because *some*
    // doubles parsed: both vectors have to match the expected
    // dimensions exactly, or we fall back to re-simulation.
    const std::string path = profilePath(spec_key);
    {
        std::ifstream in(path);
        if (in) {
            ProfileRecord rec;
            auto read_line = [&](std::vector<double> &v) {
                std::string line;
                if (!std::getline(in, line))
                    return false;
                std::istringstream ls(line);
                double x;
                while (ls >> x)
                    v.push_back(x);
                return !v.empty();
            };
            const bool parsed =
                read_line(rec.basic) && read_line(rec.advanced);
            const std::size_t want_basic = counters::featureDimension(
                counters::FeatureSet::Basic);
            const std::size_t want_advanced =
                counters::featureDimension(
                    counters::FeatureSet::Advanced);
            if (parsed && rec.basic.size() == want_basic &&
                rec.advanced.size() == want_advanced) {
                MutexLock lock(mutex_);
                repoMetrics().hit.add(1);
                profiles_[spec_key] = rec;
                return rec;
            }
            if (parsed) {
                warn("profile cache ", path,
                     ": feature dimensions ", rec.basic.size(), "/",
                     rec.advanced.size(), " (expected ", want_basic,
                     "/", want_advanced,
                     "); re-simulating the profile");
            }
        }
    }

    // Run the profiling configuration with the counter bank.
    OBS_SPAN("repo/profile");
    const auto cc = uarch::CoreConfig::fromConfiguration(
        space::Configuration::profiling());
    counters::CounterBank bank(cc);
    const auto result =
        simulate(spec, cc, sim::perfModel("cycle"), &bank);
    bank.finalise(result.events);

    ProfileRecord rec;
    rec.basic = counters::assembleFeatures(
        bank, counters::FeatureSet::Basic);
    rec.advanced = counters::assembleFeatures(
        bank, counters::FeatureSet::Advanced);

    // Persist atomically; 17 significant digits round-trip doubles
    // exactly through the decimal text format.
    {
        std::ostringstream os;
        os.precision(17);
        for (double v : rec.basic)
            os << v << ' ';
        os << '\n';
        for (double v : rec.advanced)
            os << v << ' ';
        os << '\n';
        if (!atomicWriteFile(path, os.str()))
            warn("cannot persist profile for ", spec_key);
    }

    MutexLock lock(mutex_);
    profiles_[spec_key] = rec;
    return rec;
}

void
EvalRepository::flush()
{
    MutexLock lock(mutex_);
    flushLocked();
}

void
EvalRepository::flushLocked()
{
    for (auto &[key, cache] : caches_) {
        if (cache.unsaved.empty())
            continue;

        // A valid file gets a checksummed append; otherwise the file
        // is created (or replaced) atomically with every record.
        const std::string path = storePath(key);
        std::string bytes;
        std::size_t written;
        bool ok;
        MutexLock file_lock(cache.fileMutex);
        if (cache.haveBinaryFile) {
            for (const auto &[ek, r] : cache.unsaved)
                encodeRecord(bytes, ek, r);
            written = cache.unsaved.size();
            ok = appendFileSync(path, bytes);
        } else {
            bytes = encodeHeader();
            for (const auto &[ek, r] : cache.records)
                encodeRecord(bytes, ek, r);
            written = cache.records.size();
            ok = atomicWriteFile(path, bytes);
            cache.haveBinaryFile = ok;
        }
        if (!ok) {
            warn("cannot persist cache ", path);
            continue;
        }
        repoMetrics().flushed.add(written);
        cache.unsaved.clear();
    }
}

void
EvalRepository::setFlushEvery(std::size_t n)
{
    MutexLock lock(mutex_);
    flushEvery_ = std::max<std::size_t>(1, n);
}

} // namespace adaptsim::harness
