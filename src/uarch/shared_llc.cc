#include "uarch/shared_llc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace adaptsim::uarch
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

} // namespace

SharedLlc::SharedLlc(const ChipConfig &cfg) : cfg_(cfg)
{
    if (cfg_.numCores() == 0)
        fatal("SharedLlc: need at least one core");
    if (cfg_.llcBanks <= 0 || cfg_.llcMshrsPerBank <= 0)
        fatal("SharedLlc: non-positive geometry parameter");
    numSets_ = cfg_.llcBytes /
               (std::uint64_t(assoc) * CoreConfig::cacheLineBytes);
    if (numSets_ == 0 || !isPow2(numSets_))
        fatal("SharedLlc: sets must be a positive power of two "
              "(bytes=", cfg_.llcBytes, " assoc=", assoc,
              " line=", CoreConfig::cacheLineBytes, ")");
    if (!isPow2(std::uint64_t(cfg_.llcBanks)))
        fatal("SharedLlc: banks must be a power of two (",
              cfg_.llcBanks, ")");
    lines_.resize(numSets_ * assoc);
    banks_.resize(std::size_t(cfg_.llcBanks));
    for (auto &b : banks_)
        b.mshrs.reserve(std::size_t(cfg_.llcMshrsPerBank));
    linesOwned_.resize(cfg_.numCores());
}

void
SharedLlc::checkCore(unsigned core) const
{
    if (core >= cfg_.numCores())
        panic("SharedLlc: core ", core, " out of range (",
              cfg_.numCores(), " cores)");
}

bool
SharedLlc::lookupFill(Addr addr, unsigned core)
{
    const Addr block = blockOf(addr);
    Line *base = &lines_[setIndex(addr) * assoc];
    Line *victim = base;
    for (int w = 0; w < assoc; ++w) {
        Line &line = base[w];
        if (line.tag == block) {
            line.lruStamp = ++lruClock_;
            return true;
        }
        if (victim->tag != invalidAddr &&
            (line.tag == invalidAddr ||
             line.lruStamp < victim->lruStamp))
            victim = &line;
    }
    if (victim->tag != invalidAddr)
        --linesOwned_[victim->owner];
    victim->tag = block;
    victim->lruStamp = ++lruClock_;
    victim->owner = static_cast<std::uint16_t>(core);
    ++linesOwned_[core];
    return false;
}

SharedLlc::Outcome
SharedLlc::access(Addr addr, unsigned core, Cycles now)
{
    MutexLock lock(mu_);
    checkCore(core);

    // Bank queue: one request per bankService cycles.
    Bank &bank = banks_[bankIndex(addr)];
    const Cycles start = std::max(now, bank.nextFree);
    Cycles wait = start - now;
    bank.nextFree = start + Cycles(bankService);

    Outcome out;
    out.hit = lookupFill(addr, core);
    if (out.hit) {
        out.queueCycles = static_cast<int>(wait);
        out.latency = busLatency + hitLatency + out.queueCycles;
        return out;
    }

    // MSHR admission: prune completed misses, then wait for the
    // earliest outstanding one if all MSHRs are busy.
    auto &mshrs = bank.mshrs;
    Cycles issue = start;
    std::erase_if(mshrs,
                  [issue](Cycles done) { return done <= issue; });
    if (mshrs.size() >= std::size_t(cfg_.llcMshrsPerBank)) {
        const Cycles earliest =
            *std::min_element(mshrs.begin(), mshrs.end());
        wait += earliest - issue;
        issue = earliest;
        std::erase_if(mshrs, [earliest](Cycles done) {
            return done <= earliest;
        });
    }
    const Cycles done =
        issue + Cycles(hitLatency) + Cycles(memLatency);
    mshrs.push_back(done);

    out.queueCycles = static_cast<int>(wait);
    out.latency =
        busLatency + hitLatency + memLatency + out.queueCycles;
    return out;
}

double
SharedLlc::occupancyShare(unsigned core) const
{
    MutexLock lock(mu_);
    checkCore(core);
    return double(linesOwned_[core]) /
           double(numSets_ * std::uint64_t(assoc));
}

} // namespace adaptsim::uarch
