#include "sim/cycle_level_model.hh"

#include <optional>

#include "common/logging.hh"

namespace adaptsim::sim
{

namespace
{

class CycleLevelSession final : public CoreSession
{
  public:
    CycleLevelSession(const uarch::CoreConfig &cfg,
                      workload::WrongPathGenerator &wrong_path)
        : cfg_(cfg), wrongPath_(wrong_path)
    {
    }

    void warm(uarch::WarmMemo &memo) override
    {
        if (core_)
            panic("a core session warms once, before its first run");
        core_.emplace(cfg_, wrongPath_, memo.warm(cfg_));
    }

    uarch::SimResult run(std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer) override
    {
        if (!core_)
            core_.emplace(cfg_, wrongPath_);
        return core_->run(trace, observer);
    }

    const uarch::CoreConfig &config() const override
    {
        return cfg_;
    }

  private:
    uarch::CoreConfig cfg_;
    workload::WrongPathGenerator &wrongPath_;
    std::optional<uarch::Core> core_;   ///< built by warm() or run()
};

} // namespace

std::unique_ptr<CoreSession>
CycleLevelModel::makeSession(
    const uarch::CoreConfig &cfg,
    workload::WrongPathGenerator &wrong_path) const
{
    return std::make_unique<CycleLevelSession>(cfg, wrong_path);
}

} // namespace adaptsim::sim
