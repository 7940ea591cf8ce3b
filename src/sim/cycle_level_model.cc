#include "sim/cycle_level_model.hh"

namespace adaptsim::sim
{

namespace
{

class CycleLevelSession final : public CoreSession
{
  public:
    CycleLevelSession(const uarch::CoreConfig &cfg,
                      workload::WrongPathGenerator &wrong_path)
        : core_(cfg, wrong_path)
    {
    }

    void warm(std::span<const isa::MicroOp> trace) override
    {
        core_.warm(trace);
    }

    uarch::SimResult run(std::span<const isa::MicroOp> trace,
                         uarch::SimObserver *observer) override
    {
        return core_.run(trace, observer);
    }

    const uarch::CoreConfig &config() const override
    {
        return core_.config();
    }

  private:
    uarch::Core core_;
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
