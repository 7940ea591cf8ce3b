#include "uarch/functional_units.hh"

namespace adaptsim::uarch
{

FunctionalUnits::FunctionalUnits(const CoreConfig &cfg)
    : cfg_(cfg)
{
}

} // namespace adaptsim::uarch
