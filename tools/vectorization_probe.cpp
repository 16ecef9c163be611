// Probe translation unit for tools/check_vectorization.sh: instantiates the
// row kernels the way the solvers do (the MHD and Euler block updates and
// CFL scans) so GCC's vectorizer report covers every `must-vectorize` loop
// after inlining, where alias-check budgets are actually hit.
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"

namespace ab {

template std::uint64_t fv_block_update<3, IdealMhd<3>>(
    const BlockLayout<3>&, const double*, double*, const IdealMhd<3>&,
    const RVec<3>&, double, SpatialOrder, LimiterKind, FluxScheme,
    FaceFluxStorage<3>*, const Box<3>*, AlignedScratch*);

template std::uint64_t fv_block_update<3, Euler<3>>(
    const BlockLayout<3>&, const double*, double*, const Euler<3>&,
    const RVec<3>&, double, SpatialOrder, LimiterKind, FluxScheme,
    FaceFluxStorage<3>*, const Box<3>*, AlignedScratch*);

template double block_wave_speed_sum<3, IdealMhd<3>>(const BlockLayout<3>&,
                                                     const double*,
                                                     const IdealMhd<3>&,
                                                     const RVec<3>&);

template double block_wave_speed_sum<3, Euler<3>>(const BlockLayout<3>&,
                                                  const double*,
                                                  const Euler<3>&,
                                                  const RVec<3>&);

}  // namespace ab
