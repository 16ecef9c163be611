// Repository benchmark: three seeded adaptive-block workloads driven
// through the public AmrSolver / RankSolver API (see README.md for why
// each was chosen and what each metric should move).
//
//   abbench --workload W --seed S --seconds T --trace 0|1 --out FILE
//
// One run repeats an *episode* until T seconds have passed (and at least
// one full cycle of variants and kMinIterations iterations have run): set
// up a fresh solver from the seeded initial condition, then a closed loop of
// a fixed number of iterations, each compute_dt() + step(dt) [+ adapt()].
// The seed derives kVariants symmetric images of the workload and the
// episodes cycle through them, ending on a whole cycle, so the cost
// differences between images (the rank partition differs per image) are
// averaged inside a run instead of between runs. Every episode of one
// image is the same script, so their final hashes must agree. The raw
// record (per-iteration wall and CPU times, checks, layer probes, spans)
// goes to FILE as JSON; perfbench/run.py turns it into metrics.
//
// With --trace 1 the run alternates untraced and traced episodes. Traced
// episodes wrap every public call in a span, probe the layers from outside
// at fixed iterations; the first one is followed by a checkpoint save and
// the replay the bitwise checks need (4 threads vs 1, rank vs serial).
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "amr/criteria.hpp"
#include "amr/solver.hpp"
#include "parsim/rank_solver.hpp"
#include "physics/advection.hpp"
#include "physics/euler.hpp"
#include "physics/kernel.hpp"
#include "physics/mhd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace ab;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}
/// CPU time of the whole process (all threads), in ns. The kernel counts
/// only time the process ran: neither time its threads waited for a core
/// nor time the hypervisor held the virtual CPU (steal) enters it.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

std::int64_t minor_faults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Start a fresh peak-RSS window: hand freed heap back to the kernel, then
/// reset the kernel's high-water mark (Linux clear_refs "5"). Without this
/// the peak of a run would grow with the number of episodes it fits.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// High-water RSS since the last reset (VmHWM), in MiB; 0 if unreadable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}

/// Host-speed reference: a fixed, cache-resident, dependent floating-point
/// chain, timed once per episode. It is not a metric; it shows how fast the
/// host ran while the episode did, so that on shared hosts, whose speed can
/// drift by tens of percent over minutes, a slow run can be told apart from
/// a slower program.
double host_reference_ms() {
  volatile double seed = 1.0000001;
  double x = seed, acc = 0.0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 4000000; ++i) acc = acc * x + 1e-9;
  const std::int64_t t1 = now_ns();
  seed = acc;
  return ms_between(t0, t1);
}

constexpr int kVariants = 4;  // symmetric images cycled through per run
constexpr int kMinIterations = 100;  // p90 needs >= 10 samples beyond it
constexpr double kMaxSeconds = 120.0;  // stop starting episodes after this
constexpr int kSetupCycles = 4;        // adapt/re-init cycles at most
constexpr int kProbeReps = 5;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Kept in memory, written with the record.

class Spans {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    const char* name = "";
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };

  bool on = false;

  std::uint32_t open(const char* name) {
    if (!on) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = current_;
    s.name = name;
    s.t0 = now_ns();
    spans_.push_back(s);
    current_ = s.id;
    return s.id;
  }
  void close(std::uint32_t id) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.t1 = now_ns();
    current_ = s.parent;
  }
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
};

class SpanScope {
 public:
  SpanScope(Spans& s, const char* name) : spans_(s), id_(s.open(name)) {}
  ~SpanScope() { spans_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Seeded symmetric variants. The seed picks a translation by whole root
// blocks and one of the 48 symmetries of the cube (axis permutation plus
// reflections). On a periodic domain both map the root grid onto itself,
// so every seed refines an exact image of the same mesh: the amount of
// work is the same for every seed while the data differ.

struct Variant {
  RVec<3> shift{};           // multiples of the root block size
  std::array<int, 3> perm{};  // output axis d takes input axis perm[d]
  std::array<double, 3> sign{};

  /// Image of a point of the base pattern (domain [0,1)^3, centre 0.5).
  RVec<3> point(const RVec<3>& p) const {
    RVec<3> q;
    for (int d = 0; d < 3; ++d) {
      double v = 0.5 + sign[d] * (p[perm[d]] - 0.5) + shift[d];
      q[d] = v - std::floor(v);
    }
    return q;
  }
  RVec<3> vector(const RVec<3>& v) const {
    RVec<3> q;
    for (int d = 0; d < 3; ++d) q[d] = sign[d] * v[perm[d]];
    return q;
  }
};

Variant make_variant(std::uint64_t seed, int roots_per_dim) {
  static const std::array<std::array<int, 3>, 6> kPerms = {
      {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
  std::uint64_t h = splitmix64(seed ^ 0xAB5EEDull);
  Variant v;
  for (int d = 0; d < 3; ++d) {
    v.shift[d] = static_cast<double>(h % static_cast<std::uint64_t>(
                     roots_per_dim)) /
                 roots_per_dim;
    h = splitmix64(h);
  }
  v.perm = kPerms[h % 6];
  h = splitmix64(h);
  for (int d = 0; d < 3; ++d) v.sign[d] = (h >> d) & 1 ? -1.0 : 1.0;
  return v;
}

/// Squared distance on the periodic unit cube (minimum image).
double periodic_r2(const RVec<3>& x, const RVec<3>& c) {
  double r2 = 0.0;
  for (int d = 0; d < 3; ++d) {
    double e = x[d] - c[d];
    e -= std::round(e);
    r2 += e * e;
  }
  return r2;
}

/// Smooth step from 1 inside radius r0 to 0 outside, edge width w.
double tanh_ball(const RVec<3>& x, const RVec<3>& c, double r0, double w) {
  return 0.5 * (1.0 - std::tanh((std::sqrt(periodic_r2(x, c)) - r0) / w));
}

template <class Phys>
typename AmrSolver<3, Phys>::Config base_config(int cells, int roots) {
  typename AmrSolver<3, Phys>::Config cfg;
  cfg.forest.root_blocks = {roots, roots, roots};
  cfg.forest.periodic = {true, true, true};
  cfg.forest.max_level = 2;
  cfg.cells_per_block = {cells, cells, cells};
  cfg.order = SpatialOrder::Second;
  cfg.limiter = LimiterKind::VanLeer;
  cfg.flux = FluxScheme::Rusanov;
  cfg.rk_stages = 2;
  cfg.flux_correction = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Workloads. Each gives the physics, the solver configuration, the
// initial condition (a pure function of the seed) and the adapt schedule.

/// Ideal MHD at the paper's Fig. 5 block size, 4 threads, static mesh.
struct MhdStatic {
  using Phys = IdealMhd<3>;
  using Solver = AmrSolver<3, Phys>;
  static constexpr const char* kName = "mhd_static_t4";
  static constexpr int kThreads = 4;
  static constexpr int kIterations = 40;
  static constexpr int kAdaptEvery = 0;  // no adapt in the timed loop
  static constexpr int kReplayIterations = 12;

  Variant var;
  std::vector<RVec<3>> blobs;
  RVec<3> vel, mag;

  explicit MhdStatic(std::uint64_t seed) : var(make_variant(seed, 2)) {
    // Blob centres sit at level-1 block centres, so every symmetric image
    // refines the same pattern.
    for (const RVec<3>& p : {RVec<3>{0.125, 0.125, 0.125},
                             RVec<3>{0.625, 0.375, 0.875},
                             RVec<3>{0.375, 0.875, 0.625}})
      blobs.push_back(var.point(p));
    vel = var.vector(RVec<3>{0.30, 0.175, 0.10});
    mag = var.vector(RVec<3>{0.40, 0.25, 0.15});
  }
  Phys physics() const { return Phys{}; }
  Solver::Config config(int threads) const {
    auto cfg = base_config<Phys>(16, 2);
    cfg.apply_positivity_fix = true;
    cfg.num_threads = threads;
    return cfg;
  }
  void ic(const RVec<3>& x, Phys::State& u) const {
    double p = 0.5;
    for (const RVec<3>& c : blobs) p += 4.5 * tanh_ball(x, c, 0.08, 0.01);
    u = Phys{}.from_primitive(1.0, vel, mag, p);
  }
  GradientCriterion<3> criterion() const {
    return GradientCriterion<3>{Phys::ieng(), 0.1, 0.02, 2};
  }
};

/// Linear advection of a sharp sphere with 4^3 blocks, regridding every
/// iteration on one thread.
struct AdvRegrid {
  using Phys = LinearAdvection<3>;
  using Solver = AmrSolver<3, Phys>;
  static constexpr const char* kName = "adv_regrid_serial";
  static constexpr int kThreads = 1;
  static constexpr int kIterations = 40;
  static constexpr int kAdaptEvery = 1;
  static constexpr int kReplayIterations = 0;

  Variant var;
  RVec<3> centre;
  Phys phys;

  explicit AdvRegrid(std::uint64_t seed) : var(make_variant(seed, 8)) {
    centre = var.point(RVec<3>{0.5, 0.5, 0.5});
    phys.velocity = var.vector(RVec<3>{0.60, 0.35, 0.20});
  }
  Phys physics() const { return phys; }
  Solver::Config config(int threads) const {
    auto cfg = base_config<Phys>(4, 8);
    cfg.num_threads = threads;
    return cfg;
  }
  void ic(const RVec<3>& x, Phys::State& u) const {
    u[0] = 1.0 + tanh_ball(x, centre, 0.25, 0.02);
  }
  GradientCriterion<3> criterion() const {
    return GradientCriterion<3>{0, 0.05, 0.01, 2};
  }
};

/// Euler on four simulated ranks over the shared-memory wire, regridding
/// (and so re-partitioning and migrating) every second iteration.
struct EulerRank {
  using Phys = Euler<3>;
  using Solver = RankSolver<3, Phys>;
  using Serial = AmrSolver<3, Phys>;
  static constexpr const char* kName = "euler_rank4_shm";
  static constexpr int kThreads = 1;
  static constexpr int kIterations = 40;
  static constexpr int kAdaptEvery = 2;
  static constexpr int kReplayIterations = 0;
  static constexpr int kRanks = 4;

  Variant var;
  std::vector<RVec<3>> blobs;
  RVec<3> vel;

  explicit EulerRank(std::uint64_t seed) : var(make_variant(seed, 2)) {
    for (const RVec<3>& p :
         {RVec<3>{0.375, 0.375, 0.375}, RVec<3>{0.875, 0.625, 0.125}})
      blobs.push_back(var.point(p));
    vel = var.vector(RVec<3>{1.50, 0.875, 0.50});
  }
  Phys physics() const { return Phys{}; }
  Serial::Config config(int threads) const {
    auto cfg = base_config<Phys>(8, 2);
    cfg.num_threads = threads;
    return cfg;
  }
  Solver::Config rank_config() const {
    Solver::Config rc;
    rc.solver = config(1);
    rc.npes = kRanks;
    rc.policy = PartitionPolicy::Morton;
    rc.distributed_metadata = true;
    rc.transport = wire::TransportKind::Shm;
    return rc;
  }
  void ic(const RVec<3>& x, Phys::State& u) const {
    double rho = 1.0;
    for (const RVec<3>& c : blobs) rho += 3.0 * tanh_ball(x, c, 0.10, 0.01);
    const double p = 0.2;
    u[0] = rho;
    double ke = 0.0;
    for (int d = 0; d < 3; ++d) {
      u[1 + d] = rho * vel[d];
      ke += vel[d] * vel[d];
    }
    u[4] = p / (Phys{}.gamma - 1.0) + 0.5 * rho * ke;
  }
  GradientCriterion<3> criterion() const {
    return GradientCriterion<3>{0, 0.08, 0.02, 2};
  }
};

// ---------------------------------------------------------------------------
// Solver access that differs between AmrSolver and RankSolver.

template <class S>
struct IsRank : std::false_type {};
template <int D, class P>
struct IsRank<RankSolver<D, P>> : std::true_type {};

template <class S>
const double* leaf_base(const S& s, int id) {
  if constexpr (IsRank<S>::value)
    return s.block_view(id).base;
  else
    return s.store().view(id).base;
}

template <class W>
BlockLayout<3> layout_of(const W& w) {
  const auto cfg = w.config(1);
  return BlockLayout<3>(cfg.cells_per_block, cfg.ghost, W::Phys::NVAR,
                        cfg.pad0);
}

template <class W, class S>
std::unique_ptr<S> construct(const W& w, int threads) {
  if constexpr (IsRank<S>::value)
    return std::make_unique<S>(w.rank_config(), w.physics());
  else
    return std::make_unique<S>(w.config(threads), w.physics());
}

/// FNV-1a of every leaf interior, leaves in forest order, fields in order.
template <class W, class S>
std::uint64_t hash_leaves(const W& w, const S& s) {
  const BlockLayout<3> lay = layout_of(w);
  std::uint64_t h = kFnvOffset;
  for (int id : s.forest().leaves()) {
    ConstBlockView<3> v(leaf_base(s, id), &lay);
    for (int k = 0; k < lay.nvar; ++k)
      for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
        const double x = v.at(k, p);
        h = fnv1a(&x, sizeof x, h);
      });
  }
  return h;
}

struct FieldCheck {
  bool finite = true;
  double min_density = 1e300;
  double min_pressure = 1e300;  // stays 1e300 for physics without pressure
};

template <class W, class S>
FieldCheck check_fields(const W& w, const S& s) {
  using Phys = typename W::Phys;
  const BlockLayout<3> lay = layout_of(w);
  const Phys phys = w.physics();
  FieldCheck fc;
  for (int id : s.forest().leaves()) {
    ConstBlockView<3> v(leaf_base(s, id), &lay);
    for_each_cell<3>(lay.interior_box(), [&](IVec<3> p) {
      typename Phys::State u{};
      for (int k = 0; k < Phys::NVAR; ++k) {
        u[k] = v.at(k, p);
        if (!std::isfinite(u[k])) fc.finite = false;
      }
      fc.min_density = std::min(fc.min_density, u[0]);
      if constexpr (Phys::NVAR > 1)
        fc.min_pressure = std::min(fc.min_pressure, phys.pressure(u));
    });
  }
  return fc;
}

// ---------------------------------------------------------------------------
// Records.

struct IterRecord {
  double ms = 0.0;        // whole iteration wall time
  double cpu_ms = 0.0;    // whole iteration process CPU time
  std::int64_t cells = 0; // leaf interior cells stepped
  int leaves = 0;
  int changed = 0;        // refine + coarsen events of this iteration
  std::int64_t faults = 0;  // minor page faults during the iteration
};

struct Episode {
  bool warmup = false;  // first episode of the process: checked, not timed
  bool traced = false;
  int variant = 0;  // which of the run's kVariants images it stepped
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  int attempted = 0;
  int failed = 0;
  std::string error;
  std::vector<IterRecord> iters;
  std::vector<int> setup_changed;  // refine + coarsen per setup adapt
  double mass0 = 0.0, mass1 = 0.0;
  double peak_rss_mb = 0.0;  // high-water RSS of this episode
  double host_ref_ms = 0.0;  // host_reference_ms() after the loop
  FieldCheck fields;
  std::uint64_t hash = 0;
  std::uint64_t hash_replay_point = 0;  // after kReplayIterations (MHD)
  bool has_replay_point = false;
};

/// Numbers read from the layers at the probe points and at episode end.
struct LayerRecord {
  // core
  std::vector<double> ghost_fill_ms;
  std::int64_t ghost_ops[3] = {0, 0, 0};
  std::int64_t ghost_cells[3] = {0, 0, 0};
  std::int64_t ghost_bytes = 0;
  std::vector<double> memcpy_ms;
  // physics
  std::vector<double> sweep_ms;
  std::uint64_t sweep_flops = 0;
  std::int64_t sweep_cells = 0;
  std::int64_t block_bytes = 0;  // computed: block read + interior written
  std::uint64_t block_flops = 0;
  // amr
  int flux_corrections = 0;
  // util (pool stats at episode end)
  std::int64_t pool_fresh = 0, pool_reuse = 0, pool_in_use = 0;
  // parsim
  bool rank = false;
  RankRunTotals totals_loop{};
  std::int64_t loop_steps = 0;
  std::vector<double> imbalance, efficiency;
  wire::WireStats wire_loop{};
  std::int64_t dup_discards = 0, crc_rejects = 0;
  // io
  std::vector<double> save_ms;
  std::uint64_t save_bytes = 0;
};

struct Replay {
  bool ran = false;
  int paired_episode = -1;  // the traced episode it ran right after
  const char* kind = "";
  std::vector<double> iter_ms;
  std::vector<double> iter_cpu_ms;
  std::uint64_t hash = 0;
  bool matches = false;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  bool break_check = false;
  int episodes = 0;    // 0 = time-based; >0 fixes the episode count
  int iterations = 0;  // 0 = the workload's own count (studies only)
};

// ---------------------------------------------------------------------------
// Layer probes (traced episodes only, between iterations).

template <class W, class S>
void probe_layers(const W& w, S& s, double dt, LayerRecord& lr, Spans& sp) {
  using Phys = typename W::Phys;
  SpanScope probe(sp, "probe");
  const BlockLayout<3> lay = layout_of(w);
  const std::vector<int> leaves = s.forest().leaves();

  // core: one ghost fill on the current grid.
  {
    SpanScope g(sp, "probe.fill_ghosts");
    if constexpr (IsRank<S>::value) {
      // The rank solver's exchanger is private: fill a copy of the grid
      // through a GhostExchanger of the same forest (every face periodic,
      // so no boundary conditions apply).
      GhostExchanger<3> ex(s.forest(), lay, w.config(1).prolongation);
      BlockStore<3> copy(lay);
      for (int id : leaves) {
        copy.ensure(id);
        std::memcpy(copy.view(id).base, s.block_view(id).base,
                    static_cast<std::size_t>(lay.block_doubles()) *
                        sizeof(double));
      }
      for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = now_ns();
        ex.fill(copy, nullptr);
        lr.ghost_fill_ms.push_back(ms_between(t0, now_ns()));
      }
      for (int k = 0; k < 3; ++k) {
        lr.ghost_ops[k] = ex.plan_stats().ops[k];
        lr.ghost_cells[k] = ex.plan_stats().cells[k];
      }
    } else {
      for (int r = 0; r < kProbeReps; ++r) {
        const std::int64_t t0 = now_ns();
        s.fill_ghosts();
        lr.ghost_fill_ms.push_back(ms_between(t0, now_ns()));
      }
      for (int k = 0; k < 3; ++k) {
        lr.ghost_ops[k] = s.exchanger().plan_stats().ops[k];
        lr.ghost_cells[k] = s.exchanger().plan_stats().cells[k];
      }
    }
    lr.ghost_bytes = (lr.ghost_cells[0] + lr.ghost_cells[1] +
                      lr.ghost_cells[2]) *
                     lay.nvar * static_cast<std::int64_t>(sizeof(double));
  }

  // Same-run bound for the ghost rate: memcpy of one fill's byte count.
  {
    SpanScope m(sp, "probe.memcpy");
    const std::size_t n = static_cast<std::size_t>(std::max<std::int64_t>(
        lr.ghost_bytes, 1 << 20));
    std::vector<unsigned char> a(n, 1), b(n, 2);
    for (int r = 0; r < kProbeReps; ++r) {
      const std::int64_t t0 = now_ns();
      std::memcpy(b.data(), a.data(), n);
      const std::int64_t t1 = now_ns();
      // Keep the copy observable.
      a[static_cast<std::size_t>(r) % n] ^= b[n - 1];
      lr.memcpy_ms.push_back(ms_between(t0, t1) *
                             static_cast<double>(lr.ghost_bytes) /
                             static_cast<double>(n));
    }
  }

  // physics: single-thread kernel sweep over the current leaves.
  {
    SpanScope k(sp, "probe.kernel_sweep");
    const auto cfg = w.config(1);
    const Phys phys = w.physics();
    AlignedBuffer out(static_cast<std::size_t>(lay.block_doubles()));
    AlignedScratch scratch;
    for (int r = 0; r < kProbeReps; ++r) {
      std::uint64_t flops = 0;
      const std::int64_t t0 = now_ns();
      for (int id : leaves) {
        const RVec<3> dx = s.cell_dx(s.forest().level(id));
        flops += fv_block_update<3, Phys>(lay, leaf_base(s, id), out.data(),
                                          phys, dx, dt, cfg.order,
                                          cfg.limiter, cfg.flux, nullptr,
                                          nullptr, &scratch);
      }
      lr.sweep_ms.push_back(ms_between(t0, now_ns()));
      lr.sweep_flops = flops;
    }
    lr.sweep_cells =
        static_cast<std::int64_t>(leaves.size()) * lay.interior_cells();
    lr.block_flops = fv_update_flops<3, Phys>(lay, cfg.order);
    lr.block_bytes = (lay.block_doubles() +
                      lay.interior_cells() * lay.nvar) *
                     static_cast<std::int64_t>(sizeof(double));
  }

  SpanScope c(sp, "probe.counters");
  lr.flux_corrections = s.flux_corrections_planned();
}

template <class S>
void read_pool(const S& s, LayerRecord& lr) {
  if (const BlockPool* pool = s.block_pool()) {
    const BlockPool::Stats st = pool->stats();
    lr.pool_fresh = st.fresh_allocs;
    lr.pool_reuse = st.reuse_hits;
    lr.pool_in_use = st.slabs_in_use;
  }
}

// ---------------------------------------------------------------------------
// One episode.

template <class W, class S>
std::unique_ptr<S> setup_solver(const W& w, int threads, Spans& sp,
                                std::vector<int>* changed) {
  SpanScope setup(sp, "setup");
  std::unique_ptr<S> s;
  {
    SpanScope c(sp, "construct");
    s = construct<W, S>(w, threads);
  }
  auto ic = [&w](const RVec<3>& x, typename W::Phys::State& u) { w.ic(x, u); };
  for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
    {
      SpanScope i(sp, "init");
      s->init(ic);
    }
    typename AmrSolver<3, typename W::Phys>::AdaptResult r;
    {
      SpanScope a(sp, "adapt");
      r = s->adapt(w.criterion());
    }
    if (changed) changed->push_back(r.refined + r.coarsened);
    if (r.refined + r.coarsened == 0) break;
  }
  SpanScope i(sp, "init");
  s->init(ic);
  return s;
}

template <class W, class S>
Episode run_episode(const W& w, int threads, bool traced, LayerRecord* lr,
                    Spans& sp, const RunOptions& opt,
                    std::unique_ptr<S>* keep = nullptr) {
  Episode ep;
  ep.traced = traced;
  const int n_iter = opt.iterations > 0 ? opt.iterations : W::kIterations;
  ep.attempted = n_iter;
  sp.on = traced;
  reset_peak_rss();
  SpanScope episode(sp, "episode");
  std::unique_ptr<S> s;
  const std::int64_t t_setup = now_ns();
  const std::int64_t c_setup = cpu_ns();
  try {
    s = setup_solver<W, S>(w, threads, sp, &ep.setup_changed);
  } catch (const std::exception& e) {
    ep.error = std::string("setup: ") + e.what();
    ep.failed = ep.attempted;
    return ep;
  }
  ep.setup_s = ms_between(t_setup, now_ns()) * 1e-3;
  ep.setup_cpu_s = ms_between(c_setup, cpu_ns()) * 1e-3;
  ep.mass0 = s->total_conserved(0);

  const int probe_at = n_iter / 2;
  RankRunTotals totals0{};
  wire::WireStats wire0{};
  if constexpr (IsRank<S>::value) {
    totals0 = s->totals();
    if (s->wire_hub()) wire0 = s->wire_hub()->stats();
  }
  double dt = 0.0;
  int it = 0;
  try {
    for (; it < n_iter; ++it) {
      IterRecord rec;
      rec.leaves = s->forest().num_leaves();
      rec.cells = static_cast<std::int64_t>(rec.leaves) *
                  layout_of(w).interior_cells();
      const std::int64_t f0 = minor_faults();
      const std::int64_t c0 = cpu_ns();
      const std::int64_t t0 = now_ns();
      {
        SpanScope iter(sp, "iteration");
        {
          SpanScope c(sp, "compute_dt");
          dt = s->compute_dt();
        }
        {
          SpanScope st(sp, "step");
          s->step(dt);
        }
        if (W::kAdaptEvery > 0 && (it + 1) % W::kAdaptEvery == 0) {
          SpanScope a(sp, "adapt");
          const auto r = s->adapt(w.criterion());
          rec.changed = r.refined + r.coarsened;
        }
      }
      rec.ms = ms_between(t0, now_ns());
      rec.cpu_ms = ms_between(c0, cpu_ns());
      rec.faults = minor_faults() - f0;
      ep.iters.push_back(rec);
      if constexpr (IsRank<S>::value) {
        if (traced && lr) {
          lr->imbalance.push_back(s->last_step_cost().imbalance);
          lr->efficiency.push_back(s->last_step_cost().efficiency);
        }
      }
      if (traced && lr && it + 1 == probe_at) probe_layers(w, *s, dt, *lr, sp);
      if (traced && W::kReplayIterations > 0 &&
          it + 1 == W::kReplayIterations) {
        SpanScope h(sp, "probe.hash");
        ep.hash_replay_point = hash_leaves(w, *s);
        ep.has_replay_point = true;
      }
    }
  } catch (const std::exception& e) {
    ep.error = std::string("iteration ") + std::to_string(it) + ": " + e.what();
    ep.failed = ep.attempted - it;
  }

  if (ep.error.empty()) {
    if (opt.break_check) {
      // Deliberately broken output: add mass to one cell, so the
      // conservation check must fail.
      const int id = s->forest().leaves().front();
      const BlockLayout<3> lay = layout_of(w);
      const_cast<double*>(leaf_base(*s, id))[lay.offset(IVec<3>(0))] += 1.0;
    }
    ep.peak_rss_mb = peak_rss_mb();
    ep.mass1 = s->total_conserved(0);
    ep.fields = check_fields(w, *s);
    ep.hash = hash_leaves(w, *s);
  }
  ep.host_ref_ms = host_reference_ms();
  if (traced && lr) {
    read_pool(*s, *lr);
    if constexpr (IsRank<S>::value) {
      lr->rank = true;
      const RankRunTotals& t = s->totals();
      RankRunTotals& d = lr->totals_loop;
      d.steps += t.steps - totals0.steps;
      d.regrids += t.regrids - totals0.regrids;
      d.ghost_messages += t.ghost_messages - totals0.ghost_messages;
      d.ghost_bytes += t.ghost_bytes - totals0.ghost_bytes;
      d.flux_messages += t.flux_messages - totals0.flux_messages;
      d.flux_bytes += t.flux_bytes - totals0.flux_bytes;
      d.migrated_blocks += t.migrated_blocks - totals0.migrated_blocks;
      d.migration_bytes += t.migration_bytes - totals0.migration_bytes;
      d.topo_delta_bytes += t.topo_delta_bytes - totals0.topo_delta_bytes;
      d.topo_delta_messages +=
          t.topo_delta_messages - totals0.topo_delta_messages;
      lr->loop_steps += static_cast<std::int64_t>(ep.iters.size());
      if (const wire::WireHub* hub = s->wire_hub()) {
        const wire::WireStats& ws = hub->stats();
        wire::WireStats& dw = lr->wire_loop;
        dw.frames_sent += ws.frames_sent - wire0.frames_sent;
        dw.payload_bytes += ws.payload_bytes - wire0.payload_bytes;
        dw.wire_bytes += ws.wire_bytes - wire0.wire_bytes;
      }
    }
  }
  if constexpr (IsRank<S>::value) {
    // Fault-free wire: nothing may be rejected or deduplicated, ever.
    if (const wire::WireHub* hub = s->wire_hub()) {
      if (lr) {
        lr->crc_rejects = std::max(lr->crc_rejects, hub->stats().crc_rejects);
        lr->dup_discards =
            std::max(lr->dup_discards, hub->stats().dup_discards);
      }
      if (hub->stats().crc_rejects != 0 || hub->stats().dup_discards != 0)
        ep.error = "wire: crc_rejects/dup_discards on a fault-free wire";
    } else {
      ep.error = "wire: no shm hub (transport override?)";
    }
  }
  if (keep) *keep = std::move(s);
  return ep;
}

// ---------------------------------------------------------------------------
// Output.

/// Streaming JSON writer: commas between siblings are placed for the caller.
class Json {
 public:
  explicit Json(std::FILE* f) : f_(f) {}

  void open(const char* key, char bracket) {
    begin(key);
    std::fputc(bracket, f_);
    first_ = true;
  }
  void close(char bracket) {
    std::fputc(bracket, f_);
    first_ = false;
  }
  template <class T>
  void field(const char* key, const T& v) {
    begin(key);
    value(v);
  }
  template <class T>
  void item(const T& v) {
    begin(nullptr);
    value(v);
  }

 private:
  void begin(const char* key) {
    if (!first_) std::fputc(',', f_);
    first_ = false;
    if (key) {
      value(std::string(key));
      std::fputc(':', f_);
    }
  }
  void value(bool b) { std::fputs(b ? "true" : "false", f_); }
  void value(double v) {
    if (std::isfinite(v))
      std::fprintf(f_, "%.17g", v);
    else
      std::fputs("null", f_);
  }
  template <class T>
    requires std::is_integral_v<T>
  void value(T v) {
    std::fprintf(f_, "%lld", static_cast<long long>(v));
  }
  void value(const char* s) { value(std::string(s)); }
  void value(const std::string& s) {
    std::fputc('"', f_);
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        std::fputc('\\', f_);
        std::fputc(ch, f_);
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        std::fprintf(f_, "\\u%04x", ch);
      } else {
        std::fputc(ch, f_);
      }
    }
    std::fputc('"', f_);
  }
  void value(const std::vector<double>& v) {
    std::fputc('[', f_);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) std::fputc(',', f_);
      value(v[i]);
    }
    std::fputc(']', f_);
  }

  std::FILE* f_;
  bool first_ = true;
};

void write_episode(Json& j, const Episode& ep) {
  std::vector<double> ms, cpu_ms, cells, leaves, changed, faults;
  for (const IterRecord& r : ep.iters) {
    ms.push_back(r.ms);
    cpu_ms.push_back(r.cpu_ms);
    cells.push_back(static_cast<double>(r.cells));
    leaves.push_back(r.leaves);
    changed.push_back(r.changed);
    faults.push_back(static_cast<double>(r.faults));
  }
  j.open(nullptr, '{');
  j.field("warmup", ep.warmup);
  j.field("traced", ep.traced);
  j.field("variant", ep.variant);
  j.field("setup_s", ep.setup_s);
  j.field("setup_cpu_s", ep.setup_cpu_s);
  j.field("attempted", ep.attempted);
  j.field("failed", ep.failed);
  j.field("error", ep.error);
  j.field("iter_ms", ms);
  j.field("iter_cpu_ms", cpu_ms);
  j.field("cells", cells);
  j.field("leaves", leaves);
  j.field("changed", changed);
  j.field("faults", faults);
  j.field("setup_changed", std::vector<double>(ep.setup_changed.begin(),
                                               ep.setup_changed.end()));
  j.field("peak_rss_mb", ep.peak_rss_mb);
  j.field("host_ref_ms", ep.host_ref_ms);
  j.field("mass0", ep.mass0);
  j.field("mass1", ep.mass1);
  j.field("finite", ep.fields.finite);
  j.field("min_density", ep.fields.min_density);
  const bool has_pressure = ep.fields.min_pressure < 1e300;
  j.field("has_pressure", has_pressure);
  j.field("min_pressure", has_pressure ? ep.fields.min_pressure : 1.0);
  j.field("hash", hex64(ep.hash));
  j.field("hash_replay_point",
          ep.has_replay_point ? hex64(ep.hash_replay_point) : "");
  j.close('}');
}

void write_layers(Json& j, const LayerRecord& lr) {
  j.open("layers", '{');
  j.field("ghost_fill_ms", lr.ghost_fill_ms);
  j.field("ghost_ops", std::vector<double>(lr.ghost_ops, lr.ghost_ops + 3));
  j.field("ghost_bytes", lr.ghost_bytes);
  j.field("memcpy_ms", lr.memcpy_ms);
  j.field("sweep_ms", lr.sweep_ms);
  j.field("sweep_flops", lr.sweep_flops);
  j.field("sweep_cells", lr.sweep_cells);
  j.field("block_flops", lr.block_flops);
  j.field("block_bytes", lr.block_bytes);
  j.field("flux_corrections", lr.flux_corrections);
  j.open("pool", '{');
  j.field("fresh_allocs", lr.pool_fresh);
  j.field("reuse_hits", lr.pool_reuse);
  j.field("slabs_in_use", lr.pool_in_use);
  j.close('}');
  j.field("rank", lr.rank);
  const RankRunTotals& t = lr.totals_loop;
  j.open("rank_loop", '{');
  j.field("steps", lr.loop_steps);
  j.field("regrids", t.regrids);
  j.field("ghost_messages", t.ghost_messages);
  j.field("ghost_bytes", t.ghost_bytes);
  j.field("flux_messages", t.flux_messages);
  j.field("migrated_blocks", t.migrated_blocks);
  j.field("migration_bytes", t.migration_bytes);
  j.field("topo_delta_bytes", t.topo_delta_bytes);
  j.field("wire_frames", lr.wire_loop.frames_sent);
  j.field("wire_payload_bytes", lr.wire_loop.payload_bytes);
  j.field("wire_bytes", lr.wire_loop.wire_bytes);
  j.field("crc_rejects", lr.crc_rejects);
  j.field("dup_discards", lr.dup_discards);
  j.close('}');
  j.field("imbalance", lr.imbalance);
  j.field("model_efficiency", lr.efficiency);
  j.field("save_ms", lr.save_ms);
  j.field("save_bytes", lr.save_bytes);
  j.close('}');
}

void write_replay(Json& j, const Replay& r) {
  j.open("replay", '{');
  j.field("ran", r.ran);
  j.field("paired_episode", r.paired_episode);
  j.field("kind", r.kind);
  j.field("iter_ms", r.iter_ms);
  j.field("iter_cpu_ms", r.iter_cpu_ms);
  j.field("hash", hex64(r.hash));
  j.field("matches", r.matches);
  j.close('}');
}

// ---------------------------------------------------------------------------
// Replays for the traced run's bitwise checks.

/// MHD: the first kReplayIterations iterations again on one thread.
template <class W>
Replay replay_threads(const W& w, const std::string& expect) {
  using S = typename W::Solver;
  Replay r;
  r.ran = true;
  r.kind = "one_thread";
  Spans off;
  std::unique_ptr<S> s = setup_solver<W, S>(w, 1, off, nullptr);
  for (int it = 0; it < W::kReplayIterations; ++it) {
    const std::int64_t c = cpu_ns();
    const std::int64_t a = now_ns();
    s->step(s->compute_dt());
    r.iter_ms.push_back(ms_between(a, now_ns()));
    r.iter_cpu_ms.push_back(ms_between(c, cpu_ns()));
  }
  r.hash = hash_leaves(w, *s);
  r.matches = hex64(r.hash) == expect;
  return r;
}

/// Rank workload: the whole episode script on a serial AmrSolver.
Replay replay_serial(const EulerRank& w, int iterations,
                     const std::string& expect) {
  using S = EulerRank::Serial;
  Replay r;
  r.ran = true;
  r.kind = "serial_amr";
  Spans off;
  std::unique_ptr<S> s = setup_solver<EulerRank, S>(w, 1, off, nullptr);
  for (int it = 0; it < iterations; ++it) {
    const std::int64_t c = cpu_ns();
    const std::int64_t a = now_ns();
    s->step(s->compute_dt());
    if ((it + 1) % EulerRank::kAdaptEvery == 0) s->adapt(w.criterion());
    r.iter_ms.push_back(ms_between(a, now_ns()));
    r.iter_cpu_ms.push_back(ms_between(c, cpu_ns()));
  }
  r.hash = hash_leaves(w, *s);
  r.matches = hex64(r.hash) == expect;
  return r;
}

template <class W>
int run(const RunOptions& opt) {
  using S = typename W::Solver;
  std::vector<W> images;
  for (int k = 0; k < kVariants; ++k)
    images.emplace_back(opt.seed * kVariants + static_cast<std::uint64_t>(k));
  const W& w = images.front();
  std::vector<Episode> episodes;
  LayerRecord layers;
  Spans spans;
  Replay replay;
  std::string save_error;

  const std::int64_t t_start = now_ns();
  auto elapsed = [&] { return ms_between(t_start, now_ns()) * 1e-3; };
  auto timed_iterations = [&] {
    std::size_t n = 0;
    for (const Episode& e : episodes)
      if (!e.warmup) n += e.iters.size();
    return static_cast<int>(n);
  };
  // Traced runs alternate untraced and traced episodes, so the untraced
  // ones give the tracing-overhead baseline; both of a pair step one image.
  const int per_image = opt.trace ? 2 : 1;
  for (int e = 0;; ++e) {
    const bool cycle_done = (e - 1) % (per_image * kVariants) == 0;
    if (opt.episodes > 0) {
      if (e >= opt.episodes) break;
    } else if (e > 1) {
      const bool enough = cycle_done && elapsed() >= opt.seconds &&
                          timed_iterations() >= kMinIterations;
      if (enough || elapsed() >= kMaxSeconds) break;
    }
    // Episode 0 warms the process up.
    const bool warmup = e == 0;
    const bool traced = opt.trace && !warmup && e % 2 == 0;
    const int variant = warmup ? 0 : ((e - 1) / per_image) % kVariants;
    const W& wv = images[static_cast<std::size_t>(variant)];
    std::unique_ptr<S> keep;
    episodes.push_back(run_episode<W, S>(wv, W::kThreads, traced, &layers,
                                         spans, opt, &keep));
    episodes.back().warmup = warmup;
    episodes.back().variant = variant;
    if (traced && keep && layers.save_ms.empty()) {
      // io: checkpoint the final grid of the first traced episode.
      spans.on = true;
      SpanScope sv(spans, "save");
      namespace fs = std::filesystem;
      const fs::path dir = fs::path(opt.out).parent_path() /
                           (std::string("ckpt-") + W::kName + "-" +
                            std::to_string(::getpid()));
      try {
        fs::create_directories(dir);
        const std::string path = (dir / "state.abk").string();
        for (int r = 0; r < 3; ++r) {
          const std::int64_t t0 = now_ns();
          layers.save_bytes = keep->save(path);
          layers.save_ms.push_back(ms_between(t0, now_ns()));
        }
      } catch (const std::exception& ex) {
        save_error = ex.what();
      }
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    spans.on = false;
    constexpr bool kReplays = W::kThreads > 1 || IsRank<S>::value;
    if (kReplays && traced && !replay.ran) {
      // Run the replay next to the episode it is compared with, so host
      // speed drift (minutes) cannot enter the speedup / overhead ratios.
      const Episode& e = episodes.back();
      const std::string expect = hex64(W::kThreads > 1 ? e.hash_replay_point
                                                       : e.hash);
      try {
        if constexpr (W::kThreads > 1)
          replay = replay_threads(wv, expect);
        else if constexpr (IsRank<S>::value)
          replay = replay_serial(wv, static_cast<int>(e.iters.size()),
                                 expect);
      } catch (const std::exception& ex) {
        replay.ran = true;
        replay.matches = false;
        save_error += std::string(" replay: ") + ex.what();
      }
      replay.paired_episode = static_cast<int>(episodes.size()) - 1;
    }
  }

  std::FILE* f = std::fopen(opt.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "abbench: cannot write %s\n", opt.out.c_str());
    return 2;
  }
  Json j(f);
  j.open(nullptr, '{');
  j.field("workload", W::kName);
  j.field("seed", std::to_string(opt.seed));
  j.field("trace", opt.trace);
  j.open("build", '{');
  j.field("type", PERFBENCH_BUILD_TYPE);
  j.field("flags", PERFBENCH_FLAGS);
  j.field("compiler", PERFBENCH_COMPILER);
  j.close('}');
  j.open("config", '{');
  j.field("threads", W::kThreads);
  j.field("iterations_per_episode", W::kIterations);
  j.field("variants", kVariants);
  j.field("adapt_every", W::kAdaptEvery);
  j.field("rk_stages", w.config(1).rk_stages);
  j.close('}');
  j.open("episodes", '[');
  for (const Episode& ep : episodes) write_episode(j, ep);
  j.close(']');
  write_layers(j, layers);
  write_replay(j, replay);
  j.field("aux_error", save_error);
  j.open("spans", '[');
  for (const Spans::Span& sp : spans.all()) {
    j.open(nullptr, '[');
    j.item(sp.id);
    j.item(sp.parent);
    j.item(sp.name);
    j.item(sp.t0);
    j.item(sp.t1);
    j.close(']');
  }
  j.close(']');
  j.close('}');
  std::fputc('\n', f);
  const bool ok = std::fclose(f) == 0;
  return ok ? 0 : 2;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: abbench --workload mhd_static_t4|adv_regrid_serial|"
               "euler_rank4_shm --seed N --seconds T --trace 0|1 --out FILE\n"
               "       abbench --fnv HEXBYTES   (print FNV-1a of the bytes)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() != "0";
    else if (a == "--out") opt.out = next();
    else if (a == "--episodes") opt.episodes = std::stoi(next());
    else if (a == "--iterations") opt.iterations = std::stoi(next());
    else if (a == "--break-check") opt.break_check = true;
    else if (a == "--fnv") {
      const std::string hex = next();
      std::vector<unsigned char> bytes;
      for (std::size_t k = 0; k + 1 < hex.size(); k += 2)
        bytes.push_back(static_cast<unsigned char>(
            std::stoul(hex.substr(k, 2), nullptr, 16)));
      std::printf("%s\n", hex64(fnv1a(bytes.data(), bytes.size())).c_str());
      return 0;
    } else usage();
  }
  if (opt.out.empty() || opt.workload.empty()) usage();
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "abbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  for (const char* knob : {"AB_BENCH_BARRIER", "AB_BLOCK_POOL", "AB_TASK_STEAL",
                           "AB_AUTOTUNE", "AB_TRANSPORT", "AB_DIST_META",
                           "AB_ASYNC_TOPO", "AB_HULL_PREFETCH"})
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr,
                   "abbench: %s is set; it selects a different program than "
                   "the one measured. Unset it.\n",
                   knob);
      return 2;
    }
  try {
    if (opt.workload == MhdStatic::kName) return run<MhdStatic>(opt);
    if (opt.workload == AdvRegrid::kName) return run<AdvRegrid>(opt);
    if (opt.workload == EulerRank::kName) return run<EulerRank>(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abbench: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "abbench: unknown workload '%s'\n",
               opt.workload.c_str());
  return 2;
}
