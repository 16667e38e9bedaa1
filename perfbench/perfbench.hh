/**
 * @file
 * Shared declarations of the gpsm benchmark harness: the workload
 * definitions, the native-kernel reference, the metric list and the
 * outside-in traced run (traced.cc).
 */

#ifndef GPSM_PERFBENCH_HH
#define GPSM_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "graph/csr.hh"

namespace perfbench
{

/** Worker threads of every sweep: the host has 4 cores; never more. */
constexpr unsigned kWorkers = 4;

/** One benchmark workload: a config set run as one closed-loop sweep. */
struct Workload
{
    std::string name;
    std::vector<gpsm::core::ExperimentConfig> configs;
    /** Record-and-replay on for the sweep (process-wide switch). */
    bool replay = false;
};

/** The workload @p name at dataset seed @p seed and scale @p divisor;
 *  its name is empty when @p name is unknown. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      std::uint64_t divisor);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Host copies of the graphs a workload's configs run on: the
 * generated dataset per (name, weighted) and its DBG relabeling.
 * Built once per process for the native reference and the traced run.
 */
class GraphSet
{
  public:
    /** Generate every base dataset @p w needs; @return seconds spent
     *  in graph::makeDataset. */
    double build(const Workload &w);

    /** The graph @p cfg's kernel runs on (reordered when it asks).
     *  Builds a missing relabelling, so concurrent callers must ask
     *  for every config once beforehand. */
    const gpsm::graph::CsrGraph &
    of(const gpsm::core::ExperimentConfig &cfg);

    /** The un-reordered dataset @p cfg loads. */
    const gpsm::graph::CsrGraph &
    base(const gpsm::core::ExperimentConfig &cfg) const;

  private:
    std::map<std::string, std::shared_ptr<gpsm::graph::CsrGraph>> graphs;
};

/** Kernel output and property checksum of one run. */
struct KernelAnswer
{
    std::uint64_t output = 0;
    std::uint64_t checksum = 0;

    bool
    operator==(const KernelAnswer &o) const
    {
        return output == o.output && checksum == o.checksum;
    }
};

/** The kernel of @p cfg on a NativeView of @p g (the correctness
 *  oracle); @p seconds receives the kernel's host wall time. */
KernelAnswer nativeAnswer(const gpsm::core::ExperimentConfig &cfg,
                          const gpsm::graph::CsrGraph &g,
                          double *seconds = nullptr);

/** The paper's headline ratios for one app of headline_live. */
struct HeadlineRow
{
    gpsm::core::App app;
    double speedupVs4k = 0.0;     ///< DBG+madvise over 4 KB pages
    double fracOfUnbounded = 0.0; ///< unbounded THP time ÷ DBG+madvise
    double hugeFraction = 0.0;    ///< huge-backed share of footprint
};

/** headline_live's rows, as bench/headline_summary computes them;
 *  empty for every other workload. */
std::vector<HeadlineRow>
headlineRows(const Workload &w,
             const std::vector<gpsm::core::RunResult> &results);

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What the traced run needs from the untraced sweep it follows. */
struct UntracedSweep
{
    std::vector<gpsm::core::RunResult> results;
    double wallSeconds = 0.0;
    /** Σ per-config wall seconds from the pool's Progress callback. */
    double busySeconds = 0.0;
    std::uint64_t replayed = 0;
    std::uint64_t replayFallbacks = 0;
    std::uint64_t compiledOverflows = 0;
};

/**
 * The traced run: re-executes every config of @p w outside in, timing
 * each call into a layer's public functions, and checks that its
 * counters equal @p sweep's RunResults exactly; then runs the
 * per-layer knockouts. Appends every per-layer metric to @p out.
 *
 * @return number of configs whose counters or answers disagreed.
 */
std::size_t runTraced(const Workload &w, GraphSet &graphs,
                      const UntracedSweep &sweep,
                      const std::vector<KernelAnswer> &reference,
                      double generate_seconds, std::vector<Metric> &out);

/** Host wall clock, seconds. */
double now();

} // namespace perfbench

#endif // GPSM_PERFBENCH_HH
