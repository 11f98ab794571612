// A fixed host-speed reference, timed in short laps between slices of each
// repetition's measured window.
//
// Host CPU time on a shared machine drifts by tens of percent over minutes
// (frequency, cache and memory-bandwidth contention from neighbours). The
// drift hits the reference and the workload alike, so host times are
// reported as ratios to it. The kernel depends on nothing under src/ and runs
// in a child forked before the workload boots, on the child's own heap, so no
// change to the program can move it and the benchmark process's heap and
// peak RSS never see it: a timer heap with type-erased callbacks, hash-map
// lookups and short-lived allocations, the same mix of work the simulator
// does per event. The child runs only while this process waits for its lap,
// on the same CPU.

#ifndef ITVBENCH_SRC_REFERENCE_H_
#define ITVBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace itvbench {

// Process CPU seconds since the process started.
double CpuSeconds();

// Forks the reference child, waits for its warm-up and times one lap
// (blocking). If this process dies first, the child sees the pipe close and
// exits.
class ReferenceProbe {
 public:
  // A lap is 100,000 kernel events (~30 ms of CPU); a lap's CPU times this
  // is on the scale of a 1M-event pass. MaybeLap() takes one per
  // kLapEverySeconds of this process's CPU.
  static constexpr int kLapsPerPass = 10;
  static constexpr double kLapEverySeconds = 0.25;

  ReferenceProbe();
  ~ReferenceProbe();
  ReferenceProbe(const ReferenceProbe&) = delete;
  ReferenceProbe& operator=(const ReferenceProbe&) = delete;

  // Times one more lap if this process used kLapEverySeconds of CPU since
  // the last one.
  void MaybeLap();

  // CPU seconds of every lap so far.
  const std::vector<double>& laps() const { return laps_; }

 private:
  double Read();
  double Lap();

  int pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  double last_lap_cpu_ = CpuSeconds();
  std::vector<double> laps_;
};

}  // namespace itvbench

#endif  // ITVBENCH_SRC_REFERENCE_H_
