#include "itvbench/src/reference.h"

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"

namespace itvbench {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

constexpr uint64_t kLapEvents = 100'000;

// The reference work. Its state lives across laps, so every lap after the
// warm-up runs on the same warm, steady-sized heap and tables.
class Kernel {
 public:
  Kernel() {
    for (uint64_t i = 0; i < 1024; ++i) {
      heap_.push(Event{Next() % 1000, seq_++});
    }
  }

  void Run(uint64_t events) {
    for (uint64_t n = 0; n < events; ++n) {
      Event e = heap_.top();
      heap_.pop();
      uint64_t key = Next() % kKeys;
      auto& fn = handlers_[key % 4096];
      if (!fn) {
        fn = [key](uint64_t v) { return v * 31 + key; };
      }
      sink_ += fn(e.when);
      std::string& entry = table_[key];
      entry.assign(24 + key % 40, static_cast<char>('a' + key % 26));
      if (table_.size() > kKeys / 2) {
        table_.erase(table_.begin());
      }
      heap_.push(Event{e.when + 1 + Next() % 2000, seq_++});
    }
  }

  uint64_t sink() const { return sink_; }

 private:
  struct Event {
    uint64_t when;
    uint64_t seq;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  static constexpr uint64_t kKeys = 1 << 16;

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::unordered_map<uint64_t, std::function<uint64_t(uint64_t)>> handlers_;
  std::unordered_map<uint64_t, std::string> table_;
  uint64_t state_ = 0x9e3779b97f4a7c15ull;
  uint64_t seq_ = 0;
  uint64_t sink_ = 0;
};

// The child: warms up, reports ready, then times one lap per byte the
// parent sends, until the pipe closes.
[[noreturn]] void ChildLoop(int from_parent, int to_parent) {
  Kernel kernel;
  kernel.Run(2 * kLapEvents);
  double seconds = 0;
  char go = 0;
  while (write(to_parent, &seconds, sizeof(seconds)) == sizeof(seconds) &&
         read(from_parent, &go, 1) == 1) {
    double start = CpuSeconds();
    kernel.Run(kLapEvents);
    seconds = CpuSeconds() - start;
  }
  if (kernel.sink() == 42) {
    std::fprintf(stderr, "reference: %llu\n",
                 static_cast<unsigned long long>(kernel.sink()));
  }
  _exit(0);
}

}  // namespace

ReferenceProbe::ReferenceProbe() {
  int down[2];
  int up[2];
  ITV_CHECK(pipe(down) == 0 && pipe(up) == 0) << "reference: pipe failed";
  pid_ = fork();
  ITV_CHECK(pid_ >= 0) << "reference: fork failed";
  if (pid_ == 0) {
    close(down[1]);
    close(up[0]);
    ChildLoop(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  Read();  // Warm-up done.
  laps_.push_back(Lap());
}

double ReferenceProbe::Read() {
  double seconds = 0;
  ITV_CHECK(read(from_child_, &seconds, sizeof(seconds)) == sizeof(seconds))
      << "reference: child failed";
  return seconds;
}

double ReferenceProbe::Lap() {
  char go = 1;
  ITV_CHECK(write(to_child_, &go, 1) == 1) << "reference: child gone";
  return Read();
}

void ReferenceProbe::MaybeLap() {
  double now = CpuSeconds();
  if (now - last_lap_cpu_ >= kLapEverySeconds) {
    laps_.push_back(Lap());
    last_lap_cpu_ = now;
  }
}

ReferenceProbe::~ReferenceProbe() {
  close(to_child_);
  close(from_child_);
  int status = 0;
  waitpid(pid_, &status, 0);
}

}  // namespace itvbench
