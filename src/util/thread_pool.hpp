// Minimal blocking fork-join pool for the explore engine.
//
// Deliberately work-stealing-free: a parallel_for publishes one job
// whose shared atomic index every worker (plus the calling thread)
// fetch-adds. Tasks therefore run exactly once each, in no guaranteed
// order — determinism is the *caller's* job, achieved by writing task
// i's result into slot i and reducing the slots serially afterwards.
// With `threads == 1` no workers exist and everything runs inline on
// the calling thread, which is the serial reference the
// parallel-equals-serial tests compare against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xlf {

class ThreadPool {
 public:
  // Total concurrency including the calling thread: `threads - 1`
  // background workers are spawned. 0 selects the hardware count.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return threads_; }

  // Invoke body(i) exactly once for every i in [0, count), spread over
  // the pool; blocks until all complete. The exception of the lowest
  // failing index is rethrown here, whatever the thread count or the
  // order the tasks ran in (remaining tasks still drain, so the pool
  // stays reusable). Not reentrant: body must not call parallel_for on
  // the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  // All mutable state of one parallel_for, bundled so that a worker
  // waking late for an already-finished job holds a shared_ptr to
  // *that* job: its private index counter is exhausted, so the worker
  // retires without ever touching a successor job's body or indices.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t completed = 0;        // guarded by the pool mutex
    // The lowest failing index seen so far and its exception, guarded
    // by the pool mutex.
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  void worker_loop();
  // Pull indices until `job` is exhausted; report completions.
  void drain(Job& job);

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  bool shutting_down_ = false;
  bool job_running_ = false;
  // Bumps once per parallel_for so sleeping workers can tell a new
  // job from the one they just finished.
  std::uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;  // guarded by the pool mutex
};

}  // namespace xlf
