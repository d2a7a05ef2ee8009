#include "src/util/thread_pool.hpp"

#include <utility>

#include "src/util/expect.hpp"

namespace xlf {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  workers_.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain(Job& job) {
  // job.body stays valid while any index remains unaccounted: the
  // owning parallel_for cannot return (and release the functional)
  // before `completed` reaches `count`, which requires every fetched
  // index — including ours — to be reported below. This thread's
  // indices ascend, so its first error is its lowest.
  std::size_t done_here = 0;
  std::size_t error_index = 0;
  std::exception_ptr error;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) break;
    try {
      (*job.body)(i);
    } catch (...) {
      if (!error) {
        error = std::current_exception();
        error_index = i;
      }
    }
    ++done_here;
  }
  if (done_here > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    job.completed += done_here;
    // Moved, not copied: a copy left here would be released after the
    // lock, possibly as the last reference once parallel_for has
    // rethrown the exception and its caller handled it.
    if (error && (!job.error || error_index < job.error_index)) {
      job.error = std::move(error);
      job.error_index = error_index;
    }
    if (job.completed == job.count) job_done_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutting_down_ || generation_ != seen_generation;
      });
      if (shutting_down_) return;
      // Snapshot the current job under the lock. It may already be
      // gone (finished before this worker woke) — then skip the round.
      seen_generation = generation_;
      job = job_;
    }
    if (job) drain(*job);
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  XLF_EXPECT(body != nullptr);
  if (workers_.empty()) {
    // Serial reference path: drain every task exactly like the pooled
    // path (side effects must not depend on the thread count), then
    // rethrow the first error, which is the lowest index's.
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  // One control block per parallel batch, not per item.
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->count = count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    XLF_EXPECT(!job_running_ && "parallel_for is not reentrant");
    job_running_ = true;
    job_ = job;
    ++generation_;
  }
  work_ready_.notify_all();
  drain(*job);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [&] { return job->completed == job->count; });
    // Taken out of the job under the lock, so that a worker dropping
    // the last reference to the job frees nothing of the exception.
    error = std::move(job->error);
    job_.reset();
    job_running_ = false;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace xlf
