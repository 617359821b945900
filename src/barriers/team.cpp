#include "armbar/barriers/team.hpp"

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace armbar {

void parallel_run(int num_threads, const std::function<void(int)>& fn) {
  if (num_threads < 1)
    throw std::invalid_argument("parallel_run: num_threads >= 1");
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (int tid = 0; tid < num_threads; ++tid) {
    threads.emplace_back([&, tid] {
      try {
        fn(tid);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

struct ThreadTeam::Impl {
  std::mutex mu;
  std::condition_variable cv_workers;
  std::condition_variable cv_done;
  const std::function<void(int)>* job = nullptr;
  std::uint64_t episode = 0;
  int remaining = 0;
  bool stopping = false;
  std::exception_ptr first_error;
  std::vector<std::thread> workers;

  void worker_loop(int tid) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* my_job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_workers.wait(lk, [&] { return stopping || episode != seen; });
        if (stopping) return;
        seen = episode;
        my_job = job;
      }
      try {
        (*my_job)(tid);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first_error) first_error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--remaining == 0) cv_done.notify_all();
      }
    }
  }
};

ThreadTeam::ThreadTeam(int num_threads)
    : impl_(new Impl), num_threads_(num_threads) {
  if (num_threads < 1) {
    delete impl_;
    throw std::invalid_argument("ThreadTeam: num_threads >= 1");
  }
  impl_->workers.reserve(static_cast<std::size_t>(num_threads));
  for (int tid = 0; tid < num_threads; ++tid)
    impl_->workers.emplace_back([this, tid] { impl_->worker_loop(tid); });
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stopping = true;
  }
  impl_->cv_workers.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadTeam::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->job = &fn;
  impl_->remaining = num_threads_;
  impl_->first_error = nullptr;
  ++impl_->episode;
  impl_->cv_workers.notify_all();
  impl_->cv_done.wait(lk, [&] { return impl_->remaining == 0; });
  if (impl_->first_error) std::rethrow_exception(impl_->first_error);
}

}  // namespace armbar
