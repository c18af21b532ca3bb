// Dependency-ordered task execution over a ThreadPool.
//
// A TaskGraph is a dynamic DAG: tasks may be added while the graph runs,
// each task names the already-added tasks it depends on, and a task is
// handed to the pool the moment its last dependency completes. This is
// how cpu::compare_blocked_async orders panel packing before the
// macro-tiles that read it and keeps each tile's k_c chain serial,
// without any stage ever blocking a worker thread.
//
// Failure semantics: the first exception thrown by any task is captured
// and rethrown from wait(); tasks depending (transitively) on a failed
// task are skipped, never run. The graph always quiesces — wait() returns
// after every added task has either run or been skipped.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <vector>

#include "exec/thread_pool.hpp"

namespace snp::exec {

class TaskGraph {
 public:
  using TaskId = std::size_t;

  explicit TaskGraph(ThreadPool& pool) : pool_(pool) {}
  /// Blocks until the graph quiesces; task exceptions are swallowed here
  /// (call wait() first if you need them).
  ~TaskGraph();
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a task depending on `deps` (each must be a previously returned
  /// TaskId). Thread-safe; may be called while the graph is executing.
  TaskId add(std::function<void()> fn, const std::vector<TaskId>& deps = {});

  /// Blocks until every added task has run or been skipped, then rethrows
  /// the first captured task exception, if any.
  void wait();

  [[nodiscard]] std::size_t added() const;
  [[nodiscard]] std::size_t completed() const;  ///< ran successfully
  [[nodiscard]] std::size_t skipped() const;    ///< dropped via failed dep
  /// True once any task has thrown. Producers streaming work into the
  /// graph under Semaphore backpressure poll this to stop scheduling —
  /// skipped tasks never run their slot releases.
  [[nodiscard]] bool failed() const;

 private:
  enum class State : unsigned char { kWaiting, kQueued, kDone, kFailed,
                                     kSkipped };

  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> dependents;
    std::size_t pending = 0;  ///< unfinished dependencies
    bool dep_failed = false;
    State state = State::kWaiting;
  };

  void run(TaskId id);
  /// Marks `id` terminal, releases its dependents, schedules newly ready
  /// tasks. Called with mu_ NOT held.
  void finish(TaskId id, State terminal);
  void schedule(TaskId id);

  ThreadPool& pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_done_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t open_ = 0;       ///< nodes not yet terminal
  std::size_t completed_ = 0;
  std::size_t skipped_ = 0;
  std::exception_ptr error_;
};

}  // namespace snp::exec
