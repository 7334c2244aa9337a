// WriterPreferringMutex: a reader/writer lock on which a waiting writer
// stops new readers from entering.
//
//   util::WriterPreferringMutex mu;
//   { std::shared_lock<util::WriterPreferringMutex> read(mu); ... }
//   { std::unique_lock<util::WriterPreferringMutex> write(mu); ... }
//
// std::shared_mutex on glibc prefers readers: while readers keep
// overlapping, a writer never gets in. The serving cell (server/service.h)
// has saturating readers (skyline queries) and rare short writers (edge
// batches), so it needs the opposite. A writer first takes the turnstile
// mutex, which every reader passes through on entry, and holds it until
// the readers already inside have left and it owns the lock; readers that
// arrive meanwhile wait at the turnstile. Writers queue on the turnstile
// among themselves.
#ifndef NSKY_UTIL_WRITER_PREFERRING_MUTEX_H_
#define NSKY_UTIL_WRITER_PREFERRING_MUTEX_H_

#include <mutex>
#include <shared_mutex>

namespace nsky::util {

class WriterPreferringMutex {
 public:
  WriterPreferringMutex() = default;
  WriterPreferringMutex(const WriterPreferringMutex&) = delete;
  WriterPreferringMutex& operator=(const WriterPreferringMutex&) = delete;

  void lock() {
    std::lock_guard<std::mutex> hold(turnstile_);
    rw_.lock();
  }
  void unlock() { rw_.unlock(); }

  void lock_shared() {
    { std::lock_guard<std::mutex> pass(turnstile_); }
    rw_.lock_shared();
  }
  // Fails while a writer waits or writes.
  bool try_lock_shared() {
    if (!turnstile_.try_lock()) return false;
    turnstile_.unlock();
    return rw_.try_lock_shared();
  }
  void unlock_shared() { rw_.unlock_shared(); }

 private:
  std::mutex turnstile_;
  std::shared_mutex rw_;
};

}  // namespace nsky::util

#endif  // NSKY_UTIL_WRITER_PREFERRING_MUTEX_H_
