#ifndef PTK_UTIL_CANCELLATION_H_
#define PTK_UTIL_CANCELLATION_H_

#include <atomic>

namespace ptk::util {

/// Cooperative cancellation for long-running library calls (selection
/// sweeps, top-k enumeration). A CancelSource owns one flag; callers hand
/// its token() — a plain `const std::atomic<bool>*` — to the options
/// structs the hot loops read (pw::EnumeratorOptions::cancel,
/// core::SelectorOptions::cancel). The loops poll the flag at natural
/// batch boundaries (once per enumeration layer, once per candidate batch,
/// every few hundred pairs of an EI sweep) and return
/// util::Status::Cancelled when it is set; no work started before the flag
/// flip is undone, and every already-computed result is simply discarded.
///
/// The source outlives every token handed out; a null token means "never
/// cancelled" and costs one pointer test per poll. Setting the flag is
/// safe from any thread (the serving runtime's deadline watchdog fires it
/// from outside the worker executing the request); Reset() re-arms a
/// source between requests and must not race with a loop still polling
/// the token — the serving runtime guarantees that by resetting only
/// between requests of the same (serialized) session.
class CancelSource {
 public:
  CancelSource() = default;
  CancelSource(const CancelSource&) = delete;
  CancelSource& operator=(const CancelSource&) = delete;

  /// Requests cancellation. Idempotent; safe from any thread.
  void RequestCancel() { flag_.store(true, std::memory_order_relaxed); }

  /// Re-arms the source for the next request.
  void Reset() { flag_.store(false, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return flag_.load(std::memory_order_relaxed);
  }

  /// The pollable token, valid for this source's lifetime.
  const std::atomic<bool>* token() const { return &flag_; }

 private:
  std::atomic<bool> flag_{false};
};

/// Poll helper for the hot loops: false for the null ("never cancelled")
/// token.
inline bool CancelRequested(const std::atomic<bool>* token) {
  return token != nullptr && token->load(std::memory_order_relaxed);
}

}  // namespace ptk::util

#endif  // PTK_UTIL_CANCELLATION_H_
