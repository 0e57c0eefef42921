// Seeded violation for the load-publish-context rule: a store to a
// published load word from a function that is neither
// OPTSCHED_REQUIRES-annotated nor named *Locked must be flagged -- readers
// take no lock, so the queue lock is the only thing serializing the
// writers, and an unlocked writer can publish a load the queue never held.
// Never compiled -- linted by lint_fixtures_test.

#include <atomic>

#define OPTSCHED_REQUIRES(...)

namespace mc_hooks {
enum class SyncOp { kLoadWrite };
void SyncPoint(SyncOp op, const void* address);
}  // namespace mc_hooks

namespace fixture {

struct Queue {
  // Compliant: the *Locked suffix is the repo's REQUIRES convention.
  void PublishLocked() {
    mc_hooks::SyncPoint(mc_hooks::SyncOp::kLoadWrite, this);
    published_tasks_.store(count_, std::memory_order_relaxed);
  }

  // Compliant: explicitly annotated, name notwithstanding.
  void RefreshSnapshot() OPTSCHED_REQUIRES(lock_) {
    published_tasks_.store(count_, std::memory_order_relaxed);
  }

  // Violation: no annotation, no convention -- nothing says the caller
  // holds the owning queue's lock.
  void Publish() {
    published_tasks_.store(count_, std::memory_order_relaxed);  // expect-lint: load-publish-context
  }

  // mc: kLoadWrite
  std::atomic<long> published_tasks_{0};
  long count_;
  int lock_;
};

}  // namespace fixture
