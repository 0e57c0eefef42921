// Seeded violations for the hot-path-alloc rule: allocation or container
// growth inside an OPTSCHED_HOT_PATH function must be flagged unless a
// reasoned suppression rides on it. SuppressedGrow doubles as the
// suppression-mechanism proof: it contains a banned call and must produce
// NO diagnostic. Never compiled -- linted by lint_fixtures_test.

#include <vector>

#define OPTSCHED_HOT_PATH

namespace fixture {

struct Item {};
struct Ring {
  void PushBack(const Item&);
  void PushBatch(const Item*, int);
};

OPTSCHED_HOT_PATH void BadDrain(std::vector<int>& out, int item) {
  out.push_back(item);  // expect-lint: hot-path-alloc
}

OPTSCHED_HOT_PATH int* BadNew() {
  return new int(7);  // expect-lint: hot-path-alloc
}

// ItemRing's growth calls are container growth too.
OPTSCHED_HOT_PATH void BadRingPush(Ring& ring, const Item* items, int count) {
  ring.PushBack(items[0]);  // expect-lint: hot-path-alloc
  ring.PushBatch(items, count);  // expect-lint: hot-path-alloc
}

// A function template is checked like any other function.
template <typename Sink>
OPTSCHED_HOT_PATH void BadTemplateGrow(Sink& out, int item) {
  out.push_back(item);  // expect-lint: hot-path-alloc
}

OPTSCHED_HOT_PATH void SuppressedGrow(std::vector<int>& out, int item) {
  // optsched-lint: allow(hot-path-alloc): fixture scratch reuses its high-water capacity
  out.push_back(item);
}

// Compliant: growth is fine off the hot path.
void ColdGrow(std::vector<int>& out, int item) { out.push_back(item); }

}  // namespace fixture
